"""Simulated archival storage: devices, stripes, archive, MAID, monitor."""

from .archive import DataLossError, ObjectManifest, StripeRecord, TornadoArchive
from .blockstore import (
    DeviceBlockStore,
    LocalBlockStore,
    block_key,
    parse_block_key,
)
from .device import Device, DeviceArray, DeviceState, TransientUnavailableError
from .integrity import CorruptBlock, IntegrityReport, IntegrityScanner, corrupt_block
from .maid import MAIDPowerModel, PowerReport, SessionMeter
from .monitor import MonitorReport, StripeHealth, StripeMonitor
from .retrieval import RetrievalPlan, plan_all, plan_data_first, plan_guided
from .stripe import StripeMap, rotated_placement

from .simulation import MissionConfig, MissionEvent, MissionReport, run_mission

__all__ = [
    "CorruptBlock",
    "IntegrityReport",
    "IntegrityScanner",
    "corrupt_block",
    "run_mission",
    "MissionReport",
    "MissionEvent",
    "MissionConfig",
    "DataLossError",
    "Device",
    "DeviceArray",
    "DeviceBlockStore",
    "DeviceState",
    "LocalBlockStore",
    "block_key",
    "parse_block_key",
    "MAIDPowerModel",
    "MonitorReport",
    "ObjectManifest",
    "PowerReport",
    "RetrievalPlan",
    "SessionMeter",
    "StripeHealth",
    "StripeMap",
    "StripeMonitor",
    "StripeRecord",
    "TornadoArchive",
    "TransientUnavailableError",
    "plan_all",
    "plan_data_first",
    "plan_guided",
    "rotated_placement",
]
