"""Simulated archival storage: devices, stripes, archive, MAID, monitor."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".archive": (
            "DataLossError",
            "ObjectManifest",
            "StripeRecord",
            "TornadoArchive",
        ),
        ".blockstore": (
            "DeviceBlockStore",
            "LocalBlockStore",
            "block_key",
            "parse_block_key",
        ),
        ".device": (
            "Device",
            "DeviceArray",
            "DeviceState",
            "TransientUnavailableError",
        ),
        ".integrity": (
            "CorruptBlock",
            "IntegrityReport",
            "IntegrityScanner",
            "corrupt_block",
        ),
        ".maid": ("MAIDPowerModel", "PowerReport", "SessionMeter"),
        ".monitor": ("MonitorReport", "StripeHealth", "StripeMonitor"),
        ".retrieval": ("RetrievalPlan", "plan_all", "plan_data_first", "plan_guided"),
        ".simulation": (
            "MissionConfig",
            "MissionEvent",
            "MissionReport",
            "run_mission",
        ),
        ".stripe": ("StripeMap", "rotated_placement"),
    },
)
