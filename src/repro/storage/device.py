"""Simulated storage devices (the paper's "96 individually-accessible
drives").

The reproduction has no hardware, so devices are simulated state
machines with the properties the paper's analysis depends on: they hold
one block per stripe, they can be online, spun down (MAID), or failed,
and they expose access counters for the power/retrieval studies.
Failure injection drives every experiment: deterministic (`fail`) and
random k-of-n (`fail_random`).  Stochastic failures over time — the
reliability model's Eq. 2 AFR draws and their age-dependent variants —
come from :class:`repro.reliability.FleetHazards`, which decides *which*
devices fail; this module only applies the verdict.

Beyond the paper's clean permanent losses, devices also model the
failure modes real archives see (see :mod:`repro.resilience`):

* **transient unavailability** (``interrupt``/``restore``) — the device
  is temporarily unreachable (drawer power loss, expander reset) but its
  data is intact; reads raise :class:`TransientUnavailableError` so
  callers can retry instead of declaring loss;
* **latent sector errors** (``lose_block``) — a single stored block is
  silently gone, discovered only when read or scrubbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .._checks import check_count
from ..obs.registry import registry
from ..obs.seeding import SeedLike, resolve_rng

__all__ = [
    "DeviceState",
    "Device",
    "DeviceArray",
    "TransientUnavailableError",
]


class TransientUnavailableError(IOError):
    """A device (or stripe) is temporarily unreachable; data is intact.

    Distinct from :class:`~repro.storage.archive.DataLossError`: the
    right response is retry-with-backoff (the device will come back),
    not loss accounting.
    """

    def __init__(self, message: str, device_ids: Iterable[int] = ()):
        self.device_ids = tuple(device_ids)
        super().__init__(message)


class DeviceState(enum.Enum):
    """Lifecycle of a simulated device."""

    ONLINE = "online"  # spinning, serving reads
    STANDBY = "standby"  # spun down (MAID); data intact, access costs a spin-up
    UNAVAILABLE = "unavailable"  # transiently unreachable; data intact
    FAILED = "failed"  # data lost until rebuilt


@dataclass
class Device:
    """One simulated drive: a block store with a state machine."""

    device_id: int
    state: DeviceState = DeviceState.ONLINE
    blocks: dict[str, bytes] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    spin_ups: int = 0

    @property
    def available(self) -> bool:
        """Whether the device can serve data (possibly after a spin-up)."""
        return self.state in (DeviceState.ONLINE, DeviceState.STANDBY)

    def write_block(self, key: str, payload: bytes) -> None:
        self._require_alive()
        self._spin_up_if_needed()
        self.blocks[key] = bytes(payload)
        self.writes += 1
        registry().counter("storage.writes").inc()

    def read_block(self, key: str) -> bytes:
        self._require_alive()
        self._spin_up_if_needed()
        self.reads += 1
        registry().counter("storage.reads").inc()
        try:
            return self.blocks[key]
        except KeyError:
            raise KeyError(
                f"device {self.device_id} has no block {key!r}"
            ) from None

    def spin_down(self) -> None:
        if self.state is DeviceState.ONLINE:
            self.state = DeviceState.STANDBY
            registry().counter("storage.spin_downs").inc()

    def interrupt(self) -> None:
        """Make the device transiently unreachable (data intact)."""
        if self.state in (DeviceState.ONLINE, DeviceState.STANDBY):
            self.state = DeviceState.UNAVAILABLE
            registry().counter("storage.interruptions").inc()

    def restore(self) -> None:
        """Recover a transiently-unavailable device (data intact)."""
        if self.state is DeviceState.UNAVAILABLE:
            self.state = DeviceState.ONLINE
            registry().counter("storage.recoveries").inc()

    def lose_block(self, key: str) -> bool:
        """Latent sector error: silently drop one stored block.

        Returns whether the block existed.  The loss is discovered only
        when the block is next read, scanned, or scrubbed.
        """
        existed = self.blocks.pop(key, None) is not None
        if existed:
            registry().counter("storage.latent_errors").inc()
        return existed

    def fail(self) -> None:
        """Destroy the device and its contents."""
        self.state = DeviceState.FAILED
        self.blocks.clear()
        registry().counter("storage.device_failures").inc()

    def rebuild(self) -> None:
        """Return a failed device to service, empty."""
        self.state = DeviceState.ONLINE
        self.blocks.clear()
        registry().counter("storage.rebuilds").inc()

    def _spin_up_if_needed(self) -> None:
        if self.state is DeviceState.STANDBY:
            self.state = DeviceState.ONLINE
            self.spin_ups += 1
            registry().counter("storage.spin_ups").inc()

    def _require_alive(self) -> None:
        if self.state is DeviceState.FAILED:
            raise IOError(f"device {self.device_id} has failed")
        if self.state is DeviceState.UNAVAILABLE:
            raise TransientUnavailableError(
                f"device {self.device_id} is transiently unavailable",
                (self.device_id,),
            )


class DeviceArray:
    """A shelf of simulated devices with failure injection."""

    def __init__(self, num_devices: int):
        check_count(num_devices, "num_devices", 1)
        self.devices = [Device(device_id=i) for i in range(num_devices)]

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, device_id: int) -> Device:
        return self.devices[device_id]

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    @property
    def available_mask(self) -> np.ndarray:
        """Boolean availability per device (failed = False)."""
        return np.array([d.available for d in self.devices], dtype=bool)

    @property
    def failed_ids(self) -> list[int]:
        return [
            d.device_id
            for d in self.devices
            if d.state is DeviceState.FAILED
        ]

    @property
    def unavailable_ids(self) -> list[int]:
        return [
            d.device_id
            for d in self.devices
            if d.state is DeviceState.UNAVAILABLE
        ]

    def total_spin_ups(self) -> int:
        return sum(d.spin_ups for d in self.devices)

    def total_reads(self) -> int:
        return sum(d.reads for d in self.devices)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail(self, device_ids: Iterable[int]) -> None:
        for did in device_ids:
            self.devices[did].fail()

    def fail_random(self, k: int, rng: SeedLike = None) -> list[int]:
        """Fail ``k`` uniformly random currently-alive devices.

        ``rng`` accepts an int seed or a Generator (unified seeding).
        """
        rng = resolve_rng(rng)
        alive = [d.device_id for d in self.devices if d.available]
        if check_count(k, "k") > len(alive):
            raise ValueError(f"cannot fail {k} of {len(alive)} alive devices")
        chosen = rng.choice(alive, size=k, replace=False).tolist()
        self.fail(chosen)
        return sorted(chosen)

    def interrupt(self, device_ids: Iterable[int]) -> None:
        """Transiently interrupt a set of devices (data intact)."""
        for did in device_ids:
            self.devices[did].interrupt()

    def restore(self, device_ids: Iterable[int]) -> None:
        """Recover a set of transiently-unavailable devices."""
        for did in device_ids:
            self.devices[did].restore()

    def rebuild_all(self) -> None:
        for d in self.devices:
            if d.state is DeviceState.FAILED:
                d.rebuild()

    def spin_down_all(self) -> None:
        """Park every healthy device (MAID idle state)."""
        for d in self.devices:
            d.spin_down()
