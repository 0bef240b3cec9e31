"""Composable fault plans and the stateful fault-injection engine.

The paper evaluates clean, permanent device loss.  Real archives (and
the LDPC-for-storage follow-ups: Park et al., arXiv:1710.05615;
Dimakis et al., arXiv:0803.0632) see a richer taxonomy, modelled here
as composable per-step fault processes over a
:class:`~repro.storage.device.DeviceArray`:

* :class:`TransientOutages` — per-device transient unavailability with
  exponential (geometric in steps) recovery: expander resets, fabric
  glitches, devices mid-firmware-update.  Data survives; reads must
  wait or decode around.
* :class:`DrawerOutages` — correlated whole-drawer events over the
  paper's 8×12 topology (96 devices in 8 drawers of 12): a shared power
  or interconnect fault takes out ``drawer_size`` consecutive devices
  at once, either transiently (``mode="transient"``) or destructively
  (``mode="fail"``).
* :class:`LatentErrors` — latent sector errors: one stored block
  silently vanishes from a device, discovered only at read/scrub time.
* :class:`SilentCorruption` — bit rot: one stored block gets a flipped
  byte; only checksum scrubbing (:class:`repro.storage.IntegrityScanner`)
  can see it.
* :class:`ReplacementJitter` — procurement noise: each replacement's
  lag gains 0..``max_extra_steps`` extra steps.
* :class:`DeviceHazards` — replaces the memoryless AFR draw with
  per-device hazard curves (:mod:`repro.reliability.hazards`):
  Weibull/bathtub aging, infant mortality on replacement devices, and
  correlated manufacturing-batch defects.  The mission's baseline
  binomial draw stays untouched; this spec layers age-dependent
  failures on top (set the mission AFR to 0 to run hazard-only).

Cluster-level specs (PR 7) extend the taxonomy to the multi-process
cluster, where the failing unit is a *process* or the *network*, not a
device:

* :class:`CoordinatorCrashes` — SIGKILL the coordinator mid-flight;
  the restarted process must recover from its write-ahead log.
* :class:`NodeCrashes` — SIGKILL a storage node (real loss of its
  blocks until repair re-derives them).
* :class:`NetworkPartitions` — a node stays reachable at TCP level but
  never answers (the half-open failure detectors genuinely fear).
* :class:`SlowNodes` — grey failure: a node answers correctly but
  slowly.

A :class:`FaultPlan` is an ordered bundle of specs, JSON round-trippable
(``repro mission --faults PLAN.json``).  :class:`FaultInjector` is the
per-run state machine: it draws faults from the mission RNG stream (so
campaigns are reproducible end-to-end), tracks outstanding outages, and
emits :class:`~repro.storage.simulation.MissionEvent` records.  The
injector dispatches per-kind handlers by name, so device-level runs
silently skip the cluster specs (and vice versa:
:func:`~repro.resilience.cluster_campaign.run_cluster_campaign` reads
the cluster specs and ignores device-only kinds) — one plan file can
describe both layers.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from ..obs.registry import registry
from ..obs.trace import add_trace_event
from ..storage.device import DeviceState
from ..storage.simulation import MissionEvent

__all__ = [
    "TransientOutages",
    "DrawerOutages",
    "LatentErrors",
    "SilentCorruption",
    "ReplacementJitter",
    "DeviceHazards",
    "CoordinatorCrashes",
    "NodeCrashes",
    "NetworkPartitions",
    "SlowNodes",
    "FaultPlan",
    "FaultInjector",
]


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")


@dataclass(frozen=True)
class TransientOutages:
    """Per-device transient unavailability with exponential recovery."""

    rate: float = 0.01  # per device-step probability of going dark
    mean_outage_steps: float = 2.0  # mean of the geometric recovery time

    kind = "transient"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.mean_outage_steps < 1.0:
            raise ValueError("mean_outage_steps must be >= 1")


@dataclass(frozen=True)
class DrawerOutages:
    """Correlated whole-drawer faults (the paper's 8×12 topology)."""

    rate: float = 0.002  # per drawer-step probability
    drawer_size: int = 12
    mode: str = "transient"  # "transient" (outage) or "fail" (destroys)
    mean_outage_steps: float = 1.0

    kind = "drawer"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.drawer_size < 1:
            raise ValueError("drawer_size must be positive")
        if self.mode not in ("transient", "fail"):
            raise ValueError("mode must be 'transient' or 'fail'")
        if self.mean_outage_steps < 1.0:
            raise ValueError("mean_outage_steps must be >= 1")


@dataclass(frozen=True)
class LatentErrors:
    """Latent sector errors: silent loss of single stored blocks."""

    rate: float = 0.005  # per device-step probability of losing a block

    kind = "latent"

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class SilentCorruption:
    """Bit rot: a stored block's bytes flip without any error."""

    rate: float = 0.005  # per device-step probability of corrupting one

    kind = "corruption"

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class ReplacementJitter:
    """Uniform 0..max extra steps added to each replacement's lag."""

    max_extra_steps: int = 2

    kind = "replacement_jitter"

    def __post_init__(self) -> None:
        if self.max_extra_steps < 0:
            raise ValueError("max_extra_steps must be non-negative")


@dataclass(frozen=True)
class DeviceHazards:
    """Age-dependent per-device failures via hazard curves.

    ``curve`` selects :class:`~repro.reliability.hazards.WeibullHazard`
    (``"weibull"``) or :class:`~repro.reliability.hazards.BathtubHazard`
    (``"bathtub"``).  ``scale`` 0 calibrates the Weibull scale from
    ``afr`` so a shape-1 curve matches the binomial-AFR baseline.
    ``infant_mortality`` is the probability each *replacement* device is
    an infant-mortality unit; ``batch_defect_rate`` flags contiguous
    ``batch_size``-device lots with a ``defect_multiplier`` hazard
    penalty.  ``steps_per_year`` converts mission steps to hazard time
    and should match the mission's own cadence.
    """

    curve: str = "weibull"  # "weibull" or "bathtub"
    shape: float = 1.0
    scale: float = 0.0  # 0 -> calibrate from afr
    afr: float = 0.02
    infant_mortality: float = 0.0
    infant_first_year: float = 0.10
    batch_defect_rate: float = 0.0
    batch_size: int = 12
    defect_multiplier: float = 8.0
    steps_per_year: int = 12

    kind = "hazard"

    def __post_init__(self) -> None:
        if self.curve not in ("weibull", "bathtub"):
            raise ValueError("curve must be 'weibull' or 'bathtub'")
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if not 0.0 < self.afr < 1.0:
            raise ValueError("afr must lie in (0, 1)")
        _check_rate(self.infant_mortality)
        if not 0.0 < self.infant_first_year < 1.0:
            raise ValueError("infant_first_year must lie in (0, 1)")
        _check_rate(self.batch_defect_rate)
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.defect_multiplier < 1.0:
            raise ValueError("defect_multiplier must be >= 1")
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be positive")


@dataclass(frozen=True)
class CoordinatorCrashes:
    """SIGKILL the coordinator; it must restart and recover its WAL."""

    rate: float = 0.05  # per campaign-step probability

    kind = "coordinator_crash"

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class NodeCrashes:
    """SIGKILL one storage node; its blocks are lost until repair."""

    rate: float = 0.05  # per node-step probability
    restart_delay_steps: int = 1  # steps before the node rejoins

    kind = "node_crash"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.restart_delay_steps < 0:
            raise ValueError("restart_delay_steps must be non-negative")


@dataclass(frozen=True)
class NetworkPartitions:
    """A node accepts TCP but never answers, for a geometric duration."""

    rate: float = 0.05  # per node-step probability
    mean_partition_steps: float = 2.0

    kind = "partition"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.mean_partition_steps < 1.0:
            raise ValueError("mean_partition_steps must be >= 1")


@dataclass(frozen=True)
class SlowNodes:
    """Grey failure: a node answers correctly but delayed."""

    rate: float = 0.05  # per node-step probability
    delay_seconds: float = 0.2
    mean_slow_steps: float = 2.0

    kind = "slow"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.mean_slow_steps < 1.0:
            raise ValueError("mean_slow_steps must be >= 1")


_SPEC_KINDS = {
    cls.kind: cls
    for cls in (
        TransientOutages,
        DrawerOutages,
        LatentErrors,
        SilentCorruption,
        ReplacementJitter,
        DeviceHazards,
        CoordinatorCrashes,
        NodeCrashes,
        NetworkPartitions,
        SlowNodes,
    )
}

FaultSpec = (
    TransientOutages
    | DrawerOutages
    | LatentErrors
    | SilentCorruption
    | ReplacementJitter
    | DeviceHazards
    | CoordinatorCrashes
    | NodeCrashes
    | NetworkPartitions
    | SlowNodes
)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable bundle of fault processes."""

    faults: tuple[FaultSpec, ...] = ()

    @property
    def fault_classes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(f.kind for f in self.faults))

    def to_dict(self) -> dict:
        return {
            "faults": [
                {"kind": f.kind, **asdict(f)} for f in self.faults
            ]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FaultPlan":
        specs = []
        for entry in obj.get("faults", []):
            fields = dict(entry)
            kind = fields.pop("kind", None)
            spec_cls = _SPEC_KINDS.get(kind)
            if spec_cls is None:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{sorted(_SPEC_KINDS)}"
                )
            specs.append(spec_cls(**fields))
        return cls(faults=tuple(specs))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class FaultInjector:
    """Stateful per-run engine executing a :class:`FaultPlan`.

    Hooks into :func:`repro.storage.simulation.run_mission` via its
    ``injector=`` parameter: every step, :meth:`inject` first restores
    outages whose recovery time arrived, then draws new faults from the
    mission RNG.  All randomness flows through the generator the caller
    passes in, so one seed reproduces the whole campaign.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._recovery: dict[int, int] = {}  # device id -> restore step
        # Per-DeviceHazards-spec fleet state (lazily built on first
        # injection, when the archive's device count is known).
        self._fleets: dict[int, object] = {}
        self._hazard_prev_failed: dict[int, set[int]] = {}
        self.counts: dict[str, int] = {
            kind: 0 for kind in plan.fault_classes
        }
        self.counts["recovery"] = 0

    # ------------------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        registry().counter(f"resilience.faults.{kind}").inc()
        # A traced campaign sees each injected fault as a point event
        # on the ambient span (the campaign or mission-step span).
        add_trace_event("resilience.fault", kind=kind)

    def _outage_steps(
        self, mean: float, rng: np.random.Generator
    ) -> int:
        # Geometric recovery: the discrete analogue of exponential
        # repair times, mean `mean` steps, minimum one step.
        return int(rng.geometric(min(1.0, 1.0 / mean)))

    def _interrupt(
        self,
        step: int,
        devices,
        ids: Iterable[int],
        outage_steps: int,
    ) -> list[int]:
        hit = []
        for did in ids:
            if devices[did].state in (
                DeviceState.ONLINE,
                DeviceState.STANDBY,
            ):
                devices[did].interrupt()
                self._recovery[did] = step + outage_steps
                hit.append(did)
        return hit

    # ------------------------------------------------------------------

    def inject(self, step: int, archive, rng) -> list[MissionEvent]:
        """Advance outage recovery and draw this step's new faults."""
        devices = archive.devices
        events: list[MissionEvent] = []

        # 1. recoveries due this step
        due = sorted(
            did for did, at in self._recovery.items() if at <= step
        )
        for did in due:
            del self._recovery[did]
            if devices[did].state is DeviceState.UNAVAILABLE:
                devices[did].restore()
                self._count("recovery")
                events.append(
                    MissionEvent(
                        step, "recovery", f"device {did} back online"
                    )
                )

        # 2. new faults, one spec at a time (order = plan order)
        for spec in self.plan.faults:
            handler = getattr(self, f"_inject_{spec.kind}", None)
            if handler is not None:
                events.extend(handler(spec, step, archive, rng))
        return events

    def replacement_extra(self, rng) -> int:
        """Extra replacement-lag steps from any jitter spec."""
        extra = 0
        for spec in self.plan.faults:
            if isinstance(spec, ReplacementJitter) and spec.max_extra_steps:
                extra += int(rng.integers(0, spec.max_extra_steps + 1))
        if extra:
            self._count("replacement_jitter")
        return extra

    # ------------------------------------------------------------------
    # Per-class draw handlers
    # ------------------------------------------------------------------

    def _inject_transient(self, spec, step, archive, rng):
        events = []
        for d in archive.devices.devices:
            if d.available and rng.random() < spec.rate:
                steps = self._outage_steps(spec.mean_outage_steps, rng)
                self._interrupt(
                    step, archive.devices, [d.device_id], steps
                )
                self._count("transient")
                events.append(
                    MissionEvent(
                        step,
                        "fault",
                        f"transient: device {d.device_id} "
                        f"unavailable for {steps} steps",
                    )
                )
        return events

    def _inject_drawer(self, spec, step, archive, rng):
        events = []
        n = len(archive.devices)
        drawers = (n + spec.drawer_size - 1) // spec.drawer_size
        for drawer in range(drawers):
            if rng.random() >= spec.rate:
                continue
            members = list(
                range(
                    drawer * spec.drawer_size,
                    min((drawer + 1) * spec.drawer_size, n),
                )
            )
            if spec.mode == "fail":
                archive.devices.fail(members)
                self._count("drawer")
                events.append(
                    MissionEvent(
                        step,
                        "fault",
                        f"drawer {drawer} destroyed "
                        f"(devices {members[0]}-{members[-1]})",
                    )
                )
            else:
                steps = self._outage_steps(spec.mean_outage_steps, rng)
                hit = self._interrupt(
                    step, archive.devices, members, steps
                )
                if hit:
                    self._count("drawer")
                    events.append(
                        MissionEvent(
                            step,
                            "fault",
                            f"drawer {drawer} offline for {steps} "
                            f"steps ({len(hit)} devices)",
                        )
                    )
        return events

    def _inject_latent(self, spec, step, archive, rng):
        events = []
        for d in archive.devices.devices:
            if not d.blocks or rng.random() >= spec.rate:
                continue
            keys = sorted(d.blocks)
            key = keys[int(rng.integers(0, len(keys)))]
            d.lose_block(key)
            self._count("latent")
            events.append(
                MissionEvent(
                    step,
                    "fault",
                    f"latent error: device {d.device_id} "
                    f"lost block {key}",
                )
            )
        return events

    def _inject_corruption(self, spec, step, archive, rng):
        events = []
        for d in archive.devices.devices:
            if not d.blocks or rng.random() >= spec.rate:
                continue
            keys = sorted(d.blocks)
            key = keys[int(rng.integers(0, len(keys)))]
            raw = bytearray(d.blocks[key])
            offset = int(rng.integers(0, len(raw))) if raw else 0
            if raw:
                raw[offset] ^= 0xFF
                d.blocks[key] = bytes(raw)
            self._count("corruption")
            registry().counter("storage.corruptions").inc()
            events.append(
                MissionEvent(
                    step,
                    "fault",
                    f"corruption: device {d.device_id} block {key} "
                    f"byte {offset} flipped",
                )
            )
        return events

    def _fleet_for(self, spec, archive, rng):
        """The lazily-built FleetHazards state behind a hazard spec."""
        from ..reliability.hazards import (
            BathtubHazard,
            FleetHazards,
            WeibullHazard,
        )

        fleet = self._fleets.get(id(spec))
        if fleet is not None:
            return fleet
        if spec.scale > 0:
            wearout = WeibullHazard(shape=spec.shape, scale=spec.scale)
        else:
            wearout = WeibullHazard.from_afr(spec.afr, shape=spec.shape)
        if spec.curve == "bathtub":
            base = BathtubHazard(
                infant=WeibullHazard.from_afr(
                    spec.infant_first_year, shape=0.5
                ),
                wearout=wearout,
            )
        else:
            base = wearout
        fleet = FleetHazards(
            len(archive.devices),
            base,
            infant_mortality=spec.infant_mortality,
            infant_first_year=spec.infant_first_year,
            batch_defect_rate=spec.batch_defect_rate,
            batch_size=spec.batch_size,
            defect_multiplier=spec.defect_multiplier,
            # Heterogeneity draws come off the mission RNG stream, so
            # one mission seed reproduces the whole fleet layout.
            seed=int(rng.integers(0, 2**63)),
        )
        self._fleets[id(spec)] = fleet
        self._hazard_prev_failed[id(spec)] = set()
        return fleet

    def _inject_hazard(self, spec, step, archive, rng):
        fleet = self._fleet_for(spec, archive, rng)
        devices = archive.devices
        t0 = step / spec.steps_per_year
        t1 = (step + 1) / spec.steps_per_year
        events = []

        # Devices that were failed last step and are online again were
        # swapped by the replacement pipeline: reset their age and draw
        # whether the fresh unit is an infant-mortality victim.
        prev_failed = self._hazard_prev_failed[id(spec)]
        for did in sorted(prev_failed):
            if devices[did].state is DeviceState.ONLINE:
                if fleet.replace(did, t0):
                    events.append(
                        MissionEvent(
                            step,
                            "fault",
                            f"hazard: replacement device {did} is an "
                            f"infant-mortality unit",
                        )
                    )

        # Age-dependent failure draws, one per available device in id
        # order (fixed draw order keeps campaigns reproducible).
        doomed = []
        for d in devices.devices:
            if not d.available:
                continue
            p = fleet.step_probability(d.device_id, t0, t1)
            if float(rng.random()) < p:
                doomed.append(d.device_id)
        if doomed:
            devices.fail(doomed)
            for did in doomed:
                self._count("hazard")
                events.append(
                    MissionEvent(
                        step,
                        "fault",
                        f"hazard: device {did} failed at age "
                        f"{fleet.age_of(did, t1):.2f}y"
                        + (
                            " (batch defect)"
                            if fleet.defective[did]
                            else ""
                        ),
                    )
                )
        self._hazard_prev_failed[id(spec)] = set(devices.failed_ids)
        return events

    def hazard_summary(self) -> dict:
        """Merged heterogeneity facts from all active hazard fleets."""
        out: dict = {}
        for fleet in self._fleets.values():
            for key, value in fleet.summary().items():
                if key == "infant_mortality":
                    out[key] = value
                else:
                    out[key] = out.get(key, 0) + value
        return out
