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

Permanent device failure is not a plan fault: the mission draws it
from its own hazard fleet (:class:`~repro.storage.MissionConfig`,
:mod:`repro.reliability.hazards`).

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

from .._checks import check_count, check_seconds
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
    "CoordinatorCrashes",
    "NodeCrashes",
    "NetworkPartitions",
    "SlowNodes",
    "FaultPlan",
    "FaultInjector",
]


def outage_steps(mean: float, rng: np.random.Generator) -> int:
    """Geometric outage length: mean ``mean`` steps, at least one.

    The discrete analogue of exponential repair times; every transient
    fault process (device, drawer, node, partition, slow node) draws
    its duration here.
    """
    return int(rng.geometric(min(1.0, 1.0 / mean)))


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")


def _check_mean(steps: float, name: str) -> None:
    if not steps >= 1.0:  # a geometric duration's mean; NaN fails too
        raise ValueError(f"{name} must be at least one step, got {steps}")


@dataclass(frozen=True)
class TransientOutages:
    """Per-device transient unavailability with exponential recovery."""

    rate: float = 0.01  # per device-step probability of going dark
    mean_outage_steps: float = 2.0  # mean of the geometric recovery time

    kind = "transient"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        _check_mean(self.mean_outage_steps, "mean_outage_steps")


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
        check_count(self.drawer_size, "drawer_size", 1)
        if self.mode not in ("transient", "fail"):
            raise ValueError("mode must be 'transient' or 'fail'")
        _check_mean(self.mean_outage_steps, "mean_outage_steps")


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
        check_count(self.max_extra_steps, "max_extra_steps")


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
        check_count(self.restart_delay_steps, "restart_delay_steps")


@dataclass(frozen=True)
class NetworkPartitions:
    """A node accepts TCP but never answers, for a geometric duration."""

    rate: float = 0.05  # per node-step probability
    mean_partition_steps: float = 2.0

    kind = "partition"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        _check_mean(self.mean_partition_steps, "mean_partition_steps")


@dataclass(frozen=True)
class SlowNodes:
    """Grey failure: a node answers correctly but delayed."""

    rate: float = 0.05  # per node-step probability
    delay_seconds: float = 0.2
    mean_slow_steps: float = 2.0

    kind = "slow"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        check_seconds(self.delay_seconds, "delay_seconds", zero=True)
        _check_mean(self.mean_slow_steps, "mean_slow_steps")


_SPEC_KINDS = {
    cls.kind: cls
    for cls in (
        TransientOutages,
        DrawerOutages,
        LatentErrors,
        SilentCorruption,
        ReplacementJitter,
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

    def _interrupt(
        self,
        step: int,
        devices,
        ids: Iterable[int],
        steps: int,
    ) -> list[int]:
        hit = []
        for did in ids:
            if devices[did].state in (
                DeviceState.ONLINE,
                DeviceState.STANDBY,
            ):
                devices[did].interrupt()
                self._recovery[did] = step + steps
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
                steps = outage_steps(spec.mean_outage_steps, rng)
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
                steps = outage_steps(spec.mean_outage_steps, rng)
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
