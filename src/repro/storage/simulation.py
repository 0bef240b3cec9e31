"""End-to-end archival mission simulation (the paper's §6 prototype).

Ties the whole storage stack together: an archive of objects on a
device array, devices failing stochastically over time, replacements
arriving after a procurement lag, and the proactive stripe monitor
reconstructing missing blocks before stripes approach the first-failure
boundary — "reconstruct missing blocks before a stripe approaches the
initial failure point".

The simulation is time-stepped (default weekly): each step advances
pending replacements, draws device failures from the mission's hazard
fleet (:mod:`repro.reliability.hazards`; by default the memoryless
binomial model at the configured AFR), runs a monitor repair cycle,
and records stripe-margin telemetry.  The output answers the
operational question Table 5 cannot: how close did the archive come to
loss *with* repair in the loop?
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..obs.seeding import SeedLike, resolve_rng
from ..reliability.hazards import (
    BathtubHazard,
    FleetHazards,
    WeibullHazard,
    calibrated_scale,
)
from .archive import DataLossError, TornadoArchive
from .monitor import StripeMonitor

__all__ = ["MissionConfig", "MissionEvent", "MissionReport", "run_mission"]

# The bathtub curve's infant arm: front-loaded (shape 0.5), with 10% of
# fresh units failing in their first year.
_BATHTUB_INFANT = WeibullHazard.from_afr(0.10, shape=0.5)


@dataclass(frozen=True)
class MissionConfig:
    """Operational parameters of an archival mission.

    Devices fail through one :class:`~repro.reliability.FleetHazards`
    process on the mission's own ``afr`` and ``steps_per_year``.  The
    default curve (Weibull, shape 1, scale calibrated from ``afr``) is
    the paper's memoryless binomial model.  ``hazard="bathtub"`` adds a
    front-loaded infant arm; ``hazard_shape`` > 1 ages devices toward
    wear-out; ``hazard_scale`` > 0 pins the characteristic life in
    years instead of calibrating it.  ``infant_mortality`` is the
    probability a replacement is an infant-mortality unit, and
    ``batch_defect_rate`` the fraction of devices in defective lots.
    """

    years: float = 5.0
    steps_per_year: int = 52  # weekly steps
    afr: float = 0.01  # annual device failure probability, in [0, 1)
    replacement_lag_steps: int = 2  # procurement + rebuild delay
    repair_margin: int = 2  # monitor threshold
    hazard: str = "weibull"  # "weibull" or "bathtub"
    hazard_shape: float = 1.0
    hazard_scale: float = 0.0  # years; 0 calibrates from afr
    infant_mortality: float = 0.0
    batch_defect_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.afr < 1.0:
            raise ValueError("afr must lie in [0, 1)")
        if self.hazard not in ("weibull", "bathtub"):
            raise ValueError("hazard must be 'weibull' or 'bathtub'")
        # The curve and fleet constructors check the other hazard
        # fields; build a throwaway fleet so a bad value fails here.
        self.fleet(1, np.random.default_rng(0))

    @property
    def num_steps(self) -> int:
        return int(round(self.years * self.steps_per_year))

    def fleet(
        self, num_devices: int, rng: np.random.Generator
    ) -> FleetHazards:
        """The mission's device-failure process over ``num_devices``.

        Batch placement and infant verdicts draw from ``rng`` (the
        mission stream), and only when ``batch_defect_rate`` /
        ``infant_mortality`` are non-zero.
        """
        if self.hazard_scale:
            scale = self.hazard_scale
        elif self.afr > 0:
            scale = calibrated_scale(self.afr, self.hazard_shape)
        else:
            scale = math.inf  # afr 0: no device ever fails
        curve = WeibullHazard(self.hazard_shape, scale)
        if self.hazard == "bathtub":
            curve = BathtubHazard(infant=_BATHTUB_INFANT, wearout=curve)
        return FleetHazards(
            num_devices,
            curve,
            infant_mortality=self.infant_mortality,
            batch_defect_rate=self.batch_defect_rate,
            seed=rng,
        )


@dataclass(frozen=True)
class MissionEvent:
    """One notable occurrence in the mission log.

    Baseline missions emit "failure" | "replacement" | "repair" |
    "loss"; fault-injection campaigns (:mod:`repro.resilience`) add
    "fault" | "recovery" | "degraded" | "scrub".
    """

    step: int
    kind: str
    detail: str


@dataclass(frozen=True)
class MissionReport:
    """Outcome and telemetry of one simulated mission."""

    config: MissionConfig
    events: tuple[MissionEvent, ...]
    min_margin: int
    blocks_repaired: int
    device_failures: int
    lost_objects: tuple[str, ...]

    @property
    def survived(self) -> bool:
        return not self.lost_objects

    def describe(self) -> str:
        cfg = self.config
        curve = ""
        if (cfg.hazard, cfg.hazard_shape) != ("weibull", 1.0):
            curve = f" ({cfg.hazard} hazard, shape {cfg.hazard_shape:g})"
        lines = [
            f"mission: {cfg.years:g} years, AFR {cfg.afr:.1%}{curve}, "
            f"{self.device_failures} device failures, "
            f"{self.blocks_repaired} blocks repaired",
            f"minimum stripe margin reached: {self.min_margin}",
            (
                "outcome: all objects intact"
                if self.survived
                else f"outcome: DATA LOSS ({', '.join(self.lost_objects)})"
            ),
        ]
        return "\n".join(lines)


def run_mission(
    archive: TornadoArchive,
    config: MissionConfig,
    rng: SeedLike = None,
    *,
    injector=None,
    observer=None,
) -> MissionReport:
    """Simulate one archival mission over the given archive.

    The archive should already hold its objects.  Device failures come
    from ``config.fleet``: one uniform per available device per step,
    in id order.  Failed devices come back (empty, age 0) after the
    replacement lag and the monitor rewrites their blocks.

    ``injector`` (see :class:`repro.resilience.FaultInjector`) is called
    each step after the hazard draws to apply plan-driven
    faults — transient outages, correlated drawer events, latent errors,
    corruption — and to jitter replacement lags
    (``injector.replacement_extra``).  Any device it leaves FAILED
    enters the normal replacement pipeline.

    ``observer(step, archive, report, repaired)`` runs at the end of
    every step with the monitor's scan report and the repair results;
    it may return extra :class:`MissionEvent` records, and may raise
    :class:`DataLossError` to record a loss and end the mission (the
    campaign engine uses this for scrub-detected unrecoverable
    corruption).
    """
    rng = resolve_rng(rng if rng is not None else 0)
    devices = archive.devices
    fleet = config.fleet(len(devices), rng)
    monitor = StripeMonitor(archive, repair_margin=config.repair_margin)
    events: list[MissionEvent] = []
    pending: dict[int, int] = {}  # device id -> step it returns
    min_margin = 1 << 30
    blocks_repaired = 0
    device_failures = 0
    lost: list[str] = []

    for step in range(config.num_steps):
        t0 = step / config.steps_per_year
        t1 = (step + 1) / config.steps_per_year
        # 1. replacements enter service
        ready = [d for d, due in pending.items() if due <= step]
        for d in ready:
            devices[d].rebuild()
            del pending[d]
            infant = fleet.replace(d, t0)
            events.append(
                MissionEvent(
                    step,
                    "replacement",
                    f"device {d} rebuilt"
                    + (" (infant-mortality unit)" if infant else ""),
                )
            )

        # 2. hazard failures, then plan-driven faults
        alive = [d.device_id for d in devices.devices if d.available]
        failed = fleet.failures(t0, t1, alive, rng)
        devices.fail(failed)
        for d in failed:
            events.append(
                MissionEvent(step, "failure", f"device {d} failed")
            )
        if injector is not None:
            events.extend(injector.inject(step, archive, rng))

        # 2b. every failed device not yet pending gets a replacement
        # scheduled (covers both hazard and injector-driven faults)
        for d in devices.failed_ids:
            if d not in pending:
                device_failures += 1
                lag = config.replacement_lag_steps
                if injector is not None:
                    lag += injector.replacement_extra(rng)
                pending[d] = step + lag

        # 3. monitor scan + proactive repair
        report = monitor.scan()
        worst = report.worst()
        if worst is not None:
            min_margin = min(min_margin, worst.margin)
        try:
            repaired = monitor.repair_cycle(report)
        except DataLossError as exc:
            lost.append(exc.object_name)
            events.append(
                MissionEvent(step, "loss", str(exc))
            )
            break
        for name, count in repaired.items():
            if count:
                blocks_repaired += count
                events.append(
                    MissionEvent(
                        step, "repair", f"{name}: {count} blocks rewritten"
                    )
                )

        # 4. campaign observer: scrubbing, degraded-read probes, ...
        if observer is not None:
            try:
                extra = observer(step, archive, report, repaired)
            except DataLossError as exc:
                lost.append(exc.object_name)
                events.append(MissionEvent(step, "loss", str(exc)))
                break
            if extra:
                events.extend(extra)

    return MissionReport(
        config=config,
        events=tuple(events),
        min_margin=min_margin if min_margin != 1 << 30 else 0,
        blocks_repaired=blocks_repaired,
        device_failures=device_failures,
        lost_objects=tuple(lost),
    )
