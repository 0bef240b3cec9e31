"""Fault-injection campaigns over the full storage stack.

A *campaign* runs an archival mission (:func:`repro.storage.run_mission`)
while a :class:`~repro.resilience.faults.FaultInjector` applies a
composable :class:`~repro.resilience.faults.FaultPlan` — transient
outages, correlated drawer events, latent sector errors, silent
corruption, replacement jitter — and an observer exercises the system
the way clients would:

* periodic **integrity scrubs** catch silent corruption and repair it
  through the erasure code;
* periodic **degraded-read probes** retrieve objects with the retry /
  plan-fallback machinery, counting how often reads had to degrade;
* per-step **repair-queue depth** telemetry records how far behind the
  monitor fell.

Everything is seeded through one RNG stream, so a campaign is
reproducible run-to-run: same seed, same archive contents → identical
event log and identical :class:`CampaignReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.registry import MetricsRegistry, capture, registry
from ..obs.seeding import SeedLike, derive_seed, resolve_rng
from ..obs.trace import trace_span
from ..storage.archive import TornadoArchive
from ..storage.device import TransientUnavailableError
from ..storage.integrity import IntegrityScanner
from ..storage.simulation import (
    MissionConfig,
    MissionEvent,
    MissionReport,
    run_mission,
)
from .faults import FaultInjector, FaultPlan
from .retry import RetryPolicy

__all__ = ["CampaignConfig", "CampaignReport", "run_campaign"]


def _no_sleep(_seconds: float) -> None:
    """Virtual clock: in-sim recovery happens between steps, not in it."""


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one fault-injection campaign."""

    mission: MissionConfig = field(default_factory=MissionConfig)
    scrub_interval: int = 4  # steps between integrity scrubs (0 = off)
    read_interval: int = 4  # steps between degraded-read probes (0 = off)


@dataclass(frozen=True)
class CampaignReport:
    """Outcome and resilience telemetry of one campaign."""

    mission: MissionReport
    plan: FaultPlan
    fault_counts: dict[str, int]
    reads_attempted: int
    degraded_reads: int
    read_retries: int
    transient_read_failures: int
    scrubbed_blocks: int
    repair_queue_depth: tuple[int, ...]

    @property
    def survived(self) -> bool:
        return self.mission.survived

    @property
    def lost_objects(self) -> tuple[str, ...]:
        return self.mission.lost_objects

    @property
    def loss_events(self) -> tuple[MissionEvent, ...]:
        return tuple(
            e for e in self.mission.events if e.kind == "loss"
        )

    @property
    def max_queue_depth(self) -> int:
        return max(self.repair_queue_depth, default=0)

    def describe(self) -> str:
        faults = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.fault_counts.items())
        )
        lines = [
            self.mission.describe(),
            f"faults injected: {faults or 'none'}",
            f"reads: {self.reads_attempted} probes, "
            f"{self.degraded_reads} degraded, "
            f"{self.read_retries} retries, "
            f"{self.transient_read_failures} gave up on outages",
            f"scrub: {self.scrubbed_blocks} corrupt blocks rewritten",
            f"repair queue depth: max {self.max_queue_depth}",
        ]
        return "\n".join(lines)


class _CampaignObserver:
    """Per-step scrub + degraded-read probe + queue-depth telemetry."""

    def __init__(
        self,
        archive: TornadoArchive,
        config: CampaignConfig,
        retry: RetryPolicy,
        repair_margin: int,
    ):
        self.archive = archive
        self.config = config
        self.retry = retry
        self.repair_margin = repair_margin
        self.scanner = IntegrityScanner(archive)
        for name in sorted(archive.objects):
            self.scanner.register(name)
        self.names = sorted(archive.objects)
        self.probe_index = 0
        self.queue_depth: list[int] = []
        self.reads_attempted = 0
        self.degraded_reads = 0
        self.read_retries = 0
        self.transient_read_failures = 0
        self.scrubbed_blocks = 0

    def __call__(self, step, archive, report, repaired):
        events: list[MissionEvent] = []
        self.queue_depth.append(len(report.endangered(self.repair_margin)))
        cfg = self.config
        if cfg.scrub_interval and step % cfg.scrub_interval == 0:
            events.extend(self._scrub(step))
        if cfg.read_interval and step % cfg.read_interval == 0:
            events.extend(self._probe(step))
        return events

    def _scrub(self, step: int) -> list[MissionEvent]:
        events = []
        with trace_span(
            "resilience.scrub", step=step, objects=len(self.names)
        ):
            events.extend(self._scrub_objects(step))
        return events

    def _scrub_objects(self, step: int) -> list[MissionEvent]:
        events = []
        for name in self.names:
            try:
                fixed = self.scanner.scrub(name)
            except TransientUnavailableError as exc:
                registry().counter("resilience.scrub.deferred").inc()
                events.append(
                    MissionEvent(step, "degraded", f"scrub deferred: {exc}")
                )
                continue
            # DataLossError propagates: run_mission records the loss.
            if fixed:
                self.scrubbed_blocks += fixed
                events.append(
                    MissionEvent(
                        step,
                        "scrub",
                        f"{name}: {fixed} corrupt blocks rewritten",
                    )
                )
        return events

    def _probe(self, step: int) -> list[MissionEvent]:
        if not self.names:
            return []
        name = self.names[self.probe_index % len(self.names)]
        self.probe_index += 1
        self.reads_attempted += 1
        events: list[MissionEvent] = []
        outer = registry()
        # Probe under a private registry so exact per-read counters are
        # observable even when metrics are globally disabled; fold the
        # numbers back into any enclosing --metrics run afterwards.
        local = MetricsRegistry()
        try:
            with capture(local), trace_span(
                "resilience.read_probe", step=step, object=name
            ):
                self.archive.get(name, retry=self.retry)
        except TransientUnavailableError as exc:
            self.transient_read_failures += 1
            events.append(
                MissionEvent(step, "degraded", f"read gave up: {exc}")
            )
        finally:
            counters = local.snapshot()["counters"]
            degraded = counters.get(
                "resilience.reads.degraded", 0
            ) + counters.get("resilience.reads.fallbacks", 0)
            if degraded:
                self.degraded_reads += 1
            self.read_retries += counters.get(
                "resilience.reads.retries", 0
            )
            if outer.enabled:
                outer.merge_snapshot(local.snapshot())
        return events


def run_campaign(
    archive: TornadoArchive,
    plan: FaultPlan,
    config: CampaignConfig | None = None,
    seed: SeedLike = 0,
    retry: RetryPolicy | None = None,
) -> CampaignReport:
    """Run one seeded fault-injection campaign over a loaded archive.

    The archive must already hold its objects.  ``seed`` drives the
    whole run (baseline failures, fault draws, backoff jitter), so a
    campaign is reproducible end-to-end.  ``retry`` defaults to a
    two-attempt virtual-clock policy suited to stepped simulation
    (in-step sleeping cannot observe recovery, which lands between
    steps; the monitor's next cycle is the real backoff).
    """
    config = config or CampaignConfig()
    if retry is None:
        retry = RetryPolicy(
            max_attempts=2,
            base_delay=0.0,
            max_delay=0.0,
            jitter=0.0,
            seed=derive_seed(seed) if seed is not None else 0,
            sleep=_no_sleep,
        )
    rng = resolve_rng(seed if seed is not None else 0)
    injector = FaultInjector(plan)
    observer = _CampaignObserver(
        archive, config, retry, config.mission.repair_margin
    )
    reg = registry()
    with reg.timer("resilience.campaign_seconds"), trace_span(
        "resilience.campaign",
        steps=config.mission.num_steps,
        objects=len(archive.objects),
    ) as campaign_span:
        mission = run_mission(
            archive,
            config.mission,
            rng,
            injector=injector,
            observer=observer,
        )
        campaign_span.set_attr("survived", mission.survived)
    reg.counter("resilience.campaigns").inc()
    reg.event(
        "resilience.campaign",
        steps=len(observer.queue_depth),
        survived=mission.survived,
        faults=dict(injector.counts),
        degraded_reads=observer.degraded_reads,
        max_queue_depth=max(observer.queue_depth, default=0),
    )
    return CampaignReport(
        mission=mission,
        plan=plan,
        fault_counts=dict(injector.counts),
        reads_attempted=observer.reads_attempted,
        degraded_reads=observer.degraded_reads,
        read_retries=observer.read_retries,
        transient_read_failures=observer.transient_read_failures,
        scrubbed_blocks=observer.scrubbed_blocks,
        repair_queue_depth=tuple(observer.queue_depth),
    )
