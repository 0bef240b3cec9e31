"""Proactive stripe reliability monitoring (paper §6).

The paper's prototype plan includes "a stripe reliability assurance and
user introspection mechanism to proactively monitor the status of
distributed encoded stripes and reconstruct missing blocks before a
stripe approaches the initial failure point".  The monitor computes,
per stripe, the *margin*: how many further losses the stripe can
certainly absorb (the graph's first failure minus blocks already
missing).  Stripes at or below the repair threshold are queued for
reconstruction, most-endangered first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .._checks import check_count
from ..core.critical import first_failure
from ..core.graph import ErasureGraph
from ..obs.registry import registry
from .archive import TornadoArchive
from .device import TransientUnavailableError

__all__ = [
    "StripeHealth",
    "MonitorReport",
    "StripeMonitor",
    "graph_first_failure",
]


@lru_cache(maxsize=32)
def graph_first_failure(graph: ErasureGraph, limit: int = 6) -> int:
    """Cached first-failure point of a graph (``limit + 1`` if beyond).

    The margin arithmetic shared by :class:`StripeMonitor` and the
    cluster's :class:`~repro.cluster.scheduler.RepairScheduler`.
    """
    ff = first_failure(graph, limit=limit)
    return ff if ff is not None else limit + 1


@dataclass(frozen=True)
class StripeHealth:
    """Health of one stripe of one object."""

    object_name: str
    stripe_index: int
    missing_blocks: tuple[int, ...]
    margin: int  # additional losses certainly tolerated (>= 0)

    @property
    def at_risk(self) -> bool:
        """Within one loss of the worst-case failure boundary."""
        return self.margin <= 1

    @property
    def lost(self) -> bool:
        """Already past the guaranteed-recovery boundary.

        A negative margin does not imply data loss (failures beyond the
        first-failure point are merely *possible*), only that the
        worst-case guarantee is gone.
        """
        return self.margin < 0


@dataclass(frozen=True)
class MonitorReport:
    """Snapshot of archive health."""

    stripes: tuple[StripeHealth, ...]

    @property
    def at_risk(self) -> tuple[StripeHealth, ...]:
        return tuple(s for s in self.stripes if s.at_risk)

    def endangered(self, repair_margin: int) -> tuple[StripeHealth, ...]:
        """Stripes missing blocks with at most ``repair_margin`` left."""
        return tuple(
            s for s in self.stripes
            if s.margin <= repair_margin and s.missing_blocks
        )

    def worst(self) -> StripeHealth | None:
        return min(self.stripes, key=lambda s: s.margin, default=None)

    def describe(self) -> str:
        lines = [f"{len(self.stripes)} stripes monitored"]
        for s in sorted(self.stripes, key=lambda s: s.margin)[:10]:
            lines.append(
                f"  {s.object_name}[{s.stripe_index}]: "
                f"{len(s.missing_blocks)} missing, margin {s.margin}"
            )
        return "\n".join(lines)


class StripeMonitor:
    """Watches an archive and repairs endangered stripes."""

    def __init__(self, archive: TornadoArchive, repair_margin: int = 1):
        self.repair_margin = check_count(repair_margin, "repair_margin")
        self.archive = archive

    def scan(self) -> MonitorReport:
        """Compute the health of every stripe in the archive."""
        ff = graph_first_failure(self.archive.graph)
        healths: list[StripeHealth] = []
        for name in self.archive.objects:
            per_stripe = self.archive.missing_blocks(name)
            for idx, missing in per_stripe.items():
                healths.append(
                    StripeHealth(
                        object_name=name,
                        stripe_index=idx,
                        missing_blocks=tuple(missing),
                        margin=ff - 1 - len(missing),
                    )
                )
        return MonitorReport(stripes=tuple(healths))

    def repair_cycle(
        self, report: MonitorReport | None = None
    ) -> dict[str, int]:
        """Repair every object owning an at-threshold stripe.

        Returns ``object name -> blocks rewritten``.  ``report`` is a
        :meth:`scan` of the archive as it stands now (the cycle scans
        afresh without one).  Objects whose
        stripes are already unrecoverable raise through as
        :class:`~repro.storage.archive.DataLossError` — surfacing loss
        is the monitor's job, not hiding it.  Objects that are merely
        undecodable while devices are transiently unavailable are
        *skipped* (not in the returned dict): the next cycle retries
        them once the devices recover, and the
        ``monitor.skipped_unavailable`` counter records each deferral.
        """
        if report is None:
            report = self.scan()
        endangered = {
            s.object_name for s in report.endangered(self.repair_margin)
        }
        out: dict[str, int] = {}
        for name in sorted(endangered):
            try:
                out[name] = self.archive.repair(name)
            except TransientUnavailableError:
                registry().counter("monitor.skipped_unavailable").inc()
        return out

    def queue_depth(self) -> int:
        """Number of stripes currently queued for repair."""
        return len(self.scan().endangered(self.repair_margin))
