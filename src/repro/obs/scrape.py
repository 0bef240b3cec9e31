"""Fleet scraping: merge per-process registry snapshots into one view.

PR 6/7/8 split the archive across processes — a coordinator, N storage
nodes, federation gateways — each with its own
:class:`~repro.obs.registry.MetricsRegistry`.  The
:class:`FleetScraper` polls every process over the same versioned
line-JSON protocol the data plane uses (``metrics.snapshot``: the
structured snapshot rather than rendered Prometheus text, one op on
every tier) and folds the results into a single fleet view:

* **counters** sum across targets (names are already role-disjoint:
  ``cluster.*`` from coordinators, ``node.*`` from storage nodes,
  ``sites.*`` from gateways; per-node byte counters carry their node
  id in the name and pass through untouched);
* **histograms** merge bucket-wise via
  :meth:`~repro.obs.registry.Histogram.merge_summary` — lossless, so
  a fleet-wide p99 is as trustworthy as a single process's;
* **gauges** keep their plain name while a role has one target and
  are suffixed ``.<target_id>`` when several targets share a role
  (three storage nodes each report ``node.blocks``; the view holds
  ``node.blocks.node-0`` …), plus synthesized fleet rollups
  (``fleet.targets.down``, ``fleet.repair.margin_min`` as the min
  across coordinators, ``up.<target_id>`` per target).

Failure is a first-class outcome: each target gets its own connect +
read timeout, and a target that refuses, times out, or errors is
marked ``up: false`` with its error string while its *last good
snapshot* keeps feeding the merge — a dark node degrades the view
(staleness age visible per target) instead of wedging the scrape or
making fleet counters jump backwards.

Time is injectable.  Drivers pass a :class:`LogicalClock` they advance
explicitly between scrapes, so a chaos campaign's alert timeline is a
pure function of the seeded workload — reproducible run to run —
while live dashboards just use the wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .registry import Histogram

if False:  # pragma: no cover — typing only; repro.obs must not
    # import repro.serve at module load (obs is the bottom layer of
    # the package graph; serve/cluster/sites all import obs).
    from ..serve.protocol import MetricsSnapshotResponse

__all__ = ["FleetScraper", "LogicalClock", "ScrapeTarget"]

# Gauges rolled up across coordinators regardless of suffixing, so an
# SLO objective can reference one stable name in both single-cluster and
# federated deployments.
_MIN_ROLLUPS = {
    "fleet.repair.margin_min": "cluster.repair.margin_min",
}
_SUM_ROLLUPS = {
    "fleet.at_risk_stripes": "cluster.repair.at_risk_stripes",
    "fleet.repair.queue_depth": "cluster.repair.queue_depth",
    "fleet.objects": "cluster.objects",
    "fleet.stripes": "cluster.stripes",
}


@dataclass(frozen=True)
class ScrapeTarget:
    """One scrapeable process: who it is and where it listens."""

    role: str
    target_id: str
    host: str
    port: int

    _ROLES = ("coordinator", "gateway", "node")

    def __post_init__(self) -> None:
        if self.role not in self._ROLES:
            raise ValueError(
                f"unknown scrape role {self.role!r}; expected one of "
                f"{list(self._ROLES)}"
            )
        if not self.target_id:
            raise ValueError("target_id must be non-empty")


class LogicalClock:
    """An injectable clock: advances only when told to.

    Calling the instance returns the current logical time.  Drivers
    advance it by the scrape interval between samples, making every
    windowed rate and burn-rate computation deterministic.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("clocks only move forward")
        self.now += float(seconds)
        return self.now

    def __call__(self) -> float:
        return self.now


class FleetScraper:
    """Poll every fleet process and merge snapshots into one view."""

    def __init__(
        self,
        targets: list[ScrapeTarget] | tuple[ScrapeTarget, ...],
        *,
        timeout: float = 2.0,
        clock: Callable[[], float] | None = None,
        fetch: (
            Callable[[ScrapeTarget], MetricsSnapshotResponse] | None
        ) = None,
    ):
        targets = tuple(targets)
        if not targets:
            raise ValueError("a scraper needs at least one target")
        ids = [t.target_id for t in targets]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate target ids: {sorted(ids)}")
        self.targets = targets
        self.timeout = float(timeout)
        self.clock = clock if clock is not None else time.time
        self._fetch = fetch if fetch is not None else self._fetch_rpc
        role_counts: dict[str, int] = {}
        for t in targets:
            role_counts[t.role] = role_counts.get(t.role, 0) + 1
        self._suffix_roles = {
            role for role, n in role_counts.items() if n > 1
        }
        self._last_good: dict[str, dict[str, Any]] = {}
        self._last_good_ts: dict[str, float] = {}
        self.failures: dict[str, int] = {t.target_id: 0 for t in targets}
        self.scrapes = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _fetch_rpc(self, target: ScrapeTarget):
        """One short-lived connection per scrape; no retries.

        A scrape is a liveness probe as much as a data pull: retrying
        a dead node would just smear the failure across the timeout
        budget, and the next interval re-probes anyway.
        """
        from ..serve.client import ArchiveClient

        with ArchiveClient(
            target.host, target.port, timeout=self.timeout
        ) as client:
            return client.metrics_snapshot()

    # ------------------------------------------------------------------
    # The scrape pass
    # ------------------------------------------------------------------

    def scrape_once(self) -> dict[str, Any]:
        """Poll every target once; return the merged ``fleet.sample``.

        The record is what a :class:`~repro.obs.timeseries.TimeSeriesStore`
        ingests and a timeline persists: ``ts``, per-target ``targets``
        status, and the merged ``counters``, ``gauges`` and
        ``histograms``.  The store stamps its ``index``.
        """
        now = float(self.clock())
        statuses: dict[str, dict[str, Any]] = {}
        snapshots: dict[str, dict[str, Any]] = {}
        for target in self.targets:
            tid = target.target_id
            status: dict[str, Any] = {
                "role": target.role,
                "host": target.host,
                "port": target.port,
                "up": False,
                "stale": False,
                "age": None,
                "error": None,
            }
            try:
                response = self._fetch(target)
            except Exception as exc:  # noqa: BLE001 — any failure =
                # target down; the view must never wedge on one node.
                self.failures[tid] += 1
                status["error"] = f"{type(exc).__name__}: {exc}"
                if tid in self._last_good:
                    status["stale"] = True
                    status["age"] = now - self._last_good_ts[tid]
                    snapshots[tid] = self._last_good[tid]
            else:
                snapshot = response.snapshot or {}
                status["up"] = True
                status["age"] = 0.0
                self._last_good[tid] = snapshot
                self._last_good_ts[tid] = now
                snapshots[tid] = snapshot
            statuses[tid] = status
        self.scrapes += 1
        return {
            "event": "fleet.sample",
            "ts": now,
            "targets": statuses,
            **self._merge(snapshots, statuses),
        }

    def _merge(
        self,
        snapshots: dict[str, dict[str, Any]],
        statuses: dict[str, dict[str, Any]],
    ) -> dict[str, Any]:
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Histogram] = {}
        raw_gauges: dict[str, dict[str, float]] = {}
        for target in self.targets:
            tid = target.target_id
            snap = snapshots.get(tid)
            if snap is None:
                continue
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            suffix = target.role in self._suffix_roles
            for name, value in snap.get("gauges", {}).items():
                raw_gauges.setdefault(name, {})[tid] = float(value)
                key = f"{name}.{tid}" if suffix else name
                gauges[key] = float(value)
            for name, summary in snap.get("histograms", {}).items():
                histograms.setdefault(
                    name, Histogram(name)
                ).merge_summary(summary)
        up = sum(1 for s in statuses.values() if s["up"])
        gauges["fleet.targets.total"] = float(len(self.targets))
        gauges["fleet.targets.up"] = float(up)
        gauges["fleet.targets.down"] = float(len(self.targets) - up)
        for tid, status in statuses.items():
            gauges[f"up.{tid}"] = 1.0 if status["up"] else 0.0
        for fleet_name, source in _MIN_ROLLUPS.items():
            values = raw_gauges.get(source)
            if values:
                gauges[fleet_name] = min(values.values())
        for fleet_name, source in _SUM_ROLLUPS.items():
            values = raw_gauges.get(source)
            if values:
                gauges[fleet_name] = sum(values.values())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: h.summary() for name, h in histograms.items()
            },
        }
