"""Bounded ring-buffer time series over fleet registry snapshots.

The per-process :class:`~repro.obs.registry.MetricsRegistry` is a
point-in-time ledger: counters only ever grow, gauges hold the latest
value, histograms accumulate since process start.  A fleet dashboard
and an SLO engine both need *history* — rates over the last five
minutes, the p99 of reads in the last hour, whether a gauge crossed a
threshold at any point in a window.  :class:`TimeSeriesStore` is that
history: a fixed-size ring of merged fleet snapshots
(:class:`~repro.obs.scrape.FleetScraper` views) with windowed queries
derived the only way cumulative data allows —

* **counters → windowed rates**: the increase between the newest
  sample and the last sample at-or-before the window start, clamped
  at zero so a process restart (counter reset) reads as "no traffic",
  not negative traffic;
* **gauges → last/min/max/avg** over the samples in the window;
* **histograms → windowed quantiles**: cumulative log-bucket summaries
  subtract bucket-wise (buckets are themselves monotone counters), and
  the diffed summary feeds the same
  :meth:`~repro.obs.registry.Histogram.quantile` estimator used
  everywhere else, so a windowed p99 carries the same documented
  ~2.5% relative error bound.

Every ingested sample can also be appended to a JSONL sink as a
``fleet.sample`` record; :func:`load_timeline` replays such a file
back into a store, which is how ``repro obs top --once`` and ``repro
obs slo report`` render identical views offline from a chaos run's
timeline artifact.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Iterable

from .._checks import check_count, check_seconds
from .registry import Histogram
from .sink import read_jsonl

__all__ = [
    "TimeSeriesStore",
    "load_timeline",
    "subtract_summary",
    "summary_quantile",
]


def subtract_summary(
    new: dict[str, Any], old: dict[str, Any] | None
) -> dict[str, Any]:
    """Windowed histogram summary: ``new`` minus an older baseline.

    Both arguments are cumulative :meth:`Histogram.summary` dicts from
    the same process lineage.  Counts and buckets are monotone, so the
    bucket-wise difference is exactly the histogram of observations
    made between the two snapshots.  If the counter went *backwards*
    (the process restarted and its registry reset), the new summary is
    already the since-restart window and is returned as-is.  Range
    bounds (min/max) are not differentiable and are dropped — quantile
    estimates then rest purely on bucket mass.
    """
    new_count = int(new.get("count", 0))
    if old is None or int(old.get("count", 0)) == 0:
        return dict(new)
    old_count = int(old.get("count", 0))
    if new_count < old_count:
        return dict(new)
    count = new_count - old_count
    if count == 0:
        return {"count": 0}
    buckets: dict[str, int] = {}
    old_buckets = old.get("buckets", {}) or {}
    for key, n in (new.get("buckets", {}) or {}).items():
        d = int(n) - int(old_buckets.get(key, 0))
        if d > 0:
            buckets[key] = d
    out: dict[str, Any] = {"count": count, "buckets": buckets}
    for field in ("total", "sq_total"):
        a = float(new.get(field, 0.0))
        b = float(old.get(field, 0.0))
        if math.isfinite(a) and math.isfinite(b):
            out[field] = a - b
    if "total" in out:
        out["mean"] = out["total"] / count
    return out


def summary_quantile(summary: dict[str, Any], q: float) -> float | None:
    """Quantile of a summary dict (None when it holds no mass)."""
    if int(summary.get("count", 0)) == 0:
        return None
    h = Histogram("window")
    h.merge_summary(summary)
    return h.quantile(q)


class TimeSeriesStore:
    """Fixed-retention ring buffer of fleet snapshot samples.

    ``resolution`` is the *nominal* spacing between samples in logical
    seconds (the scraper's injected clock decides actual timestamps);
    ``retention`` bounds how many samples are kept, so memory is
    ``O(retention × fleet metric count)`` regardless of run length.
    """

    def __init__(
        self,
        *,
        resolution: float = 60.0,
        retention: int = 360,
        sink: Any = None,
    ):
        check_seconds(resolution, "resolution")
        check_count(retention, "retention", 2)
        self.resolution = float(resolution)
        self.retention = int(retention)
        self.sink = sink
        self._samples: deque[dict[str, Any]] = deque(maxlen=retention)
        self._ingested = 0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def ingested(self) -> int:
        """Total samples ever ingested (>= len() once the ring wraps)."""
        return self._ingested

    # ------------------------------------------------------------------
    # Ingest + persistence
    # ------------------------------------------------------------------

    def ingest(self, view: dict[str, Any]) -> dict[str, Any]:
        """Append one fleet view (a scraper merge) to the ring."""
        merged = view.get("merged", {})
        sample = {
            "index": self._ingested,
            "ts": float(view.get("ts", 0.0)),
            "targets": dict(view.get("targets", {})),
            "counters": dict(merged.get("counters", {})),
            "gauges": dict(merged.get("gauges", {})),
            "histograms": dict(merged.get("histograms", {})),
        }
        last = self.latest()
        if last is not None and sample["ts"] < last["ts"]:
            raise ValueError(
                f"sample ts {sample['ts']} precedes newest "
                f"sample ts {last['ts']} (clock went backwards)"
            )
        self._samples.append(sample)
        self._ingested += 1
        if self.sink is not None:
            self.sink.emit({"event": "fleet.sample", **sample})
        return sample

    # ------------------------------------------------------------------
    # Windowed queries
    # ------------------------------------------------------------------

    def latest(self) -> dict[str, Any] | None:
        return self._samples[-1] if self._samples else None

    def window(
        self, window: float, now: float | None = None
    ) -> list[dict[str, Any]]:
        """Samples with ``ts`` in ``(now − window, now]``.

        A window narrower than the sampling resolution still yields
        the newest sample — a query can always see *something* — and
        ``now`` defaults to the newest sample's timestamp.
        """
        if not self._samples:
            return []
        if now is None:
            now = self._samples[-1]["ts"]
        lo = now - float(window)
        picked = [
            s for s in self._samples if lo < s["ts"] <= now
        ]
        if not picked:
            newest = max(
                (s for s in self._samples if s["ts"] <= now),
                key=lambda s: s["ts"],
                default=None,
            )
            if newest is not None:
                picked = [newest]
        return picked

    def _baseline(
        self, window: float, now: float
    ) -> dict[str, Any] | None:
        """Last sample at-or-before the window start (rate baseline)."""
        lo = now - float(window)
        base = None
        for s in self._samples:
            if s["ts"] <= lo:
                base = s
            else:
                break
        return base

    def counter_increase(
        self, name: str, window: float, now: float | None = None
    ) -> float:
        """Counter growth across the window, clamped at zero."""
        samples = self.window(window, now)
        if not samples:
            return 0.0
        end = samples[-1]
        base = self._baseline(window, end["ts"])
        start_value = (
            float(base["counters"].get(name, 0))
            if base is not None
            else float(samples[0]["counters"].get(name, 0))
        )
        end_value = float(end["counters"].get(name, 0))
        return max(0.0, end_value - start_value)

    def counter_rate(
        self, name: str, window: float, now: float | None = None
    ) -> float:
        """Windowed counter rate in units per (logical) second."""
        samples = self.window(window, now)
        if not samples:
            return 0.0
        end = samples[-1]
        base = self._baseline(window, end["ts"])
        first = base if base is not None else samples[0]
        elapsed = end["ts"] - first["ts"]
        if elapsed <= 0:
            elapsed = self.resolution
        return self.counter_increase(name, window, now) / elapsed

    def gauge_stats(
        self, name: str, window: float, now: float | None = None
    ) -> dict[str, float] | None:
        """last/min/max/avg of a gauge over the window (None if unset)."""
        values = [
            float(s["gauges"][name])
            for s in self.window(window, now)
            if name in s["gauges"]
        ]
        if not values:
            return None
        return {
            "last": values[-1],
            "min": min(values),
            "max": max(values),
            "avg": sum(values) / len(values),
        }

    def histogram_window(
        self, name: str, window: float, now: float | None = None
    ) -> dict[str, Any] | None:
        """Diffed (windowed) summary of a cumulative histogram."""
        samples = self.window(window, now)
        if not samples:
            return None
        end = samples[-1]["histograms"].get(name)
        if end is None:
            return None
        base = self._baseline(window, samples[-1]["ts"])
        old = base["histograms"].get(name) if base is not None else None
        return subtract_summary(end, old)

    def histogram_quantile(
        self,
        name: str,
        q: float,
        window: float,
        now: float | None = None,
    ) -> float | None:
        summary = self.histogram_window(name, window, now)
        if summary is None:
            return None
        return summary_quantile(summary, q)

    def violation_fraction(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        window: float,
        now: float | None = None,
    ) -> float:
        """Fraction of windowed samples for which ``predicate`` holds."""
        samples = self.window(window, now)
        if not samples:
            return 0.0
        bad = sum(1 for s in samples if predicate(s))
        return bad / len(samples)


def load_timeline(
    path: Any,
    *,
    resolution: float = 60.0,
    retention: int = 100_000,
) -> TimeSeriesStore:
    """Replay a persisted timeline JSONL back into a store.

    Only ``fleet.sample`` records are consumed; any other events in
    the file (alert transitions, driver notes) are ignored, so the
    same artifact can interleave samples and annotations.
    """
    store = TimeSeriesStore(resolution=resolution, retention=retention)
    samples: Iterable[dict[str, Any]] = (
        record
        for record in read_jsonl(path)
        if record.get("event") == "fleet.sample"
    )
    count = 0
    for record in samples:
        store.ingest(
            {
                "ts": record.get("ts", 0.0),
                "targets": record.get("targets", {}),
                "merged": {
                    "counters": record.get("counters", {}),
                    "gauges": record.get("gauges", {}),
                    "histograms": record.get("histograms", {}),
                },
            }
        )
        count += 1
    if count == 0:
        raise ValueError(
            f"timeline {str(path)!r} holds no fleet.sample records"
        )
    return store
