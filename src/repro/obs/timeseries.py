"""Time series over fleet registry snapshots: the run's whole timeline.

The per-process :class:`~repro.obs.registry.MetricsRegistry` is a
point-in-time ledger: counters only ever grow, gauges hold the latest
value, histograms accumulate since process start.  A fleet dashboard
and an SLO engine both need *history* — rates over the last five
minutes, the p99 of reads in the last hour, whether a gauge crossed a
threshold at any point in a window.  :class:`TimeSeriesStore` is that
history: every ``fleet.sample`` record of a run (what
:meth:`~repro.obs.scrape.FleetScraper.scrape_once` returns and a
timeline file holds), with windowed queries derived the only way
cumulative data allows —

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

Every query takes a ``now`` and reads only samples at-or-before it,
so a store loaded from a timeline file by :func:`load_timeline` and
queried at each sample's ``ts`` sees what the live store saw at that
sample.  That is how ``repro obs top --once`` and ``repro obs slo``
replay a run's alerts and fleet view offline.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterator

from .registry import Histogram
from .sink import read_jsonl

__all__ = [
    "TimeSeriesStore",
    "load_timeline",
    "subtract_summary",
    "summary_quantile",
]

_ts = itemgetter("ts")


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
    """Every ``fleet.sample`` record of one run, oldest first.

    A record is ``{"event": "fleet.sample", "index", "ts", "targets",
    "counters", "gauges", "histograms"}``; :meth:`ingest` stamps the
    index.  Samples are spaced by their own timestamps.
    """

    def __init__(self):
        self._samples: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._samples)

    def ingest(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one sample record stamped with its position as
        ``index`` (a record read back from a timeline keeps the index
        it was written with); return the stored record."""
        sample = {"event": "fleet.sample", "index": len(self), **record}
        last = self.latest()
        if last is not None and sample["ts"] < last["ts"]:
            raise ValueError(
                f"sample ts {sample['ts']} precedes newest "
                f"sample ts {last['ts']} (clock went backwards)"
            )
        self._samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # Windowed queries
    # ------------------------------------------------------------------

    def latest(self) -> dict[str, Any] | None:
        return self._samples[-1] if self._samples else None

    def _upto(self, ts: float) -> int:
        """How many samples have ``ts`` at-or-before ``ts``."""
        return bisect_right(self._samples, ts, key=_ts)

    def window(
        self, window: float, now: float | None = None
    ) -> list[dict[str, Any]]:
        """Samples with ``ts`` in ``(now − window, now]``.

        A window narrower than the sample spacing still yields the
        newest sample at-or-before ``now`` — a query can always see
        *something* — and ``now`` defaults to the newest sample's
        timestamp.
        """
        if now is None:
            if not self._samples:
                return []
            now = self._samples[-1]["ts"]
        hi = self._upto(now)
        lo = min(self._upto(now - float(window)), max(0, hi - 1))
        return self._samples[lo:hi]

    def _baseline(
        self, window: float, now: float
    ) -> dict[str, Any] | None:
        """Last sample at-or-before the window start (rate baseline)."""
        i = self._upto(now - float(window))
        return self._samples[i - 1] if i else None

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
            return 0.0
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


def load_timeline(path: Any) -> TimeSeriesStore:
    """Load a persisted timeline JSONL into a store.

    Only ``fleet.sample`` records are consumed; any other events in
    the file (alert transitions, driver notes) are ignored, so the
    same artifact can interleave samples and annotations.
    """
    store = TimeSeriesStore()
    for record in read_jsonl(path):
        if record.get("event") == "fleet.sample":
            store.ingest(record)
    if not len(store):
        raise ValueError(
            f"timeline {str(path)!r} holds no fleet.sample records"
        )
    return store
