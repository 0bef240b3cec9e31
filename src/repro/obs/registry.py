"""Metrics registry: counters, gauges, histograms, timers, events.

The simulator's headline cost is compute (the paper burned 21 CPU-hours
per worst-case search and 34 CPU-days per Monte Carlo suite), so the
hot paths are instrumented with a tiny dependency-free metrics layer.
Two design constraints shape it:

* **Negligible disabled-path overhead.**  When no registry is active,
  :func:`registry` returns a process-wide :class:`NullRegistry` whose
  metrics are shared no-op singletons — an instrumented call site costs
  two attribute lookups and an empty method call, with no allocation,
  no locking, and no clock reads (``registry().enabled`` guards any
  ``perf_counter`` call).
* **No global mutable state leaking between runs.**  A registry is an
  ordinary object; :func:`enable`/:func:`disable` (or the
  :func:`capture` context manager) install one as the process-wide
  active registry for the duration of a run.

Metric names are dotted paths (``decoder.rounds``,
``cache.hits``); the registry creates metrics on first use so
instrumentation sites never need set-up code.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "BUCKET_GAMMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "bucket_midpoint",
    "bucket_upper_bound",
    "capture",
    "disable",
    "enable",
    "metrics_enabled",
    "registry",
]


@dataclass
class Counter:
    """Monotonically increasing count.

    Metrics handed out by a :class:`MetricsRegistry` share the
    registry's lock so concurrent writers (the serve loop, pool-worker
    merge paths, instrumented library threads) never lose updates; a
    standalone metric constructed without a lock stays lock-free.
    """

    name: str
    value: int = 0
    _lock: threading.RLock | None = field(
        default=None, repr=False, compare=False
    )

    def inc(self, n: int = 1) -> None:
        lock = self._lock
        if lock is None:
            self.value += n
        else:
            with lock:
                self.value += n


@dataclass
class Gauge:
    """Last-written value (worker counts, queue depths, ...)."""

    name: str
    value: float = 0.0
    _lock: threading.RLock | None = field(
        default=None, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        lock = self._lock
        if lock is None:
            self.value += n
        else:
            with lock:
                self.value += n


# Log-spaced quantile buckets.  Bucket ``i`` covers
# (GAMMA**(i-1), GAMMA**i]; reporting the geometric midpoint bounds the
# relative quantile error by sqrt(GAMMA) - 1 (~2.5% at GAMMA = 1.05).
# Keys are strings so bucket maps survive JSON round-trips unchanged:
# "i" for positive values, "n<i>" for negative values, "z" for zero.
BUCKET_GAMMA = 1.05
_LOG_GAMMA = math.log(BUCKET_GAMMA)


def _bucket_key(v: float) -> str | None:
    """Sparse log-bucket key for a finite value (None = unbucketable)."""
    if not math.isfinite(v):
        return None
    if v > 0:
        return str(math.ceil(math.log(v) / _LOG_GAMMA))
    if v == 0:
        return "z"
    return "n" + str(math.ceil(math.log(-v) / _LOG_GAMMA))


def bucket_midpoint(key: str) -> float:
    """Representative value of a bucket (geometric midpoint)."""
    if key == "z":
        return 0.0
    if key.startswith("n"):
        return -math.exp((int(key[1:]) - 0.5) * _LOG_GAMMA)
    return math.exp((int(key) - 0.5) * _LOG_GAMMA)


def bucket_upper_bound(key: str) -> float:
    """Inclusive upper bound of a bucket (Prometheus ``le`` value)."""
    if key == "z":
        return 0.0
    if key.startswith("n"):
        return -math.exp((int(key[1:]) - 1) * _LOG_GAMMA)
    return math.exp(int(key) * _LOG_GAMMA)


@dataclass
class Histogram:
    """Streaming summary of observed values (no stored samples).

    Tracks count/sum/min/max plus the sum of squares (mean and standard
    deviation without keeping observations — important for
    million-sample runs) and a sparse log-spaced bucket map giving
    quantiles (p50/p90/p99) within ~2.5% relative error.  Buckets merge
    bucket-wise across process boundaries, so worker→parent
    :meth:`merge_summary` folds are lossless.
    """

    name: str
    count: int = 0
    total: float = 0.0
    sq_total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[str, int] = field(default_factory=dict)
    _lock: threading.RLock | None = field(
        default=None, repr=False, compare=False
    )

    def observe(self, value: float) -> None:
        lock = self._lock
        if lock is None:
            self._observe(value)
        else:
            with lock:
                self._observe(value)

    def _observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.sq_total += v * v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        key = _bucket_key(v)
        if key is not None:
            b = self.buckets
            b[key] = b.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sq_total / self.count - self.mean**2
        return math.sqrt(max(0.0, var))

    def quantile(self, q: float) -> float:
        """Bucket-estimated q-quantile, clamped to the observed range.

        Accurate to ~2.5% relative error (see ``BUCKET_GAMMA``).  Falls
        back to the mean when no bucketed mass exists (e.g. a histogram
        built purely from pre-bucket legacy summaries).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        bucketed = sum(self.buckets.values())
        if bucketed == 0:
            return self.mean
        target = q * bucketed
        cum = 0
        value = 0.0
        for value, n in sorted(
            (bucket_midpoint(k), n) for k, n in self.buckets.items()
        ):
            cum += n
            if cum >= target:
                break
        lo = self.min if math.isfinite(self.min) else value
        hi = self.max if math.isfinite(self.max) else value
        return min(max(value, lo), hi)

    def summary(self) -> dict[str, Any]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "sq_total": self.sq_total,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": dict(self.buckets),
        }

    def merge_summary(self, summary: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`summary` into this one.

        Used to merge worker-process metrics back into the parent
        registry.  Buckets merge bucket-wise (lossless, so quantiles
        survive the round trip); ``sq_total`` is taken verbatim when
        present and reconstructed from mean/stddev for legacy
        summaries.  Non-finite moments or bounds in a summary (hand
        built, or damaged in serialisation) are skipped rather than
        poisoning this histogram.
        """
        count = int(summary.get("count", 0))
        if count == 0:
            return
        lock = self._lock
        if lock is None:
            self._merge(count, summary)
        else:
            with lock:
                self._merge(count, summary)

    def _merge(self, count: int, summary: dict[str, Any]) -> None:
        self.count += count
        total = float(summary.get("total", 0.0))
        if math.isfinite(total):
            self.total += total
        sq = summary.get("sq_total")
        if sq is None:
            mean = float(summary.get("mean", 0.0))
            stddev = float(summary.get("stddev", 0.0))
            if not math.isfinite(mean):
                mean = 0.0
            if not math.isfinite(stddev):
                stddev = 0.0
            sq = (stddev * stddev + mean * mean) * count
        if math.isfinite(float(sq)):
            self.sq_total += float(sq)
        mn = float(summary.get("min", math.inf))
        if math.isfinite(mn) and mn < self.min:
            self.min = mn
        mx = float(summary.get("max", -math.inf))
        if math.isfinite(mx) and mx > self.max:
            self.max = mx
        b = self.buckets
        for key, n in summary.get("buckets", {}).items():
            b[key] = b.get(key, 0) + int(n)


class _NullMetric:
    """Shared no-op stand-in for every metric type when disabled."""

    __slots__ = ()

    value = 0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, int]:
        return {"count": 0}


_NULL_METRIC = _NullMetric()


@contextmanager
def _null_span() -> Iterator[None]:
    yield None


class NullRegistry:
    """Disabled-path registry: every operation is a no-op."""

    enabled = False

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def event(self, kind: str, **fields: Any) -> None:
        pass

    def timer(self, name: str):
        return _null_span()

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        pass


class MetricsRegistry:
    """Active metrics store with create-on-first-use semantics.

    Safe for concurrent writers: every metric the registry hands out
    shares one re-entrant lock, so increments and histogram
    observations from multiple threads (the serve dispatch loop, pool
    worker-merge paths, instrumented simulation threads) are never
    lost, and :meth:`snapshot` sees a consistent view.  The fast path
    is one uncontended lock acquisition per update.

    Parameters
    ----------
    sink:
        Optional event sink (anything with an ``emit(dict)`` method,
        e.g. :class:`repro.obs.sink.JsonlSink`).  Without a sink,
        events accumulate in :attr:`events` for in-process inspection.
    """

    enabled = True

    def __init__(self, sink: Any | None = None):
        self.sink = sink
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: list[dict[str, Any]] = []
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Metric accessors
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.get(name)
                if c is None:
                    c = self.counters[name] = Counter(name, _lock=self._lock)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.get(name)
                if g is None:
                    g = self.gauges[name] = Gauge(name, _lock=self._lock)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.get(name)
                if h is None:
                    h = self.histograms[name] = Histogram(
                        name, _lock=self._lock
                    )
        return h

    # ------------------------------------------------------------------
    # Events and timing
    # ------------------------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Record a structured event (JSONL line if a sink is attached)."""
        record = {"event": kind, "ts": time.time(), **fields}
        with self._lock:
            if self.sink is not None:
                self.sink.emit(record)
            else:
                self.events.append(record)

    @contextmanager
    def timer(self, name: str) -> Iterator[Histogram]:
        """Time a block into histogram ``name`` (seconds).

        Timers nest freely: each context manager owns its own start
        time, so an inner timer never perturbs the outer one.
        """
        hist = self.histogram(name)
        t0 = time.perf_counter()
        try:
            yield hist
        finally:
            hist.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable, internally consistent view of every metric."""
        with self._lock:
            return {
                "counters": {
                    n: c.value for n, c in sorted(self.counters.items())
                },
                "gauges": {
                    n: g.value for n, g in sorted(self.gauges.items())
                },
                "histograms": {
                    n: h.summary() for n, h in sorted(self.histograms.items())
                },
            }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add, histograms merge their streaming summaries;
        gauges are skipped (a worker's last-written value has no
        meaning in the parent).  This is how ``profile_graph`` merges
        ``decoder.*`` counters from pool workers and how campaign
        probes report into an enclosing ``--metrics`` run.
        """
        with self._lock:  # one atomic merge, not N independent updates
            for name, value in snapshot.get("counters", {}).items():
                self.counter(name).inc(int(value))
            for name, summary in snapshot.get("histograms", {}).items():
                self.histogram(name).merge_summary(summary)


@dataclass
class _State:
    active: MetricsRegistry | None = field(default=None)


_STATE = _State()
_NULL_REGISTRY = NullRegistry()


def registry() -> MetricsRegistry | NullRegistry:
    """The active registry, or the shared no-op registry when disabled."""
    active = _STATE.active
    return active if active is not None else _NULL_REGISTRY


def metrics_enabled() -> bool:
    return _STATE.active is not None


def enable(reg: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``reg`` (or a fresh registry) as the active registry."""
    if reg is None:
        reg = MetricsRegistry()
    _STATE.active = reg
    return reg


def disable() -> None:
    """Deactivate metrics collection (instrumented code becomes no-op)."""
    _STATE.active = None


@contextmanager
def capture(
    reg: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Scoped metrics collection; restores the previous registry on exit."""
    previous = _STATE.active
    active = enable(reg)
    try:
        yield active
    finally:
        _STATE.active = previous
