"""Unit tests for the metrics registry (counters, timers, events)."""

import math
import threading
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    capture,
    disable,
    enable,
    metrics_enabled,
    registry,
)
from repro.obs.registry import NullRegistry


@pytest.fixture(autouse=True)
def _clean_state():
    disable()
    yield
    disable()


class TestCounters:
    def test_inc_and_default(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5
        assert reg.counter("b").value == 0

    def test_same_object_on_reuse(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestGauges:
    def test_set_and_inc(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(8)
        assert reg.gauge("workers").value == 8.0
        reg.gauge("workers").inc(2)
        assert reg.gauge("workers").value == 10.0


class TestHistograms:
    def test_streaming_moments(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.stddev == pytest.approx(1.118, abs=1e-3)

    def test_empty_summary(self):
        assert MetricsRegistry().histogram("e").summary() == {"count": 0}

    def test_summary_fields(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        s = reg.histogram("h").summary()
        assert s["count"] == 1 and s["mean"] == 2.0


class TestTimers:
    def test_timer_records_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("op"):
            time.sleep(0.01)
        h = reg.histogram("op")
        assert h.count == 1
        assert h.total >= 0.01

    def test_timer_nesting_is_independent(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            with reg.timer("inner"):
                time.sleep(0.01)
            with reg.timer("inner"):
                pass
        outer, inner = reg.histogram("outer"), reg.histogram("inner")
        assert outer.count == 1
        assert inner.count == 2
        # the outer span covers both inner spans
        assert outer.total >= inner.total

    def test_timer_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            with reg.timer("op"):
                raise ValueError("boom")
        assert reg.histogram("op").count == 1


class TestSpansAndEvents:
    def test_events_buffer_without_sink(self):
        reg = MetricsRegistry()
        reg.event("thing", value=3)
        assert reg.events[0]["value"] == 3
        assert "ts" in reg.events[0]


class TestGlobalState:
    def test_disabled_by_default(self):
        assert not metrics_enabled()
        assert isinstance(registry(), NullRegistry)

    def test_null_registry_is_noop(self):
        reg = registry()
        reg.counter("x").inc(5)
        reg.gauge("y").set(1)
        reg.histogram("z").observe(2)
        reg.event("e", a=1)
        with reg.timer("t"):
            pass
        assert reg.counter("x").value == 0
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enable_disable(self):
        reg = enable()
        assert metrics_enabled()
        assert registry() is reg
        disable()
        assert not metrics_enabled()

    def test_capture_restores_previous(self):
        outer = enable()
        with capture() as inner:
            assert registry() is inner
            inner.counter("n").inc()
        assert registry() is outer
        assert outer.counter("n").value == 0

    def test_snapshot_shape(self):
        with capture() as reg:
            reg.counter("c").inc(2)
            reg.gauge("g").set(1.5)
            reg.histogram("h").observe(3.0)
            snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1


class TestConcurrency:
    """The serve loop and worker-merge paths write from many threads;
    no update may be lost and snapshots must stay consistent."""

    def _hammer(self, fn, n_threads=8):
        threads = [
            threading.Thread(target=fn, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_are_not_lost(self):
        reg = MetricsRegistry()
        per_thread = 5000

        def work(_tid):
            c = reg.counter("hot")
            for _ in range(per_thread):
                c.inc()

        self._hammer(work)
        assert reg.counter("hot").value == 8 * per_thread

    def test_histogram_observations_are_not_lost(self):
        reg = MetricsRegistry()
        per_thread = 2000

        def work(tid):
            h = reg.histogram("lat")
            for i in range(per_thread):
                h.observe(float(tid * per_thread + i))

        self._hammer(work)
        h = reg.histogram("lat")
        total_n = 8 * per_thread
        assert h.count == total_n
        assert h.total == sum(range(total_n))
        assert h.min == 0.0
        assert h.max == float(total_n - 1)

    def test_create_on_first_use_races_yield_one_metric(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def work(_tid):
            barrier.wait()
            for i in range(200):
                c = reg.counter(f"metric-{i}")
                c.inc()
                seen.append(c)

        self._hammer(work)
        # Every thread's counter object for a given name is the same
        # instance, so no increments landed on an orphaned metric.
        for i in range(200):
            assert reg.counter(f"metric-{i}").value == 8

    def test_concurrent_merge_snapshot(self):
        reg = MetricsRegistry()
        donor = MetricsRegistry()
        donor.counter("merged").inc(3)
        donor.histogram("spread").observe(1.0)
        donor.histogram("spread").observe(5.0)
        snap = donor.snapshot()

        def work(_tid):
            for _ in range(300):
                reg.merge_snapshot(snap)

        self._hammer(work)
        assert reg.counter("merged").value == 8 * 300 * 3
        assert reg.histogram("spread").count == 8 * 300 * 2

    def test_concurrent_events_append(self):
        reg = MetricsRegistry()

        def work(tid):
            for i in range(500):
                reg.event("e", tid=tid, i=i)

        self._hammer(work)
        assert len(reg.events) == 8 * 500


class TestInstrumentedPaths:
    def test_batch_decoder_counts(self):
        import numpy as np

        from repro.core import make_batch_decoder
        from repro.graphs import tornado_catalog_graph

        graph = tornado_catalog_graph(3)
        decoder = make_batch_decoder(graph)
        masks = np.zeros((7, graph.num_nodes), dtype=bool)
        masks[:, 0] = True
        with capture() as reg:
            decoder.decode_batch(masks)
        assert reg.counter("decoder.batches").value == 1
        assert reg.counter("decoder.cases").value == 7
        assert reg.counter("decoder.rounds").value >= 1
        assert reg.histogram("decoder.decode_seconds").count == 1

    def test_worst_case_search_metrics(self):
        from repro.graphs import tornado_catalog_graph
        from repro.sim import worst_case_search

        with capture() as reg:
            worst_case_search(tornado_catalog_graph(3), max_k=3)
        assert reg.counter("worstcase.searches").value == 1
        assert reg.counter("critical.nodes_expanded").value > 0
        events = [e for e in reg.events if e["event"] == "worstcase.search"]
        assert events and events[0]["nodes_expanded"] > 0

    def test_storage_counters(self):
        from repro.storage import DeviceArray

        with capture() as reg:
            arr = DeviceArray(4)
            arr[0].write_block("k", b"v")
            arr.spin_down_all()
            arr[0].read_block("k")  # spins 0 back up
            arr.fail([1])
            arr.rebuild_all()
        assert reg.counter("storage.writes").value == 1
        assert reg.counter("storage.reads").value == 1
        assert reg.counter("storage.spin_downs").value == 4
        assert reg.counter("storage.spin_ups").value == 1
        assert reg.counter("storage.device_failures").value == 1
        assert reg.counter("storage.rebuilds").value == 1


class TestQuantileHistograms:
    """Log-spaced bucket quantiles (p50/p90/p99) and lossless merges."""

    def test_quantiles_within_documented_tolerance(self):
        import numpy as np

        from repro.obs.registry import BUCKET_GAMMA, Histogram

        rng = np.random.default_rng(0)
        samples = rng.uniform(0.5, 50.0, size=10_000)
        h = Histogram("h")
        for v in samples:
            h.observe(float(v))
        tol = math.sqrt(BUCKET_GAMMA) - 1  # documented bound (~2.5%)
        for q in (0.50, 0.90, 0.99):
            exact = float(np.quantile(samples, q))
            assert abs(h.quantile(q) - exact) / exact <= tol

    def test_quantile_clamped_to_observed_range(self):
        from repro.obs.registry import Histogram

        h = Histogram("h")
        h.observe(3.0)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 3.0

    def test_quantile_rejects_out_of_range(self):
        from repro.obs.registry import Histogram

        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_summary_carries_percentiles_and_buckets(self):
        from repro.obs.registry import Histogram

        h = Histogram("h")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert {"p50", "p90", "p99", "buckets", "sq_total"} <= set(s)
        assert sum(s["buckets"].values()) == 3

    def test_zero_and_negative_values_bucket(self):
        from repro.obs.registry import Histogram

        h = Histogram("h")
        for v in (-2.0, 0.0, 2.0):
            h.observe(v)
        assert "z" in h.buckets
        assert any(k.startswith("n") for k in h.buckets)
        assert h.quantile(0.5) == 0.0

    def test_merge_is_bucketwise_lossless(self):
        import numpy as np

        from repro.obs.registry import Histogram

        rng = np.random.default_rng(1)
        a, b, whole = Histogram("a"), Histogram("b"), Histogram("w")
        for i, v in enumerate(rng.exponential(2.0, size=2_000)):
            (a if i % 2 else b).observe(float(v))
            whole.observe(float(v))
        merged = Histogram("m")
        merged.merge_summary(a.summary())
        merged.merge_summary(b.summary())
        assert merged.buckets == whole.buckets
        assert merged.count == whole.count
        assert merged.quantile(0.99) == whole.quantile(0.99)
        assert merged.sq_total == pytest.approx(whole.sq_total)

    def test_merge_count_one_summary_has_zero_stddev(self):
        # A count==1 summary reports stddev 0.0; merging it must
        # reconstruct sq_total = mean**2, not poison the variance.
        from repro.obs.registry import Histogram

        one = Histogram("one")
        one.observe(5.0)
        s = one.summary()
        assert s["stddev"] == 0.0
        legacy = {k: v for k, v in s.items() if k != "sq_total"}
        m = Histogram("m")
        m.merge_summary(legacy)
        assert m.sq_total == pytest.approx(25.0)
        assert m.stddev == 0.0

    def test_merge_ignores_nonfinite_moments(self):
        from repro.obs.registry import Histogram

        m = Histogram("m")
        m.observe(1.0)
        m.merge_summary(
            {
                "count": 3,
                "total": math.inf,
                "sq_total": math.nan,
                "min": -math.inf,
                "max": math.inf,
            }
        )
        assert m.count == 4
        assert math.isfinite(m.total)
        assert math.isfinite(m.sq_total)
        assert m.min == 1.0 and m.max == 1.0

    def test_merge_legacy_bucketless_summary(self):
        # Pre-bucket summaries still merge; quantiles fall back to the
        # mean when only legacy mass exists.
        from repro.obs.registry import Histogram

        m = Histogram("m")
        m.merge_summary(
            {"count": 4, "total": 8.0, "mean": 2.0, "stddev": 0.0,
             "min": 1.0, "max": 3.0}
        )
        assert m.count == 4
        assert m.quantile(0.5) == 2.0  # mean fallback

    def test_bucket_bounds_invert_keys(self):
        from repro.obs.registry import (
            _bucket_key,
            bucket_midpoint,
            bucket_upper_bound,
        )

        for v in (0.003, 0.7, 1.0, 42.0, -0.9, -17.0):
            key = _bucket_key(v)
            mid = bucket_midpoint(key)
            assert _bucket_key(mid) == key
            if v > 0:
                assert v <= bucket_upper_bound(key)
            elif v < 0:
                assert v <= bucket_upper_bound(key) or math.isclose(
                    v, bucket_upper_bound(key)
                )

    def test_nonfinite_observations_counted_but_unbucketed(self):
        from repro.obs.registry import Histogram

        h = Histogram("h")
        h.observe(math.inf)
        h.observe(2.0)
        assert h.count == 2
        assert sum(h.buckets.values()) == 1


class TestMergeSummaryChains:
    """Chained worker->parent->grandparent folds stay exact.

    The scraper merges per-node summaries into a fleet view every
    scrape, and the time-series store diffs those merged summaries —
    so merge must behave like a proper monoid fold: associative,
    order-independent, and no worse than the documented ~2.5% quantile
    tolerance regardless of how many hops a summary took.
    """

    def shards(self, seed, n_shards=4, per_shard=500):
        import numpy as np

        from repro.obs.registry import Histogram

        rng = np.random.default_rng(seed)
        out = []
        for i in range(n_shards):
            h = Histogram(f"s{i}")
            for v in rng.lognormal(mean=-1.0, sigma=1.2, size=per_shard):
                h.observe(float(v))
            out.append(h)
        return out

    def fold(self, summaries):
        from repro.obs.registry import Histogram

        m = Histogram("m")
        for s in summaries:
            m.merge_summary(s)
        return m

    def test_merge_is_associative(self):
        # ((a+b)+c)+d  vs  a+((b+c)+d): identical summaries.
        a, b, c, d = (h.summary() for h in self.shards(seed=7))
        left = self.fold(
            [self.fold([self.fold([a, b]).summary(), c]).summary(), d]
        )
        right = self.fold(
            [a, self.fold([self.fold([b, c]).summary(), d]).summary()]
        )
        ls, rs = left.summary(), right.summary()
        assert ls["buckets"] == rs["buckets"]
        assert ls["count"] == rs["count"]
        assert ls["total"] == pytest.approx(rs["total"])
        assert ls["sq_total"] == pytest.approx(rs["sq_total"])
        assert ls["min"] == rs["min"] and ls["max"] == rs["max"]

    def test_merge_is_order_independent(self):
        import itertools

        summaries = [h.summary() for h in self.shards(seed=3, n_shards=3)]
        folds = [
            self.fold([summaries[i] for i in perm]).summary()
            for perm in itertools.permutations(range(3))
        ]
        assert all(f["buckets"] == folds[0]["buckets"] for f in folds)
        assert all(f["count"] == folds[0]["count"] for f in folds)

    def test_chained_quantiles_within_documented_tolerance(self):
        # A two-hop merge chain (node -> site -> fleet) must estimate
        # quantiles within the single-histogram bound: relative error
        # <= sqrt(BUCKET_GAMMA) - 1 (~2.47%), plus float slack.
        import numpy as np

        from repro.obs.registry import BUCKET_GAMMA

        shards = self.shards(seed=11, n_shards=4, per_shard=1000)
        site_a = self.fold([shards[0].summary(), shards[1].summary()])
        site_b = self.fold([shards[2].summary(), shards[3].summary()])
        fleet = self.fold([site_a.summary(), site_b.summary()])

        # Buckets don't retain samples — regenerate the same stream
        # to compute the true quantiles.
        rng = np.random.default_rng(11)
        raw = np.sort(
            np.concatenate(
                [
                    rng.lognormal(mean=-1.0, sigma=1.2, size=1000)
                    for _ in range(4)
                ]
            )
        )
        bound = BUCKET_GAMMA**0.5 - 1 + 1e-9
        for q in (0.5, 0.9, 0.99):
            true = float(np.quantile(raw, q))
            est = fleet.quantile(q)
            assert abs(est - true) / true <= bound

    def test_chain_preserves_moments_exactly(self):
        # count/total/sq_total are sums — a chain of merges must agree
        # with observing every value into one histogram directly.
        from repro.obs.registry import Histogram

        shards = self.shards(seed=5, n_shards=3, per_shard=200)
        whole = Histogram("w")
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(3):
            for v in rng.lognormal(mean=-1.0, sigma=1.2, size=200):
                whole.observe(float(v))
        chained = self.fold([shards[0].summary(), shards[1].summary()])
        chained = self.fold([chained.summary(), shards[2].summary()])
        assert chained.count == whole.count
        assert chained.total == pytest.approx(whole.total)
        assert chained.sq_total == pytest.approx(whole.sq_total)
        assert chained.stddev == pytest.approx(whole.stddev)
