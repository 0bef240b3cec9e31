"""Tests for the fleet time-series store (repro.obs.timeseries)."""

import pytest

from repro.obs import (
    Histogram,
    JsonlSink,
    TimeSeriesStore,
    load_timeline,
    subtract_summary,
    summary_quantile,
)


def sample(ts, counters=None, gauges=None, histograms=None, targets=None):
    """A ``fleet.sample`` record as a scraper returns it (no index)."""
    return {
        "event": "fleet.sample",
        "ts": ts,
        "targets": targets or {},
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def filled_store(points):
    """points: list of (ts, counters, gauges) triples."""
    store = TimeSeriesStore()
    for ts, counters, gauges in points:
        store.ingest(sample(ts, counters=counters, gauges=gauges))
    return store


class TestIngest:
    def test_ingest_keeps_every_sample_and_stamps_its_index(self):
        store = TimeSeriesStore()
        for t in range(5):
            got = store.ingest(sample(float(t * 60)))
        assert len(store) == 5
        assert [s["index"] for s in store] == [0, 1, 2, 3, 4]
        # The returned record is what a timeline persists, keys in
        # the file's order.
        assert got is store.latest()
        assert list(got) == [
            "event",
            "index",
            "ts",
            "targets",
            "counters",
            "gauges",
            "histograms",
        ]

    def test_backwards_clock_is_rejected(self):
        store = TimeSeriesStore()
        store.ingest(sample(120.0))
        with pytest.raises(ValueError, match="clock went backwards"):
            store.ingest(sample(60.0))

    def test_equal_timestamps_are_allowed(self):
        store = TimeSeriesStore()
        store.ingest(sample(60.0))
        store.ingest(sample(60.0))
        assert len(store) == 2


class TestWindowQueries:
    def test_window_is_half_open_interval(self):
        store = filled_store(
            [(float(t), {}, {}) for t in (0, 60, 120, 180)]
        )
        picked = [s["ts"] for s in store.window(120.0, now=180.0)]
        # (60, 180]: excludes the sample exactly at the window start.
        assert picked == [120.0, 180.0]

    def test_narrow_window_still_sees_newest(self):
        store = filled_store([(0.0, {}, {}), (60.0, {}, {})])
        picked = store.window(0.5, now=60.0)
        assert [s["ts"] for s in picked] == [60.0]

    def test_queries_read_only_samples_at_or_before_now(self):
        """What a replay at a past sample's ts relies on."""
        store = filled_store(
            [
                (0.0, {"reads": 0}, {"g": 1.0}),
                (60.0, {"reads": 10}, {"g": 2.0}),
                (120.0, {"reads": 1000}, {"g": 9.0}),
            ]
        )
        assert store.counter_increase("reads", 1e9, now=60.0) == 10.0
        assert store.gauge_stats("g", 1e9, now=60.0)["max"] == 2.0
        assert [s["ts"] for s in store.window(0.5, now=90.0)] == [60.0]
        assert store.window(60.0, now=-1.0) == []

    def test_counter_increase_and_rate(self):
        store = filled_store(
            [
                (0.0, {"reads": 10}, {}),
                (60.0, {"reads": 40}, {}),
                (120.0, {"reads": 100}, {}),
            ]
        )
        assert store.counter_increase("reads", 120.0) == 90.0
        assert store.counter_rate("reads", 120.0) == pytest.approx(0.75)

    def test_counter_restart_clamps_to_zero(self):
        store = filled_store(
            [(0.0, {"reads": 500}, {}), (60.0, {"reads": 5}, {})]
        )
        assert store.counter_increase("reads", 60.0) == 0.0

    def test_missing_counter_reads_zero(self):
        store = filled_store([(0.0, {}, {})])
        assert store.counter_rate("nope", 60.0) == 0.0

    def test_gauge_stats(self):
        store = filled_store(
            [
                (0.0, {}, {"depth": 3.0}),
                (60.0, {}, {"depth": 9.0}),
                (120.0, {}, {"depth": 6.0}),
            ]
        )
        stats = store.gauge_stats("depth", 300.0)
        assert stats == {
            "last": 6.0,
            "min": 3.0,
            "max": 9.0,
            "avg": 6.0,
        }
        assert store.gauge_stats("missing", 300.0) is None

    def test_violation_fraction(self):
        store = filled_store(
            [(float(t * 60), {}, {"g": float(t)}) for t in range(4)]
        )
        frac = store.violation_fraction(
            lambda s: s["gauges"]["g"] >= 2.0, 300.0
        )
        assert frac == pytest.approx(0.5)


class TestWindowedHistograms:
    def hist_summary(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        return h.summary()

    def test_subtract_summary_isolates_the_window(self):
        old = self.hist_summary([0.001] * 100)
        new = self.hist_summary([0.001] * 100 + [1.0] * 100)
        diff = subtract_summary(new, old)
        assert diff["count"] == 100
        # The diffed window holds only the slow observations.
        q = summary_quantile(diff, 0.5)
        assert q == pytest.approx(1.0, rel=0.05)

    def test_subtract_summary_restart_returns_new(self):
        old = self.hist_summary([1.0] * 50)
        new = self.hist_summary([2.0] * 10)  # count went backwards
        assert subtract_summary(new, old) == dict(new)

    def test_subtract_summary_equal_counts_is_empty(self):
        s = self.hist_summary([1.0, 2.0])
        assert subtract_summary(s, s) == {"count": 0}

    def test_store_windowed_quantile(self):
        fast = self.hist_summary([0.002] * 50)
        slow_tail = self.hist_summary([0.002] * 50 + [0.8] * 50)
        store = TimeSeriesStore()
        store.ingest(sample(0.0, histograms={"lat": fast}))
        store.ingest(sample(60.0, histograms={"lat": slow_tail}))
        # Full history includes the fast baseline...
        assert store.histogram_quantile(
            "lat", 0.25, 1e9
        ) == pytest.approx(0.002, rel=0.05)
        # ...while the last-minute window sees only the slow burst.
        assert store.histogram_quantile(
            "lat", 0.5, 60.0
        ) == pytest.approx(0.8, rel=0.05)

    def test_summary_quantile_empty(self):
        assert summary_quantile({"count": 0}, 0.5) is None


class TestPersistence:
    def test_sink_roundtrip_via_load_timeline(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        store = TimeSeriesStore()
        with JsonlSink(path) as sink:
            sink.emit(
                store.ingest(
                    sample(
                        60.0,
                        counters={"reads": 5},
                        gauges={"up": 1.0},
                        targets={"c": {"up": True}},
                    )
                )
            )
            sink.emit(store.ingest(sample(120.0, counters={"reads": 9})))
        loaded = load_timeline(path)
        assert list(loaded) == list(store)
        assert loaded.latest()["counters"]["reads"] == 9
        assert loaded.window(1e9)[0]["targets"] == {"c": {"up": True}}

    def test_load_timeline_ignores_foreign_events(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "slo.alert", "state": "firing"})
            sink.emit(sample(60.0))
        assert len(load_timeline(path)) == 1

    def test_load_timeline_without_samples_raises(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "other"})
        with pytest.raises(ValueError, match="no fleet.sample"):
            load_timeline(path)
