"""Tests for fleet scraping and snapshot merging (repro.obs.scrape)."""

import pytest

from repro.obs import (
    FleetScraper,
    Histogram,
    LogicalClock,
    ScrapeTarget,
    TimeSeriesStore,
)


class FakeResponse:
    def __init__(self, snapshot):
        self.snapshot = snapshot


def snapshot(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def make_scraper(targets, responses, **kwargs):
    """responses: target_id -> snapshot dict, or an Exception to raise."""

    def fetch(target):
        value = responses[target.target_id]
        if isinstance(value, Exception):
            raise value
        return FakeResponse(value)

    return FleetScraper(targets, fetch=fetch, **kwargs)


COORD = ScrapeTarget("coordinator", "coordinator", "127.0.0.1", 1)
NODE_A = ScrapeTarget("node", "node-0", "127.0.0.1", 2)
NODE_B = ScrapeTarget("node", "node-1", "127.0.0.1", 3)


class TestScrapeTarget:
    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="unknown scrape role"):
            ScrapeTarget("database", "x", "127.0.0.1", 1)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScrapeTarget("node", "", "127.0.0.1", 1)


class TestLogicalClock:
    def test_advances_and_reads(self):
        clock = LogicalClock()
        assert clock() == 0.0
        assert clock.advance(60.0) == 60.0
        assert clock() == 60.0

    def test_only_moves_forward(self):
        with pytest.raises(ValueError):
            LogicalClock().advance(-1.0)


class TestScraperValidation:
    def test_needs_targets(self):
        with pytest.raises(ValueError, match="at least one target"):
            FleetScraper([])

    def test_rejects_duplicate_ids(self):
        dup = ScrapeTarget("node", "node-0", "127.0.0.1", 9)
        with pytest.raises(ValueError, match="duplicate target ids"):
            FleetScraper([NODE_A, dup])


class TestMerge:
    def test_counters_sum_across_targets(self):
        scraper = make_scraper(
            [NODE_A, NODE_B],
            {
                "node-0": snapshot(counters={"node.gets": 10}),
                "node-1": snapshot(counters={"node.gets": 32}),
            },
            clock=LogicalClock(),
        )
        merged = scraper.scrape_once()
        assert merged["counters"]["node.gets"] == 42

    def test_gauges_suffix_only_multi_target_roles(self):
        scraper = make_scraper(
            [COORD, NODE_A, NODE_B],
            {
                "coordinator": snapshot(gauges={"cluster.objects": 4}),
                "node-0": snapshot(gauges={"node.blocks": 7}),
                "node-1": snapshot(gauges={"node.blocks": 9}),
            },
            clock=LogicalClock(),
        )
        gauges = scraper.scrape_once()["gauges"]
        # One coordinator: plain name survives for stable SLO objectives.
        assert gauges["cluster.objects"] == 4.0
        assert "cluster.objects.coordinator" not in gauges
        # Two nodes: per-target suffixes.
        assert gauges["node.blocks.node-0"] == 7.0
        assert gauges["node.blocks.node-1"] == 9.0
        assert "node.blocks" not in gauges

    def test_fleet_rollups_and_up_gauges(self):
        scraper = make_scraper(
            [COORD, NODE_A],
            {
                "coordinator": snapshot(
                    gauges={
                        "cluster.repair.margin_min": 2,
                        "cluster.repair.at_risk_stripes": 1,
                        "cluster.objects": 6,
                    }
                ),
                "node-0": snapshot(),
            },
            clock=LogicalClock(),
        )
        gauges = scraper.scrape_once()["gauges"]
        assert gauges["fleet.repair.margin_min"] == 2.0
        assert gauges["fleet.at_risk_stripes"] == 1.0
        assert gauges["fleet.objects"] == 6.0
        assert gauges["fleet.targets.total"] == 2.0
        assert gauges["fleet.targets.up"] == 2.0
        assert gauges["fleet.targets.down"] == 0.0
        assert gauges["up.coordinator"] == 1.0
        assert gauges["up.node-0"] == 1.0

    def test_histograms_merge_losslessly(self):
        a, b = Histogram("h"), Histogram("h")
        for v in (0.001, 0.002):
            a.observe(v)
        for v in (0.004, 0.008):
            b.observe(v)
        scraper = make_scraper(
            [NODE_A, NODE_B],
            {
                "node-0": snapshot(histograms={"lat": a.summary()}),
                "node-1": snapshot(histograms={"lat": b.summary()}),
            },
            clock=LogicalClock(),
        )
        merged = scraper.scrape_once()["histograms"]["lat"]
        assert merged["count"] == 4
        both = Histogram("h")
        for v in (0.001, 0.002, 0.004, 0.008):
            both.observe(v)
        assert merged["buckets"] == both.summary()["buckets"]


class TestFailureHandling:
    def test_dark_target_degrades_not_wedges(self):
        clock = LogicalClock()
        responses = {
            "coordinator": snapshot(counters={"cluster.reads": 5}),
            "node-0": snapshot(counters={"node.gets": 50}),
        }
        scraper = make_scraper([COORD, NODE_A], responses, clock=clock)
        scraper.scrape_once()

        clock.advance(60.0)
        responses["node-0"] = ConnectionError("refused")
        view = scraper.scrape_once()
        status = view["targets"]["node-0"]
        assert status["up"] is False
        assert status["stale"] is True
        assert status["age"] == 60.0
        assert "ConnectionError" in status["error"]
        assert scraper.failures["node-0"] == 1
        # The last good snapshot keeps feeding the merge: fleet
        # counters must not jump backwards while a node is dark.
        assert view["counters"]["node.gets"] == 50
        assert view["gauges"]["fleet.targets.down"] == 1.0
        assert view["gauges"]["up.node-0"] == 0.0

    def test_never_seen_target_contributes_nothing(self):
        scraper = make_scraper(
            [COORD, NODE_A],
            {
                "coordinator": snapshot(counters={"cluster.reads": 5}),
                "node-0": ConnectionError("refused"),
            },
            clock=LogicalClock(),
        )
        view = scraper.scrape_once()
        assert view["targets"]["node-0"]["stale"] is False
        assert "node.gets" not in view["counters"]

    def test_recovery_clears_staleness(self):
        clock = LogicalClock()
        responses = {"node-0": ConnectionError("down")}
        scraper = make_scraper([NODE_A], responses, clock=clock)
        scraper.scrape_once()
        clock.advance(60.0)
        responses["node-0"] = snapshot(counters={"node.gets": 1})
        view = scraper.scrape_once()
        assert view["targets"]["node-0"]["up"] is True
        assert view["targets"]["node-0"]["stale"] is False
        assert view["targets"]["node-0"]["age"] == 0.0


class TestStoreIntegration:
    def test_scrapes_are_the_store_records_with_logical_timestamps(self):
        clock = LogicalClock()
        store = TimeSeriesStore()
        responses = {"node-0": snapshot(counters={"node.gets": 10})}
        scraper = make_scraper([NODE_A], responses, clock=clock)
        for gets in (10, 40, 100):
            responses["node-0"] = snapshot(counters={"node.gets": gets})
            clock.advance(60.0)
            record = scraper.scrape_once()
            assert record["event"] == "fleet.sample"
            assert store.ingest(record) == {"index": len(store) - 1, **record}
        assert len(store) == 3
        assert store.latest()["ts"] == 180.0
        assert store.counter_rate("node.gets", 120.0) == pytest.approx(
            0.75
        )
        assert scraper.scrapes == 3
