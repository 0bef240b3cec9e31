"""Tests for SLO burn-rate alerting and error budgets (repro.obs.slo)."""

import pytest

from repro.obs import (
    BurnWindow,
    Histogram,
    JsonlSink,
    Objective,
    SloEngine,
    TimeSeriesStore,
    load_timeline,
)


def view(ts, counters=None, gauges=None, histograms=None):
    """A ``fleet.sample`` record as a scraper returns it."""
    return {
        "event": "fleet.sample",
        "ts": ts,
        "targets": {},
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def availability_samples(total=4.0, down=()):
    """Sample gauges for a fleet where ``down`` indexes are dark."""

    def gauges(i):
        d = 1.0 if i in down else 0.0
        return {
            "fleet.targets.total": total,
            "fleet.targets.down": d,
        }

    return gauges


class TestValidation:
    def test_burn_window_ordering(self):
        with pytest.raises(ValueError, match="exceeds long"):
            BurnWindow("w", 600.0, 300.0, 10.0)

    def test_objective_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Objective(name="x", kind="magic", metric="m", bound=1.0)

    def test_ratio_needs_bad_and_total(self):
        with pytest.raises(ValueError, match="needs 'bad'"):
            Objective(name="x", kind="ratio")

    def test_gauge_needs_metric_and_bound(self):
        with pytest.raises(ValueError, match="needs 'metric'"):
            Objective(name="x", kind="gauge_above")

    def test_engine_rejects_duplicate_or_no_objectives(self):
        o = Objective(
            name="x", kind="gauge_above", metric="m", bound=1.0
        )
        with pytest.raises(ValueError, match="unique"):
            SloEngine((o, o))
        with pytest.raises(ValueError, match="present"):
            SloEngine(())


class TestBadFraction:
    def test_ratio_kind(self):
        store = TimeSeriesStore()
        store.ingest(view(0.0, counters={"shed": 0, "req": 0}))
        store.ingest(view(60.0, counters={"shed": 5, "req": 100}))
        o = Objective(
            name="shed", kind="ratio", bad="shed", total="req"
        )
        assert o.bad_fraction(store, 120.0) == pytest.approx(0.05)

    def test_ratio_with_no_traffic_is_healthy(self):
        store = TimeSeriesStore()
        store.ingest(view(0.0))
        o = Objective(
            name="shed", kind="ratio", bad="shed", total="req"
        )
        assert o.bad_fraction(store, 60.0) == 0.0

    def test_gauge_ratio_averages_over_samples(self):
        store = TimeSeriesStore()
        gauges = availability_samples(total=4.0, down={1})
        for i in range(2):
            store.ingest(view(float(i * 60), gauges=gauges(i)))
        o = Objective(
            name="avail",
            kind="gauge_ratio",
            bad="fleet.targets.down",
            total="fleet.targets.total",
        )
        assert o.bad_fraction(store, 300.0) == pytest.approx(0.125)

    def test_gauge_above_and_below(self):
        store = TimeSeriesStore()
        for i, margin in enumerate((3.0, 0.0, 3.0, 3.0)):
            store.ingest(
                view(float(i * 60), gauges={"margin": margin})
            )
        below = Objective(
            name="m", kind="gauge_below", metric="margin", bound=1.0
        )
        assert below.bad_fraction(store, 300.0) == pytest.approx(0.25)
        above = Objective(
            name="a", kind="gauge_above", metric="margin", bound=2.0
        )
        assert above.bad_fraction(store, 300.0) == pytest.approx(0.75)

    def test_quantile_above(self):
        slow = Histogram("h")
        for _ in range(100):
            slow.observe(2.0)
        store = TimeSeriesStore()
        store.ingest(
            view(0.0, histograms={"lat": slow.summary()})
        )
        o = Objective(
            name="p99",
            kind="quantile_above",
            metric="lat",
            bound=0.5,
            quantile=0.99,
        )
        assert o.bad_fraction(store, 60.0) == 1.0

    def test_rate_above(self):
        store = TimeSeriesStore()
        store.ingest(view(0.0, counters={"wan": 0}))
        store.ingest(view(60.0, counters={"wan": 120_000_000}))
        o = Objective(
            name="wan", kind="rate_above", metric="wan", bound=1e6
        )
        assert o.bad_fraction(store, 120.0) == 1.0


class TestBurnRateAlerting:
    def engine_and_store(self):
        objectives = (
            Objective(
                name="availability",
                kind="gauge_ratio",
                bad="fleet.targets.down",
                total="fleet.targets.total",
                target=0.999,
                windows=(BurnWindow("fast", 300.0, 3600.0, 14.4),),
            ),
        )
        return SloEngine(objectives), TimeSeriesStore()

    def drive(self, engine, store, down_at):
        """Feed 60s-spaced samples; return ts -> transitions."""
        transitions = {}
        gauges = availability_samples(total=4.0, down=down_at)
        for i in range(30):
            ts = float((i + 1) * 60)
            store.ingest(view(ts, gauges=gauges(i)))
            got = engine.evaluate(store, ts)
            if got:
                transitions[ts] = got
        return transitions

    def test_fires_at_the_kill_sample_and_clears_after_drain(self):
        engine, store = self.engine_and_store()
        # Samples 0-9 healthy, 10-12 one target dark, then healed.
        transitions = self.drive(engine, store, down_at={10, 11, 12})
        fire_ts = min(transitions)
        assert fire_ts == 660.0  # the first dark sample, ts (10+1)*60
        assert transitions[fire_ts][0]["state"] == "firing"
        # Clears once the 300s short window drains of dark samples:
        # the last dark sample (ts 780) ages out exactly when the
        # half-open window (now-300, now] starts at it — now = 1080.
        clear_ts = max(transitions)
        assert transitions[clear_ts][0]["state"] == "ok"
        assert clear_ts == 1080.0
        assert not engine.firing()

    def test_alert_timing_is_deterministic(self):
        runs = []
        for _ in range(2):
            engine, store = self.engine_and_store()
            runs.append(self.drive(engine, store, down_at={5, 6}))
        assert runs[0] == runs[1]

    def test_single_blip_does_not_fire_when_long_window_disagrees(self):
        engine = SloEngine(
            (
                Objective(
                    name="availability",
                    kind="gauge_ratio",
                    bad="fleet.targets.down",
                    total="fleet.targets.total",
                    target=0.9,  # budget 0.1: burn 2.5 per dark sample
                    windows=(BurnWindow("fast", 300.0, 3600.0, 2.0),),
                ),
            )
        )
        store = TimeSeriesStore()
        gauges = availability_samples(total=4.0, down={40})
        fired = []
        for i in range(42):
            ts = float((i + 1) * 60)
            store.ingest(view(ts, gauges=gauges(i)))
            fired += engine.evaluate(store, ts)
        # Short window burn: 2.5/5 samples = ... above threshold, but
        # the long window (41 clean samples) stays under it.
        assert fired == []

    def test_replay_reproduces_live_transitions(self):
        live_engine, store = self.engine_and_store()
        live = self.drive(live_engine, store, down_at={10, 11})
        flat_live = [t for ts in sorted(live) for t in live[ts]]
        replay_engine = SloEngine(live_engine.objectives)
        replayed = replay_engine.replay(store)
        assert replayed == flat_live


class TestReporting:
    def test_durability_score(self):
        engine = SloEngine()
        store = TimeSeriesStore()
        store.ingest(
            view(
                0.0,
                gauges={
                    "fleet.repair.margin_min": 1.0,
                    "fleet.at_risk_stripes": 0.0,
                    "cluster.repair.healthy_margin": 3.0,
                },
            )
        )
        d = engine.durability(store)
        assert d["score"] == pytest.approx(0.5)
        assert d["margin_min"] == 1.0
        assert d["at_risk_stripes"] == 0.0

    def test_durability_without_gauges(self):
        engine = SloEngine()
        store = TimeSeriesStore()
        store.ingest(view(0.0))
        assert engine.durability(store)["score"] is None

    def test_status_shape_and_budget_accounting(self):
        engine = SloEngine()
        store = TimeSeriesStore()
        gauges = availability_samples(total=4.0, down={1, 2})
        for i in range(4):
            ts = float((i + 1) * 60)
            store.ingest(view(ts, gauges=gauges(i)))
            engine.evaluate(store, ts)
        status = engine.status(store)
        avail = status["objectives"]["availability"]
        assert set(avail["windows"]) == {"fast", "slow"}
        budget = avail["budget"]
        # Two dark samples, a quarter of the fleet each, over their
        # 60-s intervals.
        assert budget["consumed_bad_seconds"] == 30.0
        assert 0.0 <= budget["remaining_fraction"] < 1.0
        assert status["samples"] == 4
        for name in (
            "read-p99",
            "shed-rate",
            "repair-margin",
            "wan-read-rate",
            "at-risk-stripes",
        ):
            assert name in status["objectives"]


def live_and_replayed(tmp_path, records):
    """Evaluate each record as a driver does — ingest, persist, then
    evaluate the live store — and replay the file it wrote.

    Returns the live engine and store, and the replaying engine and
    the store it loaded.
    """
    path = tmp_path / "timeline.jsonl"
    live, store = SloEngine(), TimeSeriesStore()
    with JsonlSink(path) as sink:
        for record in records:
            sink.emit(store.ingest(record))
            for transition in live.evaluate(store):
                sink.emit(transition)
    loaded = load_timeline(path)
    replayed = SloEngine()
    replayed.replay(loaded)
    return live, store, replayed, loaded


class TestOneStore:
    """The live engine and the replay of its timeline are one run."""

    def test_live_alerts_equal_replay_past_360_samples(self, tmp_path):
        """A live ring of 360 samples once lost the slow pair's 6-h
        baseline, so the live run saw nothing while the replay fired."""
        n = 400
        oldest = n - 360  # first interval of the last sample's 6-h window
        requests = shed = 0
        records = []
        for i in range(n):
            requests += 100 if i else 0
            shed += {oldest: 1800, n - 1: 400}.get(i, 0)
            records.append(
                view(
                    float(i * 60),
                    counters={"serve.requests": requests, "serve.shed": shed},
                )
            )
        live, store, replayed, _ = live_and_replayed(tmp_path, records)
        assert len(store) == n
        assert live.transitions == replayed.transitions
        assert [
            (t["objective"], t["window"], t["state"], t["ts"])
            for t in live.transitions
        ] == [
            ("shed-rate", "fast", "firing", oldest * 60.0),
            ("shed-rate", "slow", "firing", oldest * 60.0),
            ("shed-rate", "fast", "ok", (oldest + 5) * 60.0),
            ("shed-rate", "slow", "ok", (oldest + 60) * 60.0),
            ("shed-rate", "slow", "firing", (n - 1) * 60.0),
        ]
        assert live.firing() == replayed.firing() == [
            {"objective": "shed-rate", "window": "slow"}
        ]

    def test_budgets_agree_at_30s_spacing(self, tmp_path):
        """Each sample charges its own interval: three samples with one
        of four targets dark, 30 s apart, are 3 x 0.25 x 30 s."""
        gauges = availability_samples(total=4.0, down={7, 8, 9})
        records = [view(float(i * 30), gauges=gauges(i)) for i in range(10)]
        live, store, replayed, loaded = live_and_replayed(tmp_path, records)
        live_status = live.status(store)
        replayed_status = replayed.status(loaded)
        assert live_status == replayed_status
        budget = live_status["objectives"]["availability"]["budget"]
        assert budget["consumed_bad_seconds"] == 22.5
