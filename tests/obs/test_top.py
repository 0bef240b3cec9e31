"""Tests for the fleet dashboard renderer (repro.obs.top)."""

from repro.obs import (
    Histogram,
    JsonlSink,
    SloEngine,
    TimeSeriesStore,
    load_timeline,
    render_top,
)
from repro.obs.top import format_bytes


def fleet_sample(ts, down=0):
    h = Histogram("cluster.get.seconds")
    for _ in range(20):
        h.observe(0.003)
    return {
        "ts": ts,
        "targets": {
            "coordinator": {
                "role": "coordinator",
                "host": "127.0.0.1",
                "port": 9000,
                "up": True,
                "stale": False,
                "age": 0.0,
                "error": None,
            },
            "node-0": {
                "role": "node",
                "host": "127.0.0.1",
                "port": 9001,
                "up": down == 0,
                "stale": down > 0,
                "age": 60.0 if down else 0.0,
                "error": "ConnectionError: refused" if down else None,
            },
        },
        "counters": {
            "cluster.get.objects": 100 + ts,
            "cluster.repair.bytes": 4096,
        },
        "gauges": {
            "fleet.targets.total": 2.0,
            "fleet.targets.up": 2.0 - down,
            "fleet.targets.down": float(down),
            "fleet.repair.margin_min": 3.0,
            "fleet.at_risk_stripes": 0.0,
            "fleet.repair.queue_depth": 0.0,
            "cluster.repair.healthy_margin": 3.0,
        },
        "histograms": {"cluster.get.seconds": h.summary()},
    }


def filled_store(sink=None, down_last=False):
    store = TimeSeriesStore()
    for i in range(5):
        down = 1 if (down_last and i == 4) else 0
        sample = store.ingest(fleet_sample(float((i + 1) * 60), down=down))
        if sink is not None:
            sink.emit(sample)
    return store


class TestFormatBytes:
    def test_magnitudes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1536) == "1.5 KB"
        assert format_bytes(3 * 1024**2) == "3.0 MB"
        assert format_bytes(5 * 1024**4) == "5.0 TB"


class TestRenderTop:
    def test_empty_store(self):
        assert "no samples yet" in render_top(TimeSeriesStore())

    def test_frame_without_engine(self):
        text = render_top(filled_store())
        assert "targets: 2/2 up" in text
        assert "coordinator" in text and "node-0" in text
        assert "read p99" in text
        assert "margin min 3.0" in text
        # No engine: no SLO table, no score.
        assert "slo burn rates" not in text
        assert "score —" in text

    def test_down_target_shows_staleness_and_error(self):
        text = render_top(filled_store(down_last=True))
        assert "targets: 1/2 up" in text
        assert "DOWN (stale 60s)" in text
        assert "ConnectionError: refused" in text

    def test_frame_with_engine_shows_burns_and_score(self):
        store = filled_store()
        engine = SloEngine()
        engine.replay(store)
        text = render_top(store, engine)
        assert "slo burn rates" in text
        assert "availability" in text
        assert "alerts: none firing" in text
        assert "score 1.00" in text

    def test_firing_alert_is_called_out(self):
        store = filled_store(down_last=True)
        engine = SloEngine()
        engine.replay(store)
        text = render_top(store, engine)
        assert "ALERTS FIRING: availability[fast]" in text

    def test_live_and_replayed_frames_agree(self, tmp_path):
        """The acceptance bar: same store, same renderer, same frame."""
        path = tmp_path / "timeline.jsonl"
        sink = JsonlSink(path)
        live_store = filled_store(sink=sink)
        sink.close()
        live_engine = SloEngine()
        live_engine.replay(live_store)
        live_frame = render_top(live_store, live_engine)

        replayed = load_timeline(path)
        replay_engine = SloEngine()
        replay_engine.replay(replayed)
        assert render_top(replayed, replay_engine) == live_frame
