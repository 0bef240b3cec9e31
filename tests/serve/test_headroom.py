"""Degraded-headroom probe: the serve layer's bulk batch-decode consumer."""

from __future__ import annotations

import asyncio

import pytest

import repro.core.decoder as decoder_module
from repro.core import tornado_graph
from repro.obs import MetricsRegistry, capture
from repro.serve import ReconstructionService, ServeConfig, seeded_archive
from repro.storage import DeviceState


def small_archive(severity: int = 0, objects: int = 2):
    graph = tornado_graph(16, seed=3, min_final_lefts=6)
    return seeded_archive(
        graph,
        objects=objects,
        object_size=1024,
        block_size=64,
        severity=severity,
        seed=0,
    )


def probe(archive, config=None):
    service = ReconstructionService(archive, config)
    return service, service.degraded_headroom()


class TestDegradedHeadroom:
    def test_healthy_archive_structure(self):
        archive, _names = small_archive(severity=0)
        service, report = probe(archive)
        assert report["engine"] == "bitset"
        assert report["devices"] == len(archive.devices)
        assert report["stripes"] > 0
        # One base case plus one per (stripe, device-hosting-a-node).
        assert report["cases"] == report["stripes"] * (
            archive.graph.num_nodes + 1
        )
        assert report["stripes_failing_now"] == []
        # A healthy single-site tornado archive survives any one loss.
        assert report["at_risk_devices"] == []
        assert report["tolerates_any_single_failure"]

    def test_engines_agree(self, monkeypatch):
        archive, _names = small_archive(severity=4)
        _, bit = probe(archive)
        monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", 1)
        _, sp = probe(archive)
        assert (bit["engine"], sp["engine"]) == ("bitset", "sparse")
        for key in (
            "stripes",
            "cases",
            "stripes_failing_now",
            "at_risk_devices",
            "tolerates_any_single_failure",
        ):
            assert bit[key] == sp[key], key

    def test_failed_devices_reduce_headroom(self):
        archive, _names = small_archive(severity=0)
        # Fail enough devices that at least one more loss is fatal
        # somewhere: severity is per-archive seeded, so do it by hand.
        for dev in range(0, 12):
            archive.devices[dev].state = DeviceState.FAILED
        _, report = probe(archive)
        assert not report["tolerates_any_single_failure"] or (
            report["at_risk_devices"] == []
            and report["stripes_failing_now"] == []
        )

    def test_metrics_and_stats_expose_engine(self):
        archive, _names = small_archive()
        service = ReconstructionService(archive)
        report = service.degraded_headroom()
        assert report["engine"] == "bitset"
        stats = service.stats()
        assert stats["engine"] == "bitset"
        assert stats["counters"]["serve.headroom_probes"] == 1
        assert stats["gauges"]["serve.at_risk_devices"] == len(
            report["at_risk_devices"]
        )

    def test_probe_works_alongside_serving(self):
        archive, names = small_archive()

        async def run():
            async with ReconstructionService(
                archive, ServeConfig(batch_window=0.0)
            ) as service:
                data = await service.submit(names[0])
                report = service.degraded_headroom()
                return data, report

        data, report = asyncio.run(run())
        assert data and report["stripes"] > 0

    def test_probe_runs_the_kernel_the_graph_size_selects(
        self, monkeypatch
    ):
        """Regression: the service resolved its engine without the node
        count, got "bitset", and pinned it — so on a graph at or above
        the auto cutoff the probe ran (and reported) the slower kernel."""
        archive, _names = small_archive()
        monkeypatch.setattr(
            decoder_module,
            "_SPARSE_AUTO_MIN_NODES",
            archive.graph.num_nodes,
        )
        with capture(MetricsRegistry()) as reg:
            service = ReconstructionService(archive)
            report = service.degraded_headroom()
        assert report["engine"] == "sparse"
        assert service.stats()["engine"] == "sparse"
        counters = reg.snapshot()["counters"]
        assert counters["decoder.cases.sparse"] == report["cases"]
        assert "decoder.cases.bitset" not in counters

    def test_config_rejects_unknown_engine(self):
        # The engine knob is gone outright, not shimmed.
        with pytest.raises(TypeError, match="decode_engine"):
            ServeConfig(decode_engine="bitset")

    def test_env_resolution(self, monkeypatch):
        """The retired override variable reaches nothing."""
        archive, _names = small_archive()
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "sparse")
        service = ReconstructionService(archive)
        assert service.stats()["engine"] == "bitset"
        assert service.degraded_headroom()["engine"] == "bitset"
