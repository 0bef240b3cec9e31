"""Determinism and accounting of the open-loop load generator."""

import asyncio

import pytest

from repro.core import tornado_graph
from repro.serve import (
    LoadGenConfig,
    ReconstructionService,
    ServeConfig,
    arrival_schedule,
    run_loadgen,
    seeded_archive,
)


def small_archive(severity: int = 0):
    graph = tornado_graph(16, seed=3, min_final_lefts=6)
    return seeded_archive(
        graph,
        objects=3,
        object_size=1024,
        block_size=64,
        severity=severity,
        seed=0,
    )


class TestArrivalSchedule:
    def test_same_seed_same_workload(self):
        names = ["a", "b", "c"]
        config = LoadGenConfig(requests=50, rate=1000.0, seed=7)
        assert arrival_schedule(names, config) == arrival_schedule(
            names, config
        )

    def test_different_seeds_differ(self):
        names = ["a", "b", "c"]
        one = arrival_schedule(names, LoadGenConfig(seed=1))
        two = arrival_schedule(names, LoadGenConfig(seed=2))
        assert one != two

    def test_shape_and_range(self):
        names = ["a", "b"]
        gaps, picks = arrival_schedule(
            names, LoadGenConfig(requests=40, rate=500.0, seed=0)
        )
        assert len(gaps) == len(picks) == 40
        assert all(gap >= 0 for gap in gaps)
        assert set(picks) <= set(names)

    def test_mean_gap_tracks_rate(self):
        gaps, _ = arrival_schedule(
            ["a"], LoadGenConfig(requests=2000, rate=1000.0, seed=3)
        )
        assert sum(gaps) / len(gaps) == pytest.approx(1e-3, rel=0.2)


class TestLoadGenConfig:
    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            LoadGenConfig(requests=0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            LoadGenConfig(rate=0.0)

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_nonpositive_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            LoadGenConfig(deadline=deadline)


class TestRunLoadgen:
    def test_every_request_served_intact_and_batched(self):
        """A seeded open-loop run on graph 3 with 4 devices failed: all
        200 requests complete, none shed, every payload equals
        ``archive.get``, and requests share micro-batches."""
        archive, names = seeded_archive(objects=4, severity=4, seed=3)
        expected = {name: archive.get(name) for name in names}
        config = LoadGenConfig(requests=200, rate=4000.0, seed=3)
        served = []

        async def scenario():
            async with ReconstructionService(
                archive, ServeConfig(batch_window=0.002, queue_limit=512)
            ) as svc:
                submit = svc.submit

                async def compared(name, **kwargs):
                    data = await submit(name, **kwargs)
                    served.append(data == expected[name])
                    return data

                svc.submit = compared
                report = await run_loadgen(svc, names, config)
                return report, svc.stats()

        report, stats = asyncio.run(scenario())
        assert report.requests == report.completed == 200
        assert report.shed == 0
        assert report.errors == 0
        assert served == [True] * 200
        assert report.bytes_served == 200 * 4096
        assert report.throughput_rps > 0
        assert set(report.latency) == {"mean", "p50", "p95", "p99", "max"}
        assert 0 < stats["counters"]["serve.batches"] < 200

    def test_report_round_trips_to_dict(self):
        archive, names = small_archive()
        config = LoadGenConfig(requests=10, rate=5000.0, seed=2)

        async def scenario():
            async with ReconstructionService(archive) as svc:
                return await run_loadgen(svc, names, config)

        report = asyncio.run(scenario())
        payload = report.to_dict()
        assert payload["completed"] == 10
        assert payload["throughput_rps"] == report.throughput_rps
        assert "req/s" in report.describe()

    def test_sheds_are_counted_not_raised(self):
        # A queue bound of 1 under a fast burst must shed most arrivals
        # while the first request's batch window is still open; the
        # report absorbs them instead of the generator crashing.
        archive, names = small_archive()
        config = LoadGenConfig(requests=50, rate=1e6, seed=0)

        async def scenario():
            async with ReconstructionService(
                archive, ServeConfig(batch_window=0.2, queue_limit=1)
            ) as svc:
                report = await run_loadgen(svc, names, config)
                return report, svc.stats()

        report, stats = asyncio.run(scenario())
        assert report.shed > 0
        assert report.completed + report.shed == 50
        assert stats["counters"]["serve.shed"] == report.shed

    def test_empty_name_list_rejected(self):
        archive, _ = small_archive()

        async def scenario():
            async with ReconstructionService(archive) as svc:
                await run_loadgen(svc, [], LoadGenConfig())

        with pytest.raises(ValueError):
            asyncio.run(scenario())


class TestSeededArchive:
    def test_same_seed_same_world(self):
        one, names_one = small_archive(severity=4)
        two, names_two = small_archive(severity=4)
        assert names_one == names_two
        assert one.devices.failed_ids == two.devices.failed_ids
        assert all(one.get(n) == two.get(n) for n in names_one)

    def test_severity_bounded_by_pool(self):
        graph = tornado_graph(16, seed=3, min_final_lefts=6)
        with pytest.raises(ValueError):
            seeded_archive(graph, severity=graph.num_nodes)

    @pytest.mark.parametrize(
        "kwargs", [{"objects": 0}, {"object_size": -5}]
    )
    def test_empty_world_rejected(self, kwargs):
        graph = tornado_graph(16, seed=3, min_final_lefts=6)
        with pytest.raises(ValueError):
            seeded_archive(graph, **kwargs)
