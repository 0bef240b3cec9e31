"""Behavioural tests for the asyncio reconstruction service.

Everything here runs on ``asyncio.run`` inside synchronous tests (the
repo does not use pytest-asyncio) and drives timing through either a
zero batch window or an injected fake clock, so outcomes are
deterministic.
"""

import asyncio
import functools

import pytest

import repro.serve.plancache
from repro.core import TornadoCodec, tornado_graph
from repro.resilience import RetryPolicy
from repro.serve import (
    DeadlineExceededError,
    ReconstructionService,
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    seeded_archive,
)
from repro.storage import DataLossError, TransientUnavailableError


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


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


UNBATCHED = ServeConfig(batch_window=0.0)


class TestRoundTrip:
    def test_serves_objects_intact(self):
        archive, names = small_archive()
        expected = {name: archive.get(name) for name in names}

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                return {n: await svc.submit(n) for n in names}

        assert asyncio.run(scenario()) == expected

    def test_reconstructs_around_failed_devices(self):
        archive, names = small_archive(severity=3)
        expected = {name: archive.get(name) for name in names}

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                return {n: await svc.submit(n) for n in names}

        assert asyncio.run(scenario()) == expected

    def test_unknown_object_raises_key_error(self):
        archive, _ = small_archive()

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                await svc.submit("no-such-object")

        with pytest.raises(KeyError):
            asyncio.run(scenario())

    def test_plan_cache_hit_on_repeat_request(self):
        archive, names = small_archive(severity=2)

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                await svc.submit(names[0])
                await svc.submit(names[0])
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.plan_cache.hits"] >= 1


class TestCoalescing:
    def test_concurrent_same_object_requests_share_one_batch(self):
        archive, names = small_archive()
        expected = archive.get(names[0])
        clock = FakeClock()
        config = ServeConfig(batch_window=60.0, max_batch=32)

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            futures = [svc.try_submit(names[0]) for _ in range(5)]
            await svc.drain()  # flushes the still-open batch
            results = [f.result() for f in futures]
            stats = svc.stats()
            await svc.close()
            return results, stats

        results, stats = asyncio.run(scenario())
        assert results == [expected] * 5
        assert stats["counters"]["serve.batches"] == 1
        assert stats["counters"]["serve.coalesced"] == 4
        assert stats["histograms"]["serve.batch_size"]["max"] == 5

    def test_full_batch_dispatches_before_window(self):
        archive, names = small_archive()
        clock = FakeClock()
        config = ServeConfig(batch_window=60.0, max_batch=2)

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            futures = [svc.try_submit(names[0]) for _ in range(4)]
            # Let the dispatcher consume the queue: both pairs close on
            # max_batch, no clock advance needed.
            await asyncio.gather(*futures)
            stats = svc.stats()
            await svc.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.batches"] == 2


class TestBackpressure:
    def test_sheds_visibly_when_queue_full(self):
        archive, names = small_archive()
        config = ServeConfig(batch_window=0.0, queue_limit=2)

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                admitted = [svc.try_submit(names[0]) for _ in range(2)]
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    svc.try_submit(names[0])
                await asyncio.gather(*admitted)  # admitted still finish
                return exc_info.value, svc.stats()

        exc, stats = asyncio.run(scenario())
        assert exc.queue_depth == 2
        assert stats["counters"]["serve.shed"] == 1
        assert stats["counters"]["serve.completed"] == 2

    def test_capacity_frees_as_requests_complete(self):
        archive, names = small_archive()
        config = ServeConfig(batch_window=0.0, queue_limit=1)

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                for _ in range(3):  # sequential: never over the limit
                    await svc.submit(names[0])
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.completed"] == 3
        assert "serve.shed" not in stats["counters"]


class TestDeadlines:
    def test_deadline_expires_while_batching(self):
        archive, names = small_archive()
        clock = FakeClock()
        config = ServeConfig(batch_window=60.0)

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            future = svc.try_submit(names[0], deadline=1.0)
            clock.advance(2.0)  # window still open; deadline long gone
            await svc.drain()
            with pytest.raises(DeadlineExceededError):
                future.result()
            stats = svc.stats()
            await svc.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.deadline_exceeded"] == 1
        assert "serve.completed" not in stats["counters"]

    def test_deadline_expires_mid_batch(self):
        archive, names = small_archive()
        clock = FakeClock()
        real_stripe_blocks = archive.stripe_blocks

        def slow_stripe_blocks(name, record):
            clock.advance(2.0)  # decode work outlives the deadline
            return real_stripe_blocks(name, record)

        archive.stripe_blocks = slow_stripe_blocks
        config = ServeConfig(batch_window=0.0)

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            with pytest.raises(DeadlineExceededError):
                await svc.submit(names[0], deadline=1.0)
            stats = svc.stats()
            await svc.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.deadline_exceeded"] == 1

    def test_default_deadline_applies(self):
        archive, names = small_archive()
        clock = FakeClock()
        config = ServeConfig(batch_window=60.0, default_deadline=0.5)

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            future = svc.try_submit(names[0])
            clock.advance(1.0)
            await svc.drain()
            with pytest.raises(DeadlineExceededError):
                future.result()
            await svc.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_non_positive_deadline_rejected(self, deadline):
        archive, names = small_archive()

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                with pytest.raises(ValueError, match="deadline"):
                    await svc.submit(names[0], deadline=deadline)
                return svc.stats()

        stats = asyncio.run(scenario())
        assert "serve.requests" not in stats["counters"]
        assert stats["pending"] == 0


class TestLifecycle:
    def test_submit_before_start_is_refused(self):
        archive, names = small_archive()
        svc = ReconstructionService(archive, UNBATCHED)
        with pytest.raises(ServiceClosedError):
            svc.try_submit(names[0])

    def test_drain_finishes_inflight_then_refuses_new_work(self):
        archive, names = small_archive()
        expected = archive.get(names[0])

        async def scenario():
            svc = ReconstructionService(archive, UNBATCHED)
            await svc.start()
            futures = [svc.try_submit(names[0]) for _ in range(6)]
            await svc.drain()
            results = [f.result() for f in futures]
            with pytest.raises(ServiceClosedError):
                svc.try_submit(names[0])
            await svc.close()
            return results

        assert asyncio.run(scenario()) == [expected] * 6

    def test_state_transitions(self):
        archive, _ = small_archive()

        async def scenario():
            svc = ReconstructionService(archive, UNBATCHED)
            states = [svc.state]
            await svc.start()
            states.append(svc.state)
            await svc.close()
            states.append(svc.state)
            return states

        assert asyncio.run(scenario()) == ["idle", "running", "closed"]

    def test_close_is_idempotent(self):
        archive, _ = small_archive()

        async def scenario():
            svc = ReconstructionService(archive, UNBATCHED)
            await svc.start()
            await svc.close()
            await svc.close()

        asyncio.run(scenario())

    def test_stats_shape(self):
        archive, names = small_archive()

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                await svc.submit(names[0])
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["state"] == "running"
        assert stats["pending"] == 0
        assert set(stats["plan_cache"]) == {
            "size",
            "capacity",
            "hits",
            "misses",
            "evictions",
        }
        assert stats["counters"]["serve.requests"] == 1
        assert stats["gauges"]["serve.queue_depth"] == 0
        assert "serve.request_latency_seconds" in stats["histograms"]


class TestDegradedReads:
    def test_retry_outlasts_transient_outage(self):
        archive, names = small_archive()
        every_device = range(len(archive.devices))
        archive.devices.interrupt(every_device)

        def repair(_delay: float) -> None:
            archive.devices.restore(every_device)

        config = ServeConfig(
            batch_window=0.0,
            retry=RetryPolicy(max_attempts=2, sleep=repair),
        )
        expected_size = archive.objects[names[0]].size

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                data = await svc.submit(names[0])
                return data, svc.stats()

        data, stats = asyncio.run(scenario())
        assert len(data) == expected_size
        assert stats["counters"]["serve.retries"] >= 1
        assert stats["counters"]["serve.completed"] == 1

    def test_transient_outage_outlasting_retries_surfaces(self):
        archive, names = small_archive()
        archive.devices.interrupt(range(len(archive.devices)))
        config = ServeConfig(
            batch_window=0.0,
            retry=RetryPolicy(max_attempts=1, sleep=lambda _d: None),
        )

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                await svc.submit(names[0])

        with pytest.raises(TransientUnavailableError):
            asyncio.run(scenario())

    def test_no_retry_policy_fails_fast_on_transients(self):
        archive, names = small_archive()
        archive.devices.interrupt(range(len(archive.devices)))

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                await svc.submit(names[0])

        with pytest.raises(TransientUnavailableError):
            asyncio.run(scenario())

    def test_healthy_requests_draw_no_retry_schedule(self):
        """The backoff schedule is drawn on a planning failure only;
        healthy requests never build it."""
        draws = []

        class CountingPolicy(RetryPolicy):
            def delays(self):
                draws.append(1)
                return super().delays()

        archive, names = small_archive()
        config = ServeConfig(
            batch_window=0.0,
            retry=CountingPolicy(max_attempts=2, sleep=lambda _d: None),
        )

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                for i in range(20):
                    await svc.submit(names[i % len(names)])
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.completed"] == 20
        assert draws == []

    def test_permanent_loss_raises_data_loss(self):
        archive, names = small_archive()
        archive.devices.fail(range(len(archive.devices)))

        async def scenario():
            async with ReconstructionService(archive, UNBATCHED) as svc:
                with pytest.raises(DataLossError):
                    await svc.submit(names[0])
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["serve.plan_failures"] == 1

    def test_one_lost_object_does_not_fail_the_batch(self):
        archive, names = small_archive()
        clock = FakeClock()
        config = ServeConfig(batch_window=60.0)
        expected = archive.get(names[1])

        async def scenario():
            svc = ReconstructionService(archive, config, clock=clock)
            await svc.start()
            bad = svc.try_submit("no-such-object")
            good = svc.try_submit(names[1])
            await svc.drain()
            with pytest.raises(KeyError):
                bad.result()
            result = good.result()
            await svc.close()
            return result

        assert asyncio.run(scenario()) == expected


def counted(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestDecodePath:
    """The service decodes with the calls ``archive.get`` makes.

    The service's twin of ``tests/cluster/test_recovery_calls.py``:
    ``perf/`` attributes decode time by wrapping ``PlanCache.schedule``
    and ``TornadoCodec.decode_blocks_with_schedule``.
    """

    def coalesced_calls(self, monkeypatch, severity, requests):
        """``requests`` reads of one 3-stripe object in one batch."""
        archive, names = seeded_archive(
            objects=1,
            object_size=3 * 48 * 64 - 100,
            block_size=64,
            severity=severity,
            seed=0,
        )
        stripes = len(archive.objects[names[0]].stripes)
        assert stripes == 3
        expected = archive.get(names[0])
        calls = {}
        counted(
            monkeypatch, repro.serve.plancache.PlanCache, "schedule", calls
        )
        counted(monkeypatch, archive, "stripe_blocks", calls)
        counted(monkeypatch, TornadoCodec, "decode_blocks", calls)
        counted(
            monkeypatch, TornadoCodec, "decode_blocks_with_schedule", calls
        )
        clock = FakeClock()

        async def scenario():
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=60.0), clock=clock
            )
            await svc.start()
            futures = [svc.try_submit(names[0]) for _ in range(requests)]
            await svc.drain()
            stats = svc.stats()
            await svc.close()
            return [f.result() for f in futures], stats

        results, stats = asyncio.run(scenario())
        assert results == [expected] * requests
        assert stats["counters"]["serve.batches"] == 1
        return calls, stripes, stats

    def test_healthy_stripe_looks_up_no_plan(self, monkeypatch):
        calls, stripes, stats = self.coalesced_calls(monkeypatch, 0, 1)
        # No plan lookup, no replay: the data rows as they are.
        assert calls == {"stripe_blocks": stripes, "decode_blocks": stripes}
        counters = stats["counters"]
        assert "serve.plan_cache.hits" not in counters
        assert "serve.plan_cache.misses" not in counters

    def test_degraded_stripe_costs_one_schedule_and_one_replay(
        self, monkeypatch
    ):
        calls, stripes, stats = self.coalesced_calls(monkeypatch, 2, 1)
        assert calls == {
            "stripe_blocks": stripes,
            "decode_blocks": stripes,
            "schedule": stripes,
            "decode_blocks_with_schedule": stripes,
        }
        counters = stats["counters"]
        assert (
            counters.get("serve.plan_cache.hits", 0)
            + counters.get("serve.plan_cache.misses", 0)
            == stripes
        )

    @pytest.mark.parametrize("severity", [0, 2])
    def test_coalesced_requests_decode_each_stripe_once(
        self, monkeypatch, severity
    ):
        calls, stripes, stats = self.coalesced_calls(
            monkeypatch, severity, 5
        )
        assert stats["counters"]["serve.coalesced"] == 4
        assert calls["stripe_blocks"] == stripes
        assert calls["decode_blocks"] == stripes
        assert calls.get("schedule", 0) == (stripes if severity else 0)

    @pytest.mark.parametrize(
        "batched", [True, False], ids=["batched", "unbatched"]
    )
    @pytest.mark.parametrize("severity", [0, 4, 12])
    def test_served_bytes_equal_archive_get(self, severity, batched):
        archive, names = seeded_archive(
            objects=4,
            object_size=5000,
            block_size=64,
            severity=severity,
            seed=11,
        )
        expected = {name: archive.get(name) for name in names}
        config = (
            ServeConfig(batch_window=0.005, max_batch=64)
            if batched
            else ServeConfig(batch_window=0.0, plan_capacity=0)
        )
        picks = [names[i % len(names)] for i in range(16)]

        async def scenario():
            async with ReconstructionService(archive, config) as svc:
                return await asyncio.gather(*map(svc.submit, picks))

        served = asyncio.run(scenario())
        assert served == [expected[name] for name in picks]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_limit": 0},
            {"batch_window": -0.001},
            {"max_batch": 0},
            {"plan_capacity": -1},
            {"default_deadline": 0.0},
            {"default_deadline": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
