"""Tests for the deterministic retry/backoff policy."""

import asyncio

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, capture
from repro.resilience import RetryPolicy


class TestDelays:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=42)
        assert policy.delays() == policy.delays()
        assert len(policy.delays()) == 5

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay=0.1,
            multiplier=2.0,
            max_delay=0.4,
            jitter=0.0,
            seed=0,
        )
        assert policy.delays() == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4, 0.4]
        )

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            max_attempts=50,
            base_delay=1.0,
            multiplier=1.0,
            max_delay=1.0,
            jitter=0.25,
            seed=7,
        )
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.25

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=4, seed=1).delays()
        b = RetryPolicy(max_attempts=4, seed=2).delays()
        assert a != b

    @pytest.mark.parametrize(
        "seed",
        [
            0,
            np.int64(5),
            np.random.SeedSequence(9),
            np.random.default_rng(0),
            None,
        ],
        ids=["int", "np-int", "seed-sequence", "generator", "none"],
    )
    def test_every_seed_form_gives_one_schedule(self, seed):
        policy = RetryPolicy(max_attempts=3, seed=seed)
        assert policy.delays() == policy.delays()

    def test_generator_seed_is_snapshotted_not_shared(self):
        rng = np.random.default_rng(0)
        policy = RetryPolicy(max_attempts=3, seed=rng)
        before = policy.delays()
        rng.uniform(size=10)  # the caller keeps using its stream
        assert policy.delays() == before


class TestWait:
    def test_sleeps_through_hook(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, jitter=0.0, seed=0, sleep=slept.append
        )
        assert policy.wait(0)
        assert policy.wait(2)
        assert slept == [policy.delays()[0], policy.delays()[2]]

    def test_exhaustion_returns_false_without_sleeping(self):
        slept = []
        policy = RetryPolicy(max_attempts=2, sleep=slept.append)
        assert not policy.wait(2)
        assert not policy.wait(99)
        assert slept == []


class TestCall:
    def test_retries_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise IOError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, sleep=lambda _s: None)
        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3

    def test_reraises_after_exhaustion(self):
        policy = RetryPolicy(max_attempts=1, sleep=lambda _s: None)
        calls = []

        def always_fails():
            calls.append(1)
            raise IOError("still down")

        with pytest.raises(IOError):
            policy.call(always_fails)
        assert len(calls) == 2  # initial try + one retry

    def test_unlisted_exceptions_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        calls = []

        def raises_value_error():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.call(raises_value_error)
        assert len(calls) == 1

    def test_exhausted_call_sleeps_exactly_one_schedule(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, seed=np.random.default_rng(0), sleep=slept.append
        )

        def always_fails():
            raise IOError("still down")

        with pytest.raises(IOError):
            policy.call(always_fails)
        assert slept == policy.delays()

    def test_args_counter_and_wait_metrics(self):
        own = MetricsRegistry()
        outcomes = iter([ConnectionError("blip"), ConnectionError("blip")])

        def flaky(a, b):
            for exc in outcomes:
                raise exc
            return a + b

        policy = RetryPolicy(max_attempts=2, sleep=lambda _s: None)
        with capture() as registry:
            assert (
                policy.call(
                    flaky,
                    2,
                    3,
                    retry_on=ConnectionError,
                    counter=own.counter("x.retries"),
                )
                == 5
            )
            policy.call(flaky, 1, 1, counter="y.retries")  # healthy
        assert own.snapshot()["counters"] == {"x.retries": 2}
        counters = registry.snapshot()["counters"]
        assert counters["resilience.retry.waits"] == 2
        assert "y.retries" not in counters


class TestAsyncCall:
    def run(self, policy, fn, **kwargs):
        return asyncio.run(policy.acall(fn, **kwargs))

    def test_retries_until_success_through_the_hook(self):
        attempts, slept = [], []

        async def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise IOError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, seed=3, sleep=slept.append)
        with capture() as registry:
            assert self.run(policy, flaky, counter="a.retries") == "ok"
        assert slept == policy.delays()[:2]
        assert registry.snapshot()["counters"]["a.retries"] == 2

    def test_without_a_hook_awaits_asyncio_sleep(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.001, seed=1)
        awaited = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            awaited.append(delay)
            await real_sleep(0)

        async def always_fails():
            raise IOError("down")

        asyncio.sleep = recording_sleep
        try:
            with pytest.raises(IOError):
                self.run(policy, always_fails)
        finally:
            asyncio.sleep = real_sleep
        assert awaited == policy.delays()

    def test_unlisted_exceptions_propagate_immediately(self):
        calls = []

        async def lost():
            calls.append(1)
            raise ValueError("not retryable")

        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(ValueError):
            self.run(policy, lost, retry_on=ConnectionError)
        assert calls == [1]


class TestValidation:
    def test_rejects_negative_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
