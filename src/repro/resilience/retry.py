"""Deterministic retry-with-exponential-backoff policy.

Every retry in the archive stack runs through one of the two backoff
loops here: :meth:`RetryPolicy.call` for blocking callers (degraded
reads of :meth:`repro.storage.TornadoArchive.get` with ``retry=``, the
blocking protocol client) and :meth:`RetryPolicy.acall` for coroutines
(the reconstruction service's planning, the coordinator→node and
gateway→site links).  Both apply one rule — while a needed device,
node or site may still come back, back off and retry, and never
report loss — and callers differ only in which exceptions retry and
which counter a retry increments.  Jitter is drawn through
:func:`repro.obs.seeding.resolve_rng` from a seed resolved once, so a
seeded fault-injection campaign produces the same delay sequence
run-to-run.

The ``sleep`` hook decouples the policy from wall time: simulations
install a virtual clock (the campaign engine advances device recovery
between steps, so intra-step sleeping is a no-op), tests install a
callback that repairs the world, and interactive callers keep the
default ``time.sleep`` (``asyncio.sleep`` in :meth:`acall`).
"""

from __future__ import annotations

import asyncio
import copy
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from .._checks import check_count, check_seconds
from ..obs.registry import registry
from ..obs.seeding import SeedLike, resolve_rng

__all__ = ["NO_RETRY", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded attempts and seeded jitter.

    Attempt ``i`` (0-based) waits ``min(max_delay, base_delay *
    multiplier**i)`` scaled by a jitter factor uniform in
    ``[1 - jitter, 1 + jitter]``.  The seed is resolved once, at
    construction (a ``Generator`` seed is snapshotted, a ``None`` seed
    draws its entropy then), so ``delays()`` regenerates the exact same
    sequence every call, which keeps campaigns and tests deterministic.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: SeedLike = 0
    sleep: Callable[[float], None] | None = field(
        default=None, repr=False, compare=False
    )
    _rng: np.random.Generator = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_count(self.max_attempts, "max_attempts")
        check_seconds(self.base_delay, "base_delay", zero=True)
        check_seconds(self.max_delay, "max_delay", zero=True)
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must lie in [0, 1)")
        object.__setattr__(
            self, "_rng", copy.deepcopy(resolve_rng(self.seed))
        )

    def delays(self) -> list[float]:
        """The full deterministic backoff schedule (one delay/attempt)."""
        rng = copy.deepcopy(self._rng)
        out = []
        for i in range(self.max_attempts):
            base = min(self.max_delay, self.base_delay * self.multiplier**i)
            factor = 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
            out.append(base * factor)
        return out

    def wait(self, attempt: int) -> bool:
        """Back off once, before retry number ``attempt`` (0-based).

        Returns False (without sleeping) once attempts are exhausted.
        """
        if attempt >= self.max_attempts:
            return False
        (self.sleep or time.sleep)(self._backoff(self.delays()[attempt]))
        return True

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        retry_on: type[BaseException] | tuple = (IOError,),
        counter: Any = None,
    ) -> Any:
        """Run ``fn(*args)``, retrying on ``retry_on`` with backoff.

        The schedule is drawn once, on the first failure: a call that
        succeeds first time draws nothing.  Each retry increments
        ``counter`` (a metric name in the active registry, or any
        object with ``inc()``) before it backs off.  Re-raises the last
        exception once attempts are exhausted; anything else propagates
        at once.
        """
        delays = None
        attempt = 0
        while True:
            try:
                return fn(*args)
            except retry_on:
                if delays is None:
                    delays = self.delays()
                if attempt >= len(delays):
                    raise
                delay = self._backoff(delays[attempt], counter)
                (self.sleep or time.sleep)(delay)
                attempt += 1

    async def acall(
        self,
        fn: Callable[..., Awaitable[Any]],
        *args: Any,
        retry_on: type[BaseException] | tuple = (IOError,),
        counter: Any = None,
    ) -> Any:
        """:meth:`call` for a coroutine function: awaits ``fn(*args)``.

        Backs off through the ``sleep`` hook when one is set (called
        synchronously: it repairs or advances the world), else through
        ``asyncio.sleep``.
        """
        delays = None
        attempt = 0
        while True:
            try:
                return await fn(*args)
            except retry_on:
                if delays is None:
                    delays = self.delays()
                if attempt >= len(delays):
                    raise
                delay = self._backoff(delays[attempt], counter)
                if self.sleep is not None:
                    self.sleep(delay)
                else:
                    await asyncio.sleep(delay)
                attempt += 1

    @staticmethod
    def _backoff(delay: float, counter: Any = None) -> float:
        """Count one retry and its wait; returns ``delay``."""
        reg = registry()
        if counter is not None:
            if isinstance(counter, str):
                counter = reg.counter(counter)
            counter.inc()
        reg.counter("resilience.retry.waits").inc()
        reg.histogram("resilience.retry.delay_seconds").observe(delay)
        return delay


# Fail on the first error: the policy of a caller configured without one.
NO_RETRY = RetryPolicy(max_attempts=0)
