"""Micro-batching: coalescing concurrent requests into shared decodes.

A batch window trades a bounded amount of latency (at most ``window``
seconds) for amortisation: requests that arrive while a batch is open
for their key share one dispatch and — for identical objects — one
decode.  The batcher itself is deliberately
*pure*: it never sleeps, spawns tasks, or reads the wall clock except
through the injected ``clock`` callable, so every edge case (empty
flush, window expiry, burst overflow, drain) is deterministic under
test with a fake clock.  The asyncio service drives it: add items as
they arrive, ask :meth:`next_due` how long to wait, pop due batches.

``window=0`` degenerates to unbatched operation — every ``add``
returns a closed single-item batch immediately — which is the baseline
configuration for the serving benchmark.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from .._checks import check_count, check_seconds

__all__ = ["Batch", "MicroBatcher"]


@dataclass
class Batch:
    """A group of requests sharing one dispatch."""

    key: Hashable
    items: list = field(default_factory=list)
    opened_at: float = 0.0

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Groups items by key within a fixed time window.

    A batch for a key opens when its first item arrives and closes when
    the window elapses, :attr:`max_batch` items accumulate, or the
    batcher is flushed — whichever comes first.  Closing is *pull
    based*: the owner calls :meth:`pop_due` (typically after sleeping
    until :meth:`next_due`) or receives a full batch directly from
    :meth:`add`.
    """

    def __init__(
        self,
        window: float = 0.0,
        max_batch: int = 32,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_seconds(window, "window", zero=True)
        check_count(max_batch, "max_batch", 1)
        self.window = window
        self.max_batch = max_batch
        self._clock = clock
        self._open: OrderedDict[Hashable, Batch] = OrderedDict()

    def __len__(self) -> int:
        """Items currently held in open batches."""
        return sum(len(b) for b in self._open.values())

    @property
    def open_batches(self) -> int:
        return len(self._open)

    def add(self, key: Hashable, item: Any) -> Batch | None:
        """Add an item; returns the batch iff this add closed it.

        With a zero window the item's batch closes immediately; with a
        positive window the batch closes here only when it reaches
        ``max_batch`` items (time-based closure happens in
        :meth:`pop_due`).
        """
        now = self._clock()
        if self.window <= 0:
            return Batch(key=key, items=[item], opened_at=now)
        batch = self._open.get(key)
        if batch is None:
            batch = self._open[key] = Batch(key=key, opened_at=now)
        batch.items.append(item)
        if len(batch) >= self.max_batch:
            del self._open[key]
            return batch
        return None

    def next_due(self) -> float | None:
        """Clock time at which the oldest open batch expires, or None."""
        if not self._open:
            return None
        oldest = min(b.opened_at for b in self._open.values())
        return oldest + self.window

    def pop_due(self, now: float | None = None) -> list[Batch]:
        """Close and return every batch whose window has elapsed.

        Returns an empty list when nothing is due — including when no
        batches are open at all (the "empty window flush"), so the
        caller's dispatch loop needs no special cases.
        """
        if now is None:
            now = self._clock()
        due = [
            key
            for key, b in self._open.items()
            if now - b.opened_at >= self.window
        ]
        return [self._open.pop(key) for key in due]

    def pop_all(self) -> list[Batch]:
        """Close and return every open batch regardless of age (drain)."""
        batches = list(self._open.values())
        self._open.clear()
        return batches
