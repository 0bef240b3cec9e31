"""What every workload shares: round records, order statistics, checks."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

Window = tuple[str, float, float]


@dataclass
class Round:
    """One round of a workload's fixed work.

    ``wall_s`` covers the timed phases only; ``windows`` are the
    ``(kind, start, end)`` extents of each timed operation on the
    ``perf_counter`` clock, which is how a traced run assigns spans to
    operations; ``counts`` holds the round's exact tallies (bytes, blocks).
    """

    wall_s: float = 0.0
    windows: list[Window] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


class PhaseClock:
    """Adds the wall seconds of one timed phase to a round."""

    def __init__(self, rnd: Round):
        self.rnd = rnd

    def __enter__(self) -> "PhaseClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.rnd.wall_s += time.perf_counter() - self._start


class Checks:
    """Output verification tally: every check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)
        return bool(ok)


@dataclass(frozen=True)
class Stat:
    """A reported number with the sample it summarises."""

    value: float
    n: int = 1
    q1: float | None = None
    q3: float | None = None
    median: float | None = None  # set when ``value`` is not the median


def median_stat(values: Sequence[float]) -> Stat:
    """Median with quartiles and sample count (the default summary)."""
    values = list(values)
    if not values:
        return Stat(0.0, 0)
    if len(values) < 2:
        return Stat(float(values[0]), 1)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Stat(float(statistics.median(values)), len(values), q1, q3)


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def durations(windows: Iterable[Window], kind: str) -> list[float]:
    return [end - start for k, start, end in windows if k == kind]
