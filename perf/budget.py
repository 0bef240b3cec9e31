"""From recorded spans to per-operation, per-layer numbers.

The runner is one closed-loop caller, so at most one operation is in
flight and every span recorded between an operation's start and end
belongs to it.  :class:`OpIndex` assigns spans to operations by that
rule; :func:`exclusive_by_kind` splits each operation's wall time over
the layers with :func:`perf.spans.exclusive`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from common import Window
from spans import Interval, exclusive, intersect, measure, union


@dataclass
class Tally:
    """What one layer did inside the operations of one kind."""

    count: int = 0
    seconds: float = 0.0
    extra: float = 0.0


class OpIndex:
    """Operation windows, sorted, for assigning a span to its operation."""

    def __init__(self, windows: Iterable[Window]):
        self.windows = sorted(windows, key=lambda w: w[1])
        self._starts = [w[1] for w in self.windows]
        self.count: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        for kind, start, end in self.windows:
            self.count[kind] += 1
            self.seconds[kind] += end - start

    def kind_at(self, t: float) -> str | None:
        """Kind of the operation in flight at time ``t`` (None if idle)."""
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t <= self.windows[i][2]:
            return self.windows[i][0]
        return None

    def intervals(self, kind: str) -> list[Interval]:
        return [(s, e) for k, s, e in self.windows if k == kind]

    def tally(
        self, records: Iterable[tuple[float, float, Any]]
    ) -> dict[str, Tally]:
        """Per operation kind: calls, summed duration, summed ``extra``."""
        out: dict[str, Tally] = defaultdict(Tally)
        for start, end, extra in records:
            kind = self.kind_at(start)
            if kind is None:
                continue
            t = out[kind]
            t.count += 1
            t.seconds += end - start
            if extra is not None:
                t.extra += extra
        return out


def span_triples(
    records: Iterable[dict[str, Any]], prefix: str
) -> list[tuple[float, float, None]]:
    """``repro.obs`` span records whose name starts with ``prefix``."""
    return [
        (r["start"], r["start"] + r["elapsed"], None)
        for r in records
        if r["name"].startswith(prefix) and r.get("elapsed") is not None
    ]


def exclusive_by_kind(
    ops: OpIndex,
    layers: Sequence[tuple[str, Iterable[Interval]]],
) -> dict[str, dict[str, float]]:
    """``{kind: {layer: exclusive seconds}}`` plus ``"unattributed"``.

    ``layers`` is ordered innermost first.  Within the windows of one
    kind the layers' exclusive times and ``unattributed`` add up to the
    windows' total wall time.
    """
    pieces = exclusive(layers)
    out: dict[str, dict[str, float]] = {}
    for kind in ops.count:
        windows = union(ops.intervals(kind))
        row = {
            name: measure(intersect(part, windows))
            for name, part in pieces.items()
        }
        row["unattributed"] = ops.seconds[kind] - sum(row.values())
        out[kind] = row
    return out


def format_budget(
    table: dict[str, dict[str, float]], ops: OpIndex
) -> list[str]:
    """Human-readable budget: ms per operation and share, per layer."""
    lines: list[str] = []
    for kind, row in table.items():
        n = ops.count[kind]
        total = ops.seconds[kind]
        if not n or total <= 0:
            continue
        lines.append(
            f"budget {kind}: {n} ops, {1e3 * total / n:.3f} ms/op wall"
        )
        for name, seconds in sorted(row.items(), key=lambda kv: -kv[1]):
            if not seconds:
                continue  # a layer this operation never enters
            lines.append(
                f"  {name:<24}{1e3 * seconds / n:>10.3f} ms/op"
                f"{100 * seconds / total:>7.1f} %"
            )
    return lines
