"""Interval arithmetic for the per-layer budget.

A span is a ``(start, end)`` pair on the ``time.perf_counter`` clock.
Every span the traced run records — the program's own ``repro.obs``
spans and the wrappers ``perf/layers.py`` installs — lives in one
process and on that one clock, so causality can be read off time
containment and no parent ids have to cross thread or task boundaries.

Two definitions, both from the choosing-metrics guide:

* a span's **self time** is its duration minus the part of that interval
  its child spans cover (:func:`self_time`) — children may overlap, as 96
  concurrent ``block.put`` RPCs under one ``cluster.put`` do, so "the
  part covered" is the measure of the children's *union*;
* the **exclusive budget** (:func:`exclusive`) applies that rule to whole
  layers at once: walking layers innermost first, each keeps the time
  during which no inner layer was running.  The pieces are disjoint, so
  they add up to the measure of everything recorded — a budget that sums
  to the end-to-end time by construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Interval = tuple[float, float]


def union(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, disjoint cover of ``intervals`` (empty ones dropped)."""
    merged: list[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def measure(intervals: Iterable[Interval]) -> float:
    """Total length of already-disjoint intervals."""
    return sum(end - start for start, end in intervals)


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Intersection of two sorted disjoint interval lists."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """``a`` minus ``b`` for two sorted disjoint interval lists."""
    out: list[Interval] = []
    j = 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            if b[k][0] > start:
                out.append((start, b[k][0]))
            start = max(start, b[k][1])
            k += 1
        if end > start:
            out.append((start, end))
    return out


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """Duration of ``span`` not covered by any of its ``children``."""
    own = [span] if span[1] > span[0] else []
    return measure(subtract(own, union(children)))


def exclusive(
    layers: Sequence[tuple[str, Iterable[Interval]]],
) -> dict[str, list[Interval]]:
    """Per-layer exclusive time, ``layers`` ordered innermost first.

    Each layer keeps the part of its (unioned) intervals that no layer
    earlier in the list covers.  Returned lists are sorted and disjoint,
    and disjoint from one another.
    """
    covered: list[Interval] = []
    out: dict[str, list[Interval]] = {}
    for name, intervals in layers:
        own = union(intervals)
        out[name] = subtract(own, covered)
        covered = union(covered + own)
    return out
