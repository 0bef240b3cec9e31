"""Telemetry analysis: turn JSONL event/trace files into answers.

One traced run should answer "where did the p99 go" without re-running
anything.  This module is the offline half of that promise — it loads
the JSONL streams written by :class:`~repro.obs.sink.JsonlSink`
(metrics events, ``trace.span`` records, ``run_manifest`` closers) and
derives:

* **span trees** (:func:`build_trace_trees`) — request → batch →
  decode → worker causality, with orphan and repeated-id detection so
  a broken propagation path or a reused tracer seed is visible instead
  of silently flattening the tree (a span whose process was killed
  before it ended shows from its ``trace.open`` record, marked
  interrupted);
* **per-phase latency breakdowns** (:func:`phase_stats`) — every
  tracer span name folded into a quantile histogram, rendered by
  :func:`format_phase_report`;
* **human-readable tails** (:func:`format_tail`) of the raw stream.

The ``repro obs`` CLI family (``tail``, ``report``, ``trace-tree``)
is a thin wrapper over these functions; CI's obs-smoke job uses the
same entry points to assert trace well-formedness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .registry import Histogram
from .sink import read_jsonl

__all__ = [
    "SpanNode",
    "build_trace_trees",
    "format_phase_report",
    "format_tail",
    "load_events",
    "phase_stats",
    "render_trace_tree",
    "span_records",
]


def load_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All events from a JSONL telemetry file (metrics and/or trace)."""
    return read_jsonl(path)


def span_records(
    events: Iterable[dict[str, Any]],
) -> list[dict[str, Any]]:
    """The ``trace.span`` and ``trace.open`` records in an event stream."""
    return [
        e for e in events if e.get("event") in ("trace.span", "trace.open")
    ]


@dataclass
class SpanNode:
    """One span in a reassembled trace tree."""

    record: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def span_id(self) -> str | None:
        return self.record.get("span_id")

    @property
    def trace_id(self) -> str | None:
        return self.record.get("trace_id")

    @property
    def elapsed(self) -> float | None:
        return self.record.get("elapsed")

    @property
    def interrupted(self) -> bool:
        """Known only from its open record: its process never ended it."""
        return self.record.get("event") == "trace.open"

    @property
    def attrs(self) -> dict[str, Any]:
        return self.record.get("attrs") or {}

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_trace_trees(
    spans: Sequence[dict[str, Any]],
) -> tuple[list[SpanNode], list[SpanNode], list[SpanNode]]:
    """Reassemble span records into trees.

    Returns ``(roots, orphans, repeated)``: roots are spans with no
    parent; orphans carry a ``parent_id`` that appears nowhere in the
    stream — the signature of a broken propagation path (e.g. a worker
    that dropped its context); repeated spans carry a ``span_id`` an
    earlier record already has — the signature of two tracers on one
    seed (e.g. a restarted process) — and stay out of the trees.  A
    ``trace.open`` record stands in for a span that never ended (its
    process was killed); beside the same span's own record (same trace,
    parent, name and start) it is dropped, not repeated.
    Children sort by start time, trees by trace then start, so
    rendering is deterministic.
    """
    nodes: dict[str, SpanNode] = {}
    repeated: list[SpanNode] = []
    # Finished records first, so a span's own open record finds it.
    for rec in sorted(spans, key=lambda r: r.get("event") == "trace.open"):
        known = nodes.get(rec.get("span_id"))
        if known is None:
            if rec.get("span_id"):
                nodes[rec["span_id"]] = SpanNode(rec)
        elif not _same_span_open(rec, known.record):
            repeated.append(SpanNode(rec))
    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for node in nodes.values():
        parent_id = node.record.get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            orphans.append(node)

    def sort_key(node: SpanNode) -> tuple:
        return (
            node.trace_id or "",
            node.record.get("start") or 0.0,
            node.span_id or "",
        )

    for node in nodes.values():
        node.children.sort(key=sort_key)
    roots.sort(key=sort_key)
    orphans.sort(key=sort_key)
    repeated.sort(key=sort_key)
    return roots, orphans, repeated


def _same_span_open(rec: dict[str, Any], known: dict[str, Any]) -> bool:
    """``rec`` is the open record of the span ``known`` records."""
    return rec.get("event") == "trace.open" and all(
        rec.get(k) == known.get(k)
        for k in ("trace_id", "parent_id", "name", "start")
    )


def _fmt_elapsed(elapsed: float | None) -> str:
    if elapsed is None:
        return "?"
    if elapsed >= 1.0:
        return f"{elapsed:.3f}s"
    return f"{elapsed * 1e3:.2f}ms"


def _fmt_attrs(attrs: dict[str, Any], limit: int = 6) -> str:
    parts = []
    for key, value in list(attrs.items())[:limit]:
        text = str(value)
        if len(text) > 40:
            text = text[:37] + "..."
        parts.append(f"{key}={text}")
    if len(attrs) > limit:
        parts.append("...")
    return " ".join(parts)


def render_trace_tree(
    roots: Sequence[SpanNode],
    orphans: Sequence[SpanNode] = (),
    repeated: Sequence[SpanNode] = (),
    *,
    trace_id: str | None = None,
) -> str:
    """Indented span tree, one trace per block.

    ``trace_id`` (full or prefix) restricts output to one trace.
    Orphaned and repeated spans are listed explicitly at the end — two
    empty sections are the well-formedness certificate CI asserts on.
    """
    lines: list[str] = []

    def matches(node: SpanNode) -> bool:
        return trace_id is None or (node.trace_id or "").startswith(
            trace_id
        )

    def emit(node: SpanNode, depth: int) -> None:
        attrs = _fmt_attrs(node.attrs)
        lines.append(
            "  " * depth
            + f"- {node.name} "
            + ("interrupted" if node.interrupted
               else _fmt_elapsed(node.elapsed))
            + (f" [{attrs}]" if attrs else "")
        )
        for child in node.children:
            emit(child, depth + 1)

    shown = 0
    for root in roots:
        if not matches(root):
            continue
        span_count = sum(1 for _ in root.walk())
        lines.append(
            f"trace {root.trace_id} "
            f"({root.name}, {span_count} spans)"
        )
        emit(root, 1)
        shown += 1
    if not shown:
        lines.append("no matching traces")
    for title, found, detail in (
        ("orphaned spans", orphans,
         lambda n: f"missing parent={n.record.get('parent_id')}"),
        ("repeated span ids", repeated, lambda n: f"span={n.span_id}"),
    ):
        visible = [n for n in found if matches(n)]
        lines.append(
            f"{title} ({len(visible)}):" if visible else f"{title}: none"
        )
        lines.extend(
            f"  ! {n.name} {_fmt_elapsed(n.elapsed)} "
            f"trace={n.trace_id} {detail(n)}"
            for n in visible
        )
    return "\n".join(lines)


def phase_stats(
    events: Iterable[dict[str, Any]],
) -> dict[str, Histogram]:
    """Per-phase latency histograms from an event stream.

    Folds every ``trace.span`` record's ``elapsed`` into a quantile
    histogram keyed by span name; other events are ignored.
    """
    stats: dict[str, Histogram] = {}
    for event in events:
        if event.get("event") != "trace.span":
            continue
        elapsed = event.get("elapsed")
        if elapsed is not None:
            name = event.get("name", "?")
            hist = stats.get(name)
            if hist is None:
                hist = stats[name] = Histogram(name)
            hist.observe(float(elapsed))
    return stats


def format_phase_report(stats: dict[str, Histogram]) -> str:
    """Fixed-width per-phase latency table, heaviest phases first."""
    if not stats:
        return "no timed phases found"
    headers = ["phase", "count", "total", "mean", "p50", "p90", "p99", "max"]
    rows = []
    for hist in sorted(
        stats.values(), key=lambda h: h.total, reverse=True
    ):
        rows.append(
            [
                hist.name,
                str(hist.count),
                _fmt_elapsed(hist.total),
                _fmt_elapsed(hist.mean),
                _fmt_elapsed(hist.quantile(0.50)),
                _fmt_elapsed(hist.quantile(0.90)),
                _fmt_elapsed(hist.quantile(0.99)),
                _fmt_elapsed(hist.max),
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(cells, widths))
        ).rstrip()

    return "\n".join([line(headers)] + [line(r) for r in rows])


def format_tail(
    events: Sequence[dict[str, Any]],
    n: int = 20,
    *,
    kind: str | None = None,
) -> str:
    """The last ``n`` events, one compact line each.

    ``kind`` filters by event-name prefix (``serve.`` matches every
    serving event; ``trace.span`` shows only spans).
    """
    if kind is not None:
        events = [
            e for e in events if e.get("event", "").startswith(kind)
        ]
    tail = list(events)[-n:]
    if not tail:
        return "no matching events"
    lines = []
    for event in tail:
        name = event.get("event", "?")
        if name == "trace.span":
            attrs = _fmt_attrs(event.get("attrs") or {})
            lines.append(
                f"trace.span {event.get('name')} "
                f"{_fmt_elapsed(event.get('elapsed'))} "
                f"trace={event.get('trace_id')}"
                + (f" [{attrs}]" if attrs else "")
            )
        else:
            fields = {
                k: v
                for k, v in event.items()
                if k not in ("event", "ts")
            }
            attrs = _fmt_attrs(fields, limit=8)
            lines.append(f"{name}" + (f" {attrs}" if attrs else ""))
    return "\n".join(lines)
