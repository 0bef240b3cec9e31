"""Tests for offline telemetry analysis (repro.obs.analyze)."""

from repro.obs.analyze import (
    build_trace_trees,
    format_phase_report,
    format_tail,
    load_events,
    phase_stats,
    render_trace_tree,
    span_records,
)
from repro.obs.sink import JsonlSink
from repro.obs.trace import Tracer


def make_spans():
    t = Tracer(seed=0)
    with t.start_span("root", kind="test"):
        with t.start_span("child-a"):
            t.start_span("leaf").end()
        t.start_span("child-b").end()
    return t.records


class TestTraceTrees:
    def test_tree_reassembly(self):
        roots, orphans = build_trace_trees(make_spans())
        assert orphans == []
        (root,) = roots
        assert root.name == "root"
        assert sorted(c.name for c in root.children) == [
            "child-a",
            "child-b",
        ]
        assert [n.name for n in root.walk()].count("leaf") == 1

    def test_orphans_detected(self):
        spans = make_spans()
        # Drop the root: its children become orphans (their parent_id
        # appears nowhere in the stream).
        spans = [r for r in spans if r["name"] != "root"]
        roots, orphans = build_trace_trees(spans)
        assert roots == []
        assert sorted(n.name for n in orphans) == [
            "child-a",
            "child-b",
        ]

    def test_render_includes_orphan_certificate(self):
        roots, orphans = build_trace_trees(make_spans())
        text = render_trace_tree(roots, orphans)
        assert "orphaned spans: none" in text
        assert "root" in text and "leaf" in text

    def test_render_flags_orphans(self):
        spans = [r for r in make_spans() if r["name"] != "root"]
        roots, orphans = build_trace_trees(spans)
        text = render_trace_tree(roots, orphans)
        assert "orphaned spans (2):" in text
        assert "missing parent=" in text

    def test_render_trace_id_filter(self):
        other = Tracer(seed=99)
        other.start_span("other-root", activate=False).end()
        spans = make_spans() + other.records
        roots, orphans = build_trace_trees(span_records(spans))
        wanted = next(r for r in roots if r.name == "root")
        text = render_trace_tree(
            roots, orphans, trace_id=wanted.trace_id[:6]
        )
        assert "root" in text
        assert "other-root" not in text
        none = render_trace_tree(roots, orphans, trace_id="ffff0000")
        assert "no matching traces" in none

    def test_deterministic_ordering(self):
        spans = make_spans()
        a = render_trace_tree(*build_trace_trees(spans))
        b = render_trace_tree(*build_trace_trees(list(reversed(spans))))
        assert a == b


class TestPhaseStats:
    def test_folds_tracer_spans_only(self):
        """Only tracer spans are timed phases; an ``*.end`` event with
        a ``seconds`` field is just another event."""
        events = make_spans() + [
            {"event": "profile.cell.end", "seconds": 0.25},
            {"event": "unrelated", "other": 1},
        ]
        stats = phase_stats(events)
        assert stats["root"].count == 1
        assert "profile.cell" not in stats
        assert set(stats) == set(phase_stats(make_spans()))

    def test_report_table_renders(self):
        stats = phase_stats(make_spans())
        text = format_phase_report(stats)
        header = text.splitlines()[0]
        for col in ("phase", "count", "p50", "p99"):
            assert col in header
        assert "root" in text

    def test_empty_report(self):
        assert format_phase_report({}) == "no timed phases found"


class TestTail:
    def test_tail_filters_and_limits(self):
        events = make_spans() + [
            {"event": "serve.shed", "pending": 9},
        ]
        text = format_tail(events, 10, kind="serve.")
        assert "serve.shed" in text
        assert "trace.span" not in text
        assert format_tail(events, 2).count("\n") == 1

    def test_tail_empty(self):
        assert format_tail([], 5) == "no matching events"


class TestLoadEvents:
    def test_round_trip_through_sink(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        sink = JsonlSink(path)
        t = Tracer(sink=sink, seed=0)
        t.start_span("s", activate=False).end()
        sink.emit({"event": "serve.completed", "n": 1})
        sink.close()
        events = load_events(path)
        assert len(events) == 2
        assert len(span_records(events)) == 1
