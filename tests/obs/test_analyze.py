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
        roots, orphans, repeated = build_trace_trees(make_spans())
        assert orphans == repeated == []
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
        roots, orphans, _ = build_trace_trees(spans)
        assert roots == []
        assert sorted(n.name for n in orphans) == [
            "child-a",
            "child-b",
        ]

    def test_render_includes_orphan_certificate(self):
        roots, orphans, repeated = build_trace_trees(make_spans())
        text = render_trace_tree(roots, orphans, repeated)
        assert "orphaned spans: none" in text
        assert "repeated span ids: none" in text
        assert "root" in text and "leaf" in text

    def test_render_flags_orphans(self):
        spans = [r for r in make_spans() if r["name"] != "root"]
        roots, orphans, _ = build_trace_trees(spans)
        text = render_trace_tree(roots, orphans)
        assert "orphaned spans (2):" in text
        assert "missing parent=" in text

    def test_repeated_span_ids_detected(self):
        """Two generations of one process on one tracer seed mint the
        same ids; the second copy is reported, not grafted on."""
        first, again = make_spans(), make_spans()
        roots, orphans, repeated = build_trace_trees(first + again)
        assert orphans == []
        (root,) = roots
        assert sum(1 for _ in root.walk()) == len(first)
        assert sorted(n.name for n in repeated) == sorted(
            r["name"] for r in again
        )
        text = render_trace_tree(roots, orphans, repeated)
        assert f"repeated span ids ({len(again)}):" in text

    def test_a_killed_process_leaves_its_open_spans(self, tmp_path):
        """A process SIGKILLed mid-operation never writes the records of
        its open spans; their open records hold the finished children,
        its own and a remote process's, and render as interrupted."""
        import json
        import subprocess
        import sys

        script = (
            "import json, os, signal, sys\n"
            "from repro.obs.sink import JsonlSink\n"
            "from repro.obs.trace import Tracer\n"
            "t = Tracer(sink=JsonlSink(sys.argv[1]), seed=5)\n"
            "op = t.start_span('op')\n"
            "t.start_span('step').end()\n"
            "rpc = t.start_span('rpc')\n"
            "print(json.dumps(rpc.context()), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        killed = tmp_path / "killed.jsonl"
        out = subprocess.run(
            [sys.executable, "-c", script, str(killed)],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == -9
        remote = Tracer(sink=JsonlSink(tmp_path / "remote.jsonl"), seed=6)
        remote.start_span("served", parent=json.loads(out.stdout)).end()
        remote.sink.close()
        events = load_events(killed) + load_events(tmp_path / "remote.jsonl")
        roots, orphans, repeated = build_trace_trees(span_records(events))
        assert orphans == repeated == []
        (root,) = roots
        assert [(n.name, n.interrupted) for n in root.walk()] == [
            ("op", True), ("step", False), ("rpc", True), ("served", False),
        ]
        text = render_trace_tree(roots, orphans, repeated)
        assert "- op interrupted" in text

    def test_an_open_record_of_another_span_is_a_repeat(self, tmp_path):
        """An open record whose id a different finished span holds (two
        generations on one seed) is reported, not dropped."""
        def generation(path):
            t = Tracer(sink=JsonlSink(path), seed=0)
            with t.start_span("root"):
                t.start_span("leaf").end()
            t.sink.close()
            return load_events(path)

        first = generation(tmp_path / "a.jsonl")
        again = generation(tmp_path / "b.jsonl")
        roots, orphans, repeated = build_trace_trees(
            span_records(first + [again[0]])
        )
        assert orphans == [] and len(roots) == 1
        assert [(n.name, n.interrupted) for n in repeated] == [
            ("root", True)
        ]
        _, _, none = build_trace_trees(span_records(first))
        assert none == []

    def test_render_trace_id_filter(self):
        other = Tracer(seed=99)
        other.start_span("other-root", activate=False).end()
        spans = make_spans() + other.records
        roots, orphans, _ = build_trace_trees(span_records(spans))
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
