"""Tests for the causal tracing layer (repro.obs.trace)."""

import json

import pytest

from repro.obs.sink import JsonlSink, read_jsonl
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    add_trace_event,
    context_seed,
    current_context,
    current_span,
    start_span,
    trace_capture,
    trace_span,
    tracer,
    tracing_enabled,
    use_context,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeterministicIds:
    def test_same_seed_same_id_stream(self):
        a = Tracer(seed=42)
        b = Tracer(seed=42)
        assert [a.new_id() for _ in range(5)] == [
            b.new_id() for _ in range(5)
        ]

    def test_different_seeds_diverge(self):
        assert Tracer(seed=1).new_id() != Tracer(seed=2).new_id()

    def test_ids_are_16_hex_chars(self):
        i = Tracer(seed=0).new_id()
        assert len(i) == 16
        int(i, 16)  # must parse as hex

    def test_traced_run_is_reproducible(self):
        def run():
            t = Tracer(seed=7, clock=FakeClock())
            with t.start_span("outer", k=1) as outer:
                t.start_span("inner").end()
                outer.add_event("tick")
            return [
                {k: v for k, v in r.items() if k not in ("start", "elapsed")}
                for r in t.records
            ]

        assert run() == run()

    def test_context_seed_is_deterministic_and_salted(self):
        ctx = {"trace_id": "ab", "span_id": "cd"}
        assert context_seed(ctx, 3) == context_seed(ctx, 3)
        assert context_seed(ctx, 3) != context_seed(ctx, 4)


class TestSpanTree:
    def test_nesting_via_contextvar(self):
        t = Tracer(seed=0)
        with t.start_span("outer") as outer:
            with t.start_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_explicit_parent_crosses_tasks(self):
        t = Tracer(seed=0)
        root = t.start_span("root", activate=False)
        child = t.start_span("child", parent=root, activate=False)
        assert child.parent_id == root.span_id
        assert current_span() is None  # neither was activated

    def test_parent_none_forces_new_root(self):
        t = Tracer(seed=0)
        with t.start_span("outer") as outer:
            lone = t.start_span("lone", parent=None, activate=False)
            assert lone.parent_id is None
            assert lone.trace_id != outer.trace_id

    def test_use_context_adopts_remote_parent(self):
        t = Tracer(seed=0)
        ctx = {"trace_id": "aaaa", "span_id": "bbbb"}
        with use_context(ctx):
            assert current_context() == ctx
            span = t.start_span("remote-child")
            assert span.trace_id == "aaaa"
            assert span.parent_id == "bbbb"
            span.end()
        assert current_context() is None

    def test_use_context_none_is_accepted(self):
        with use_context(None):
            assert current_context() is None


class TestSpanLifecycle:
    def test_end_is_idempotent_and_freezes(self):
        t = Tracer(seed=0, clock=FakeClock())
        span = t.start_span("s", activate=False)
        span.end(final=1)
        span.end(final=2)
        span.set_attr("late", True)
        span.add_event("late")
        assert len(t.records) == 1
        rec = t.records[0]
        assert rec["attrs"] == {"final": 1}
        assert rec["events"] == []

    def test_events_record_offsets(self):
        clock = FakeClock()
        t = Tracer(seed=0, clock=clock)
        span = t.start_span("s", activate=False)
        clock.now = 1.5
        span.add_event("mark", k=3)
        span.end()
        (event,) = t.records[0]["events"]
        assert event == {"name": "mark", "offset": 1.5, "k": 3}

    def test_exception_sets_error_attr(self):
        t = Tracer(seed=0)
        with pytest.raises(RuntimeError):
            with t.start_span("s"):
                raise RuntimeError("boom")
        assert t.records[0]["attrs"]["error"] == "RuntimeError"

    def test_record_shape(self):
        t = Tracer(seed=0, clock=FakeClock())
        t.start_span("s", activate=False, k=1).end()
        rec = t.records[0]
        assert rec["event"] == "trace.span"
        assert set(rec) == {
            "event", "trace_id", "span_id", "parent_id", "name",
            "start", "elapsed", "attrs", "events",
        }
        json.dumps(rec)  # must be JSON-serialisable


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        assert tracer() is None
        span = start_span("anything")
        assert span is NULL_SPAN
        assert not span  # falsy
        span.set_attr("a", 1)
        span.add_event("e")
        assert span.context() is None
        span.end()

    def test_trace_span_noop_when_disabled(self):
        with trace_span("nothing") as span:
            assert span is NULL_SPAN

    def test_add_trace_event_noop_without_span(self):
        add_trace_event("orphan")  # must not raise


class TestTraceCapture:
    def test_capture_restores_previous(self):
        outer = Tracer(seed=1)
        with trace_capture(outer):
            assert tracer() is outer
            with trace_capture(Tracer(seed=2)) as inner:
                assert tracer() is inner
            assert tracer() is outer
        assert tracer() is None

    def test_module_level_helpers_use_active_tracer(self):
        with trace_capture(Tracer(seed=0)) as t:
            with trace_span("s", k=1):
                add_trace_event("tick")
        assert len(t.records) == 1
        assert t.records[0]["events"][0]["name"] == "tick"


class TestExportIngest:
    def test_worker_ship_back_round_trip(self):
        parent = Tracer(seed=0)
        root = parent.start_span("root", activate=False)

        worker = Tracer(seed=context_seed(root.context(), "w"))
        worker.start_span(
            "work", parent=root.context(), activate=False
        ).end()
        shipped = worker.export()
        assert worker.records == []  # drained

        parent.ingest(shipped)
        root.end()
        by_name = {r["name"]: r for r in parent.records}
        assert by_name["work"]["parent_id"] == root.span_id
        assert by_name["work"]["trace_id"] == root.trace_id
        assert parent.spans_finished == 2

    def test_a_parenting_span_opens_once_on_its_sink(self, tmp_path):
        """A span that gains a child or ships its context first writes
        one ``trace.open`` record; a leaf writes none."""
        path = tmp_path / "trace.jsonl"
        t = Tracer(sink=JsonlSink(path), seed=0)
        with t.start_span("root") as root:
            t.start_span("a").end()
            ctx = root.context()
            t.start_span("b").end()
        root.context()  # after end: nothing more to announce
        t.sink.close()
        records = read_jsonl(path)
        assert [(r["event"], r["name"]) for r in records] == [
            ("trace.open", "root"),
            ("trace.span", "a"),
            ("trace.span", "b"),
            ("trace.span", "root"),
        ]
        opened, closed = records[0], records[-1]
        assert opened["elapsed"] is None and closed["elapsed"] is not None
        assert ctx["span_id"] == opened["span_id"] == closed["span_id"]
        for key in ("trace_id", "parent_id", "start"):
            assert opened[key] == closed[key]

    def test_a_buffering_tracer_writes_no_open_record(self):
        """A buffer dies with its process, so an open record there would
        serve nothing."""
        t = Tracer(seed=0)
        with t.start_span("root") as root:
            root.context()
            t.start_span("a").end()
        assert [r["event"] for r in t.records] == ["trace.span"] * 2

    def test_sink_receives_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(sink=JsonlSink(path), seed=0)
        t.start_span("s", activate=False).end()
        t.sink.close()
        (rec,) = read_jsonl(path)
        assert rec["name"] == "s"
        assert t.records == []  # sink mode does not buffer
