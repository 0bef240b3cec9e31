"""End-to-end tracing + manifest tests for the reconstruction service.

The satellite contract under test: a request produces a request →
batch → decode → worker span tree with no orphans; a worker crash
keeps the SAME trace ID across the retried decode (new span,
``retry=1``); each service lifecycle emits a RunManifest.
"""

import asyncio
import json

import pytest

from repro.obs.analyze import (
    build_trace_trees,
    render_trace_tree,
    span_records,
)
from repro.obs.manifest import RunManifest
from repro.obs.trace import Tracer, trace_capture, trace_span
from repro.serve import ReconstructionService, ServeConfig

from .test_service import small_archive


def run(coro):
    return asyncio.run(coro)


def spans_by_name(records):
    out = {}
    for rec in span_records(records):
        out.setdefault(rec["name"], []).append(rec)
    return out


class TestRequestSpanTree:
    def test_inline_decode_full_tree(self):
        archive, names = small_archive()

        async def scenario(tracer):
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0, workers=0)
            )
            async with svc:
                with trace_span("client"):
                    await svc.submit(names[0])
            return tracer.records

        with trace_capture(Tracer(seed=5)) as t:
            records = run(scenario(t))

        roots, orphans = build_trace_trees(span_records(records))
        assert orphans == []
        (root,) = roots
        chain = []
        node = root
        while node:
            chain.append(node.name)
            node = node.children[0] if node.children else None
        assert chain == [
            "client",
            "serve.request",
            "serve.batch",
            "serve.decode",
            "serve.worker.decode",
        ]
        # One trace end to end, inline decode marked as retry 0.
        assert len({r["trace_id"] for r in records}) == 1
        by_name = spans_by_name(records)
        assert by_name["serve.decode"][0]["attrs"]["retry"] == 0
        assert by_name["serve.request"][0]["attrs"]["outcome"] == "ok"

    def test_coalesced_requests_link_to_shared_batch(self):
        archive, names = small_archive()

        async def scenario(tracer):
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.05, max_batch=8, workers=0),
            )
            async with svc:
                # Two roots (no client umbrella): each submit starts
                # its own trace; they coalesce into one batch.
                await asyncio.gather(
                    svc.submit(names[0]), svc.submit(names[1])
                )
            return tracer.records

        with trace_capture(Tracer(seed=5)) as t:
            records = run(scenario(t))

        by_name = spans_by_name(records)
        assert len(by_name["serve.request"]) == 2
        (batch,) = by_name["serve.batch"]
        req_traces = {r["trace_id"] for r in by_name["serve.request"]}
        assert batch["trace_id"] in req_traces
        # The other request's trace is linked, not lost.
        linked = set(batch["attrs"].get("links", []))
        assert linked == req_traces - {batch["trace_id"]}

    def test_deterministic_trace_ids(self):
        archive, names = small_archive()

        async def scenario():
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0, workers=0)
            )
            async with svc:
                await svc.submit(names[0])

        def traced_ids():
            with trace_capture(Tracer(seed=11)) as t:
                run(scenario())
            return [
                (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
                for r in t.records
            ]

        assert traced_ids() == traced_ids()

    def test_untraced_service_unaffected(self):
        archive, names = small_archive()

        async def scenario():
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0, workers=0)
            )
            async with svc:
                return await svc.submit(names[0])

        assert run(scenario()) == archive.get(names[0])


class TestCrashRetryTracePropagation:
    def test_retry_same_trace_new_span(self):
        archive, names = small_archive()

        async def scenario(tracer):
            svc = ReconstructionService(
                archive,
                ServeConfig(
                    batch_window=0.0, workers=1, worker_retries=2
                ),
            )
            async with svc:
                with trace_span("client"):
                    svc.inject_worker_crash()
                    data = await svc.submit(names[0])
            assert data == archive.get(names[0])
            return tracer.records

        with trace_capture(Tracer(seed=5)) as t:
            records = run(scenario(t))

        by_name = spans_by_name(records)
        decodes = sorted(
            by_name["serve.decode"], key=lambda r: r["attrs"]["retry"]
        )
        assert len(decodes) == 2
        failed, retried = decodes
        # Same trace ID across the crash; new span for the retry.
        assert failed["trace_id"] == retried["trace_id"]
        assert failed["span_id"] != retried["span_id"]
        assert failed["attrs"]["retry"] == 0
        assert failed["attrs"]["error"] == "BrokenProcessPool"
        assert retried["attrs"]["retry"] == 1
        assert "error" not in retried["attrs"]
        # Both attempts are siblings under the same batch span.
        (batch,) = by_name["serve.batch"]
        assert failed["parent_id"] == batch["span_id"]
        assert retried["parent_id"] == batch["span_id"]
        # The worker's shipped-back span hangs off the retry attempt.
        (worker,) = by_name["serve.worker.decode"]
        assert worker["parent_id"] == retried["span_id"]
        # And the whole thing still assembles orphan-free.
        roots, orphans = build_trace_trees(span_records(records))
        assert orphans == []
        assert "orphaned spans: none" in render_trace_tree(
            roots, orphans
        )


class TestServiceManifest:
    def test_manifest_written_on_close(self, tmp_path):
        archive, names = small_archive()
        path = tmp_path / "svc.manifest.json"

        async def scenario():
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.0, workers=0),
                seed=123,
                manifest_path=path,
            )
            async with svc:
                await svc.submit(names[0])
            return svc

        svc = run(scenario())
        manifest = RunManifest.load(path)
        assert manifest.command == "serve"
        assert manifest.seed == 123
        assert manifest.wall_seconds is not None
        assert manifest.config["workers"] == 0
        assert manifest.extra["graph"] == archive.graph.name
        assert manifest.extra["engine"] == svc.stats()["engine"] == "bitset"
        assert manifest.extra["objects"] == len(archive.objects)
        snap = manifest.extra["final_snapshot"]
        assert snap["counters"]["serve.completed"] == 1
        # In-memory copy matches what was persisted.
        assert svc.manifest.fingerprint() == manifest.fingerprint()

    def test_manifest_graph_hash_matches_plan_key(self, tmp_path):
        from repro.serve.plancache import graph_key

        archive, names = small_archive()
        path = tmp_path / "m.json"

        async def scenario():
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.0),
                manifest_path=path,
            )
            async with svc:
                pass

        run(scenario())
        manifest = RunManifest.load(path)
        assert manifest.extra["graph_hash"] == graph_key(archive.graph)

    def test_no_manifest_path_keeps_memory_only(self):
        archive, _ = small_archive()

        async def scenario():
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0)
            )
            async with svc:
                pass
            return svc

        svc = run(scenario())
        assert svc.manifest is not None
        assert svc.manifest.command == "serve"

    def test_manifest_emitted_as_event_when_metrics_on(self):
        from repro.obs import capture

        archive, _ = small_archive()

        async def scenario():
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0)
            )
            async with svc:
                pass

        with capture() as reg:
            run(scenario())
        events = [
            e for e in reg.events if e["event"] == "serve.run_manifest"
        ]
        assert len(events) == 1
        assert events[0]["command"] == "serve"

    def test_manifest_json_round_trips(self, tmp_path):
        archive, _ = small_archive()
        path = tmp_path / "m.json"

        async def scenario():
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.0),
                seed=7,
                manifest_path=path,
            )
            async with svc:
                pass

        run(scenario())
        raw = json.loads(path.read_text())
        assert raw["fingerprint"] == RunManifest.load(path).fingerprint()


class TestWorkerSpanShipping:
    def test_pooled_worker_spans_ship_back(self):
        archive, names = small_archive()

        async def scenario(tracer):
            svc = ReconstructionService(
                archive, ServeConfig(batch_window=0.0, workers=1)
            )
            async with svc:
                with trace_span("client"):
                    await svc.submit(names[0])
            return tracer.records

        with trace_capture(Tracer(seed=5)) as t:
            records = run(scenario(t))

        by_name = spans_by_name(records)
        (worker,) = by_name["serve.worker.decode"]
        (decode,) = by_name["serve.decode"]
        assert worker["parent_id"] == decode["span_id"]
        assert worker["trace_id"] == decode["trace_id"]
        assert worker["attrs"]["stripes"] >= 1

    @pytest.mark.parametrize("workers", [0, 1])
    def test_worker_span_ids_deterministic(self, workers):
        archive, names = small_archive()

        async def scenario():
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.0, workers=workers),
            )
            async with svc:
                with trace_span("client"):
                    await svc.submit(names[0])

        def worker_ids():
            with trace_capture(Tracer(seed=5)) as t:
                run(scenario())
            return [
                (r["trace_id"], r["span_id"])
                for r in t.records
                if r["name"] == "serve.worker.decode"
            ]

        first, second = worker_ids(), worker_ids()
        assert first and first == second
