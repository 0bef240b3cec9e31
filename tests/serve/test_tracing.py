"""End-to-end tracing + manifest tests for the reconstruction service.

The contract under test: a request produces a request → batch →
decode span tree with no orphans and deterministic IDs; each service
lifecycle emits a RunManifest.
"""

import asyncio
import json

from repro.obs.analyze import build_trace_trees, span_records
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
                archive, ServeConfig(batch_window=0.0)
            )
            async with svc:
                with trace_span("client"):
                    await svc.submit(names[0])
            return tracer.records

        with trace_capture(Tracer(seed=5)) as t:
            records = run(scenario(t))

        roots, orphans, repeated = build_trace_trees(span_records(records))
        assert orphans == repeated == []
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
        ]
        # One trace end to end, one decode span for the batch.
        assert len({r["trace_id"] for r in records}) == 1
        by_name = spans_by_name(records)
        (decode,) = by_name["serve.decode"]
        (batch,) = by_name["serve.batch"]
        assert decode["parent_id"] == batch["span_id"]
        assert by_name["serve.request"][0]["attrs"]["outcome"] == "ok"

    def test_coalesced_requests_link_to_shared_batch(self):
        archive, names = small_archive()

        async def scenario(tracer):
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.05, max_batch=8),
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
                archive, ServeConfig(batch_window=0.0)
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
                archive, ServeConfig(batch_window=0.0)
            )
            async with svc:
                return await svc.submit(names[0])

        assert run(scenario()) == archive.get(names[0])


class TestServiceManifest:
    def test_manifest_written_on_close(self, tmp_path):
        archive, names = small_archive()
        path = tmp_path / "svc.manifest.json"

        async def scenario():
            svc = ReconstructionService(
                archive,
                ServeConfig(batch_window=0.0),
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
        assert manifest.config["plan_capacity"] == 256
        assert "workers" not in manifest.config
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
