"""Checks on the seeded runs CI makes, each property written once.

CI runs a scenario through the CLI and calls a check on what the run
left behind, in one line::

    python -m tests.checks check_cluster_loadgen cluster-report.json

The tier-1 test of the same scenario runs a smaller version and calls
the same function on its own report.  A check is plain asserts on a
report (a path to its JSON, or the dict), a trace or a directory; the
two timing-gated checks make their own in-process run.  This module
does not import pytest.
"""

import asyncio
import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _report(report) -> dict:
    if isinstance(report, dict):
        return report
    return json.loads(Path(report).read_text())


def _spans(trace) -> list[dict]:
    return [
        json.loads(line)
        for line in Path(trace).read_text().splitlines()
        if '"trace.span"' in line
    ]


def _every_read_served(report) -> None:
    assert report["data_loss"] is False, report
    assert report["failed"] == 0, report
    assert report["mismatched"] == 0, report
    assert report["verified_objects"] == report["objects"], report


def check_cluster_loadgen(report) -> None:
    """Zero data loss through the kill, and non-zero cross-node repair
    bytes, every byte attributed to a node."""
    report = _report(report)
    _every_read_served(report)
    assert report["killed_node"], "kill phase did not run"
    assert report["rejoined"], "rejoin phase did not run"
    status = report["status"]
    assert status["repair_bytes"] > 0, status
    assert sum(status["repair_bytes_by_node"].values()) == status["repair_bytes"]


def check_repair_pipelined(report, coordinator_trace) -> None:
    """Repair stays pipelined and batched, by counts alone.

    Under some ``cluster.repair.cycle`` span at least two
    ``cluster.rpc.block.put`` spans are in flight at once (a repair
    that went back to one awaited put at a time reads depth 1 however
    fast the host is), and the cycles send at most one ``block.put``
    per member per repaired stripe, strictly fewer than the blocks they
    placed (one put per block reads an order of magnitude over).
    """
    report = _report(report)
    spans = _spans(coordinator_trace)
    parent = {s["span_id"]: s["parent_id"] for s in spans}
    cycles = {s["span_id"] for s in spans if s["name"] == "cluster.repair.cycle"}
    assert cycles, "no cluster.repair.cycle span was traced"

    def cycle_of(span_id):
        while span_id is not None and span_id not in cycles:
            span_id = parent.get(span_id)
        return span_id

    puts = {cycle: [] for cycle in cycles}
    for s in spans:
        if s["name"] == "cluster.rpc.block.put":
            cycle = cycle_of(s["parent_id"])
            if cycle is not None:
                puts[cycle].append(s)
    depth = dict.fromkeys(cycles, 0)
    for cycle, sent in puts.items():
        # A span ending where the next starts sorts its -1 first.
        edges = sorted(
            edge
            for s in sent
            for edge in ((s["start"], 1), (s["start"] + s["elapsed"], -1))
        )
        inflight = 0
        for _, step in edges:
            inflight += step
            depth[cycle] = max(depth[cycle], inflight)
    assert max(depth.values()) >= 2, depth

    # Every cycle of the run is in the scheduler's totals.
    repair = report["status"]["repair"]
    assert repair["cycles"] == len(cycles), repair
    totals = repair["totals"]
    sent = sum(map(len, puts.values()))
    placed = totals["moved_blocks"] + totals["rebuilt_blocks"]
    ceiling = report["nodes"] * totals["repaired_stripes"]
    assert 0 < sent <= ceiling, (sent, ceiling)
    assert sent < placed, (sent, placed)


def check_alerts_fire_and_clear(report) -> None:
    """The availability alert fired at the kill and every window
    cleared after the heal."""
    report = _report(report)
    assert report["data_loss"] is False, report
    telemetry = report["telemetry"]
    assert telemetry["samples"] > 0, telemetry
    assert telemetry["firing"] == [], telemetry["firing"]
    avail = [a for a in telemetry["alerts"] if a["objective"] == "availability"]
    fired = [a["ts"] for a in avail if a["state"] == "firing"]
    cleared = [a["ts"] for a in avail if a["state"] == "ok"]
    assert fired, "availability alert never fired"
    assert len(cleared) == len(fired), avail
    assert max(cleared) > min(fired), avail
    assert telemetry["durability"]["score"] is not None


def check_slo_gate_mid_incident(timeline) -> None:
    """``repro obs slo check`` fails on the timeline truncated just
    past its first firing alert: the engine is mid-incident there."""
    from repro.cli import main

    lines = Path(timeline).read_text().splitlines()
    cut = next(
        i
        for i, line in enumerate(lines)
        if '"slo.alert"' in line and '"firing"' in line
    )
    with tempfile.TemporaryDirectory() as tmp:
        partial = Path(tmp, "partial.jsonl")
        partial.write_text("\n".join(lines[: cut + 1]) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["obs", "slo", "check", str(partial)])
    assert code == 1, out.getvalue()
    assert "FIRING availability" in out.getvalue()


def check_live_alerts_match_replay(report, timeline) -> None:
    """The alerts a run reported are the ``slo.alert`` records of its
    timeline, and replaying the timeline's samples finds them again."""
    from repro.obs import SloEngine, load_timeline

    alerts = _report(report)["telemetry"]["alerts"]
    records = [
        record
        for line in Path(timeline).read_text().splitlines()
        if (record := json.loads(line))["event"] == "slo.alert"
    ]
    assert alerts == records, (alerts, records)
    assert SloEngine().replay(load_timeline(timeline)) == alerts


def check_campaign_zero_loss(report) -> None:
    """Every object verifies, no acknowledged put vanished and every
    WAL recovery reproduced the coordinator's state."""
    report = _report(report)
    assert report["data_loss"] is False, report
    assert report["mismatched"] == 0, report
    assert report["verified_objects"] == report["total_objects"], report
    assert report["recovery_mismatches"] == 0, report
    assert report["acked_put_lost"] == 0, report


def check_chaos_campaign(report) -> None:
    """The seeded CLI chaos run (``tests/resilience/cluster_chaos_plan.json``
    over 3 steps): zero loss although the coordinator died every step and
    the fleet kept serving, which only a WAL recovery explains, with
    the data plane disrupted too."""
    report = _report(report)
    check_campaign_zero_loss(report)
    assert report["coordinator_crashes"] == 3, report
    assert report["node_kills"] >= 1, report
    assert report["partitions"] >= 1, report
    assert report["repair_bytes"] > 0, report


def check_wal_replay(wal_dir) -> None:
    """A campaign's WAL (graph 3, 256-byte blocks) recovers to one
    digest twice, and replaying its records one by one through
    ``_apply_record`` (the function every live mutation commits
    through) lands on the same state."""
    from repro.cluster import ClusterCoordinator, CoordinatorWal
    from repro.graphs import tornado_catalog_graph

    graph = tornado_catalog_graph(3)
    with tempfile.TemporaryDirectory() as tmp:
        digests = []
        for copy in ("copy-1", "copy-2"):
            shutil.copytree(wal_dir, Path(tmp, copy))
            recovered = ClusterCoordinator(
                graph, block_size=256, wal_dir=str(Path(tmp, copy)), recover=True
            )
            recovered.wal.close()
            digests.append(recovered.state_sha256())
        assert digests[0] == digests[1], digests

        wal = CoordinatorWal(str(Path(tmp, "copy-1")))
        state, records = wal.load()
        wal.close()
    replayed = ClusterCoordinator(graph, block_size=256)
    if state is not None:
        replayed._restore_state(state)
    for record in records:
        replayed._apply_record(record)
    assert replayed.state_sha256() == digests[0], len(records)
    assert replayed.manifests, "the campaign stored objects"


def check_sites_blackout(report) -> None:
    """Zero acknowledged loss, and WAN reads metered only while a site
    is dark."""
    report = _report(report)
    _every_read_served(report)
    assert report["blackout_site"], "blackout phase did not run"
    # WAN reads are an anomaly signal: zero in steady state, non-zero
    # while a whole site is dark, zero again after heal.
    wan = report["wan"]
    assert wan["read_before"] == 0, wan
    assert wan["read_during"] > 0, wan
    assert wan["read_after"] == 0, wan
    # Healing a wiped site costs real WAN repair bytes.
    assert wan["repair_bytes"] > 0, wan
    # The multi-graph effect, live: a witness erasure neither site
    # decodes alone, served by the coupled rung.  The coupled read is
    # read traffic (only the repair that re-derives it is repair).
    coupled = report["coupled_demo"]
    assert coupled["staged"], "coupled demo did not run"
    assert coupled["sites_failed_alone"] == 2, coupled
    assert coupled["served"], coupled
    assert coupled["wan_bytes"] > 0, coupled
    # Complementary pairing: no joint failure within the probed bound
    # of 8 losses per site (floor 2*8+1), vs 5 for one graph alone and
    # 10 for the duplicated pairing.
    assert report["first_failure_floor"] >= 17, report


def check_sites_chaos(report) -> None:
    """Zero loss through node attrition and a full-site blackout."""
    report = _report(report)
    assert report["data_loss"] is False, report
    assert report["verified_objects"] == report["objects"], report
    # The seeded schedule really did take out a site and drives.
    assert report["site_blackouts"] >= 1, report
    assert report["node_kills"] >= 1, report


def check_decode_spans_rooted(trace) -> None:
    """An orphan-free span tree with no repeated id, whose every
    ``serve.decode`` span descends from a ``loadgen.run`` or
    ``serve.request`` span."""
    from repro.obs.analyze import build_trace_trees, load_events, span_records

    roots, orphans, repeated = build_trace_trees(
        span_records(load_events(str(trace)))
    )
    assert not orphans, orphans
    assert not repeated, repeated
    decodes = []

    def walk(node, ancestors):
        if node.name == "serve.decode":
            assert ancestors & {"loadgen.run", "serve.request"}, (
                node.record["span_id"], ancestors
            )
            decodes.append(node)
        for child in node.children:
            walk(child, ancestors | {node.name})

    for root in roots:
        walk(root, set())
    assert decodes, "no serve.decode spans traced"


def check_service_latency_tracks_loadgen() -> None:
    """Timing-gated.  Loadgen measures from *scheduled* arrival
    (coordinated-omission corrected), the service from admission: at a
    gentle rate service p50 and p99 are at most loadgen's plus 50 ms
    (tolerance documented in docs/OBS.md)."""
    from repro.serve import (
        LoadGenConfig,
        ReconstructionService,
        ServeConfig,
        run_loadgen,
        seeded_archive,
    )

    archive, names = seeded_archive(objects=2, severity=2, seed=3)

    async def run():
        async with ReconstructionService(
            archive, ServeConfig(batch_window=0.002)
        ) as svc:
            report = await run_loadgen(
                svc, names, LoadGenConfig(requests=200, rate=500.0, seed=3)
            )
            return report, svc.stats()

    report, stats = asyncio.run(run())
    service = stats["histograms"]["serve.request_latency_seconds"]
    for q in ("p50", "p99"):
        print(f"{q}: service {service[q] * 1e3:.2f} ms, "
              f"loadgen {report.latency[q] * 1e3:.2f} ms")
        assert service[q] <= report.latency[q] + 0.050, q


def check_disabled_metrics_cost_nothing() -> None:
    """Timing-gated.  The instrumented hot path sits behind a falsy
    enabled-check: with collection off it must not be slower than with
    collection on (about 1 % apart; the 10 % bound absorbs shared-host
    noise, docs/OBS.md)."""
    import numpy as np

    from repro.core import tornado_graph
    from repro.obs import capture
    from repro.sim import sample_fail_fraction

    graph = tornado_graph(16, seed=3, min_final_lefts=6)

    def bench():
        rng = np.random.default_rng(0)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            sample_fail_fraction(graph, 6, 4000, rng)
            best = min(best, time.perf_counter() - t0)
        return best

    bench()  # warm up
    disabled = bench()
    with capture():
        enabled = bench()
    ratio = disabled / enabled
    print(f"disabled {disabled * 1e3:.1f} ms vs enabled "
          f"{enabled * 1e3:.1f} ms (ratio {ratio:.3f})")
    assert ratio < 1.10, ratio


def check_perf_result(output) -> dict:
    """The run's last line is its result: correct, nothing failed."""
    result = json.loads(Path(output).read_text().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    return result


def check_exact_repair_metrics(output) -> None:
    """A traced zero-second ``archive_degraded`` run.  Repair waves
    batch the repair RPCs and fsyncs; they must not change what is
    rebuilt, moved or read, nor the plan cache's hits and misses."""
    result = check_perf_result(output)
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert m["cluster.scheduler.rebuilt_blocks"] == 1792, m
    assert m["cluster.scheduler.moved_blocks"] == 3072, m
    assert m["e2e.repair_read_bytes_per_lost_byte"] == 41 / 7, m
    assert m["serve.plancache.hit_ratio"] == 0.7875, m


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    globals()[name](*args)
    print(f"{name}: ok")
