"""Command-line interface for the Tornado archival toolkit.

Operational entry points for the workflows a storage operator needs —
the paper's conclusion is that deployments must use *precompiled,
tested* graphs, so graph production and certification are first-class
commands:

* ``repro certify`` — generate, defect-screen, feedback-adjust, and
  export a certified graph (GraphML);
* ``repro analyze`` — exact worst-case report for a stored graph;
* ``repro profile`` — Monte Carlo failure profile (JSON);
* ``repro overhead`` — incremental-retrieval overhead measurement;
* ``repro reliability`` — Table 5-style comparison of the catalog
  graphs against RAID and mirroring;
* ``repro mission`` — seeded archival-mission / fault-injection
  campaign over the full storage stack (``--faults PLAN.json`` loads a
  composable :class:`repro.resilience.FaultPlan`);
* ``repro serve`` — run the asyncio block-reconstruction service with
  its line-JSON TCP front end over a seeded archive;
* ``repro loadgen`` — drive an in-process service with a seeded
  open-loop workload and report throughput/latency (``--out`` writes
  the JSON report);
* ``repro obs`` — analyse telemetry JSONL offline: ``obs tail`` (last
  events), ``obs report`` (per-phase latency table with p50/p90/p99),
  ``obs trace-tree`` (reassembled span trees from one or more files —
  several files stitch a cluster-wide tree; exits 1 on orphaned
  spans, which is what CI's obs-smoke and cluster-smoke assert);
* ``repro cluster`` — the distributed archive: ``cluster coordinator``
  and ``cluster node`` run the daemons (the coordinator journals to a
  WAL with ``--wal`` and recovers from one with ``--recover``),
  ``cluster status`` inspects a running cluster, ``cluster loadgen``
  spawns a whole cluster, drives it under load, kills a node mid-run,
  repairs, rejoins, and verifies zero data loss, and ``cluster
  chaos`` runs a seeded kill/partition/recover campaign that SIGKILLs
  the coordinator, recovers it from its WAL, and digest-verifies
  every object afterwards;
* ``repro sites`` — the federated multi-site archive: ``sites
  gateway`` runs the federation gateway daemon over per-site cluster
  coordinators, ``sites status`` inspects a running federation,
  ``sites loadgen`` spawns an N-site federation, blacks out one full
  site mid-read, heals it over the WAN, and verifies zero loss, and
  ``sites chaos`` runs hazard-curve fleet attrition plus whole-site
  blackouts against a live federation.

Exit codes are consistent across subcommands: ``0`` success, ``1``
operational failure (missing/corrupt input files, data loss, service
errors — printed as ``error: ...`` on stderr), ``2`` usage error
(argparse rejections and invalid flag combinations).

Every subcommand accepts ``--metrics PATH`` (or the ``REPRO_METRICS``
environment variable): the run then streams instrumentation events —
per-cell simulation timings, cache hits, decode counters — to a JSONL
file and closes it with a ``run_manifest`` record capturing seed,
arguments, package version, host, and wall time.  ``--trace PATH``
(or ``REPRO_TRACE``) additionally records causal spans — request →
batch → decode → worker, sweep → cell, campaign → probe — with
deterministic IDs derived from ``--seed``; both flags may point at the
same file to interleave the streams.  See ``docs/OBS.md``.

Run ``python -m repro <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Invalid flag combination detected inside a handler (exit 2).

    Argparse catches malformed invocations before handlers run; this
    covers constraints argparse cannot express (e.g. ``--resume``
    without ``--checkpoint``), keeping the exit-code contract uniform:
    usage problems exit 2, operational failures exit 1.
    """


# Failures of the operation itself (unreadable inputs, corrupt graphs,
# data loss, service errors) — reported as `error: ...` with exit 1,
# never a traceback.
_OPERATIONAL_ERRORS = (OSError, ValueError, KeyError, RuntimeError)


def build_parser() -> argparse.ArgumentParser:
    # The four fleet-scenario verbs take their options from the fields
    # of their config dataclasses (``python -m repro`` has imported the
    # whole package by now, so these imports cost nothing).
    from .cluster import ClusterLoadConfig
    from .cluster.fleet import add_config_options
    from .resilience import ClusterCampaignConfig
    from .sites import SitesCampaignConfig, SitesLoadConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tornado Codes for archival storage (HPDC 2006 reproduction)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write instrumentation events + run manifest as JSONL "
        "(default: $REPRO_METRICS if set)",
    )
    common.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write trace spans as JSONL (deterministic IDs from "
        "--seed; default: $REPRO_TRACE if set; may equal --metrics "
        "to interleave both streams in one file)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "certify",
        help="generate, screen, adjust and export a graph",
        parents=[common],
    )
    p.add_argument("--num-data", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, default=5,
                   help="target first failure (default 5)")
    p.add_argument("--out", default=None,
                   help="GraphML output path (default: derived from seed)")

    p = sub.add_parser(
        "analyze",
        help="worst-case report for a GraphML graph",
        parents=[common],
    )
    p.add_argument("graph", help="GraphML file")
    p.add_argument("--max-k", type=int, default=5)

    p = sub.add_parser(
        "profile", help="Monte Carlo failure profile", parents=[common]
    )
    p.add_argument("graph", help="GraphML file")
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-k sweep (default 1)",
    )
    p.add_argument(
        "--exact-upto",
        type=int,
        default=None,
        help="splice exact probabilities for k <= this "
        "(default: library default)",
    )
    p.add_argument("--out", default=None, help="profile JSON output path")
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append each finished k-cell to this JSONL file",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse finished cells from --checkpoint instead of rerunning",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon a k-cell stuck longer than this (parallel sweeps)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-dispatches per cell after a worker crash or timeout",
    )

    p = sub.add_parser(
        "overhead",
        help="incremental-retrieval overhead measurement",
        parents=[common],
    )
    p.add_argument("graph", help="GraphML file")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--decoder", choices=["peeling", "ml"], default="peeling")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "reliability",
        help="Table 5-style reliability comparison (catalog graphs)",
        parents=[common],
    )
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--afr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per catalog-graph profile (default 1)",
    )

    p = sub.add_parser(
        "mission",
        help="archival mission / fault-injection campaign",
        parents=[common],
    )
    p.add_argument(
        "--graph",
        default=None,
        help="GraphML file (default: catalog Tornado Graph 3)",
    )
    p.add_argument("--years", type=float, default=5.0)
    p.add_argument("--afr", type=float, default=0.01,
                   help="annual device failure rate (default 0.01)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="fault plan JSON (see repro.resilience.FaultPlan)",
    )
    p.add_argument("--objects", type=int, default=4,
                   help="objects stored in the archive (default 4)")
    p.add_argument("--object-size", type=int, default=4096,
                   help="bytes per object (default 4096)")
    p.add_argument("--steps-per-year", type=int, default=52)
    p.add_argument("--replacement-lag", type=int, default=2,
                   help="steps before a failed device's replacement")
    p.add_argument("--repair-margin", type=int, default=2,
                   help="stripe-margin threshold for proactive repair")
    p.add_argument("--scrub-interval", type=int, default=4,
                   help="steps between integrity scrubs (0 disables)")
    p.add_argument("--read-interval", type=int, default=4,
                   help="steps between degraded-read probes (0 disables)")
    p.add_argument(
        "--hazard",
        choices=("binomial", "weibull", "bathtub"),
        default="binomial",
        help="device failure model: the memoryless binomial AFR "
        "baseline, or an age-dependent hazard curve (default binomial)",
    )
    p.add_argument(
        "--shape",
        type=float,
        default=3.0,
        help="Weibull shape (wear-out steepness; hazard curves only)",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.0,
        help="Weibull characteristic life in years "
        "(0 = calibrate from --afr; hazard curves only)",
    )
    p.add_argument(
        "--infant-mortality",
        type=float,
        default=0.0,
        help="probability each replacement device is an "
        "infant-mortality unit (hazard curves only)",
    )

    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument(
        "--graph",
        default=None,
        help="GraphML file (default: catalog Tornado Graph 3)",
    )
    serving.add_argument("--objects", type=int, default=4,
                         help="objects stored in the archive (default 4)")
    serving.add_argument("--object-size", type=int, default=4096,
                         help="bytes per object (default 4096)")
    serving.add_argument(
        "--severity",
        type=int,
        default=0,
        help="failed devices at start (seeded; default 0)",
    )
    serving.add_argument("--seed", type=int, default=0)
    serving.add_argument(
        "--window",
        type=float,
        default=0.002,
        help="micro-batch window in seconds (0 disables batching)",
    )
    serving.add_argument("--max-batch", type=int, default=32,
                         help="requests per micro-batch (default 32)")
    serving.add_argument(
        "--workers",
        type=int,
        default=0,
        help="decode pool processes (0 = inline; default 0)",
    )
    serving.add_argument("--queue-limit", type=int, default=256,
                         help="admission-control bound (default 256)")
    serving.add_argument(
        "--plan-capacity",
        type=int,
        default=256,
        help="LRU capacity of the peeling-plan cache (0 disables)",
    )
    serving.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the service's run manifest (config, graph hash, "
        "final snapshot) as JSON; defaults to "
        "<metrics-or-trace path>.manifest.json when either is set",
    )

    p = sub.add_parser(
        "serve",
        help="run the block-reconstruction service (line-JSON over TCP)",
        parents=[common, serving],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed; default 0)")
    p.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop after this long (default: run until interrupted)",
    )

    p = sub.add_parser(
        "loadgen",
        help="seeded open-loop load generation against an in-process service",
        parents=[common, serving],
    )
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--rate", type=float, default=500.0,
                   help="open-loop arrival rate, req/s (default 500)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument(
        "--unbatched",
        action="store_true",
        help="baseline mode: zero batch window and no plan cache",
    )
    p.add_argument("--out", default=None,
                   help="write the load report as JSON to this path")

    p = sub.add_parser(
        "render",
        help="SVG rendering of a graph under a loss pattern (paper §3)",
        parents=[common],
    )
    p.add_argument("graph", help="GraphML file")
    p.add_argument(
        "--missing",
        default="",
        help="comma-separated lost node ids (default: none)",
    )
    p.add_argument("--out", required=True, help="SVG output path")

    p = sub.add_parser(
        "obs",
        help="analyse telemetry JSONL (events, spans, manifests)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "tail", help="show the last events of a telemetry file"
    )
    q.add_argument("file", help="JSONL telemetry file")
    q.add_argument("-n", type=int, default=20,
                   help="events to show (default 20)")
    q.add_argument(
        "--kind",
        default=None,
        help="filter by event-name prefix (e.g. serve. or trace.span)",
    )

    q = obs_sub.add_parser(
        "report",
        help="per-phase latency table (counts, totals, p50/p90/p99)",
    )
    q.add_argument("files", nargs="+", help="JSONL telemetry files")

    q = obs_sub.add_parser(
        "trace-tree",
        help="reassemble and print span trees (flags orphaned spans)",
    )
    q.add_argument(
        "files",
        nargs="+",
        help="JSONL trace files (several stitch one cluster-wide tree)",
    )
    q.add_argument(
        "--trace-id",
        default=None,
        help="show only the trace with this ID (prefix accepted)",
    )

    q = obs_sub.add_parser(
        "top",
        help="fleet dashboard rendered from a telemetry timeline",
    )
    q.add_argument(
        "file",
        help="timeline JSONL (fleet.sample events from a scraper)",
    )
    q.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit instead of following the file",
    )
    q.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between live refreshes (default 2)",
    )
    q.add_argument(
        "--window",
        type=float,
        default=300.0,
        help="rate/quantile window in seconds (default 300)",
    )
    q.add_argument(
        "--spec",
        default=None,
        metavar="SLO.json",
        help="SLO spec to evaluate (default: built-in archive SLOs)",
    )

    q = obs_sub.add_parser(
        "slo",
        help="replay a timeline through the SLO engine "
        "(report, or check with a firing-alert exit code)",
    )
    q.add_argument(
        "slo_command",
        choices=("report", "check"),
        help="report: full burn/budget status; check: exit 1 if any "
        "alert is firing at the end of the timeline",
    )
    q.add_argument(
        "file",
        help="timeline JSONL (fleet.sample events from a scraper)",
    )
    q.add_argument(
        "--spec",
        default=None,
        metavar="SLO.json",
        help="SLO spec to evaluate (default: built-in archive SLOs)",
    )

    q = obs_sub.add_parser(
        "prom",
        help="Prometheus text export of the newest fleet sample "
        "in a timeline",
    )
    q.add_argument(
        "file",
        help="timeline JSONL (fleet.sample events from a scraper)",
    )

    # What the three daemons (coordinator, node, gateway) all take.
    daemon = argparse.ArgumentParser(add_help=False)
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed; default 0)")
    daemon.add_argument("--seed", type=int, default=0)
    daemon.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop after this long (default: run until interrupted)",
    )

    p = sub.add_parser(
        "cluster",
        help="distributed archive cluster (coordinator / storage nodes)",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    q = cluster_sub.add_parser(
        "coordinator",
        help="run the cluster coordinator daemon",
        parents=[common, daemon],
    )
    q.add_argument(
        "--graph",
        default=None,
        help="GraphML file (default: catalog Tornado Graph 3)",
    )
    q.add_argument(
        "--catalog",
        type=int,
        choices=(1, 2, 3),
        default=None,
        metavar="N",
        help="deploy catalog Tornado Graph N (mutually exclusive "
        "with --graph; federations assign these per site)",
    )
    q.add_argument("--block-size", type=int, default=512,
                   help="bytes per stored block (default 512)")
    q.add_argument("--plan-capacity", type=int, default=256,
                   help="LRU capacity of the peeling-plan cache")
    q.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="journal every metadata mutation to a write-ahead log in "
        "this directory (fresh: truncates any prior log)",
    )
    q.add_argument(
        "--recover",
        default=None,
        metavar="DIR",
        help="recover state from the WAL directory's snapshot + log, "
        "then keep journaling there (mutually exclusive with --wal)",
    )
    q.add_argument(
        "--rpc-timeout",
        type=float,
        default=30.0,
        help="per-attempt node RPC deadline in seconds (default 30)",
    )
    q.add_argument(
        "--repair-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="repair bytes moved per scheduler cycle "
        "(default: unbounded)",
    )
    q.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="auto-snapshot the WAL after every N journaled records",
    )

    q = cluster_sub.add_parser(
        "node",
        help="run one storage-node daemon",
        parents=[common, daemon],
    )
    q.add_argument("--id", required=True, help="node identifier")
    q.add_argument(
        "--coordinator",
        default=None,
        metavar="HOST:PORT",
        help="self-register with this coordinator on startup",
    )
    q.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="per-node fault plan; its transient-outage specs drive "
        "this node's availability process",
    )
    q.add_argument(
        "--step-interval",
        type=float,
        default=0.0,
        help="advance the fault process every this many seconds "
        "(0 = only via node.admin step RPCs; default 0)",
    )

    q = cluster_sub.add_parser(
        "status",
        help="print a coordinator's cluster-wide status as JSON",
    )
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, required=True)

    q = cluster_sub.add_parser(
        "loadgen",
        help="spawn a whole cluster, load it, kill a node, repair, verify",
        parents=[common],
    )
    add_config_options(q, ClusterLoadConfig)
    q.add_argument("--out", default=None,
                   help="write the cluster report as JSON to this path")

    q = cluster_sub.add_parser(
        "chaos",
        help="seeded kill/partition/recover campaign against a live "
        "cluster; verifies WAL recovery and zero data loss",
        parents=[common],
    )
    add_config_options(q, ClusterCampaignConfig)
    q.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="fault plan; its cluster-level specs drive the campaign "
        "(default: a stock mix of all four cluster fault kinds)",
    )
    q.add_argument("--out", default=None,
                   help="write the campaign report as JSON to this path")

    p = sub.add_parser(
        "sites",
        help="federated multi-site archive (gateway / loadgen / chaos)",
    )
    sites_sub = p.add_subparsers(dest="sites_command", required=True)

    q = sites_sub.add_parser(
        "gateway",
        help="run the federation gateway daemon",
        parents=[common, daemon],
    )
    q.add_argument(
        "--manifest",
        required=True,
        metavar="PATH",
        help="federation manifest JSON "
        "(see repro.sites.FederationManifest)",
    )
    q.add_argument(
        "--attach",
        action="append",
        default=[],
        metavar="SITE=HOST:PORT",
        help="attach a site coordinator (repeatable, one per site)",
    )
    q.add_argument("--block-size", type=int, default=512,
                   help="bytes per stored block (default 512)")
    q.add_argument(
        "--rpc-timeout",
        type=float,
        default=10.0,
        help="per-attempt site RPC deadline in seconds (default 10)",
    )
    q.add_argument(
        "--repair-wan-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="WAN bytes a repair pass may move before deferring "
        "(default: unbounded)",
    )
    q.add_argument("--plan-capacity", type=int, default=256,
                   help="LRU capacity of the coupled-peel plan cache")

    q = sites_sub.add_parser(
        "status",
        help="print a gateway's federation status as JSON",
    )
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, required=True)

    q = sites_sub.add_parser(
        "loadgen",
        help="spawn an N-site federation, black out one full site "
        "mid-read, heal it over the WAN, verify zero loss",
        parents=[common],
    )
    add_config_options(q, SitesLoadConfig)
    q.add_argument("--out", default=None,
                   help="write the federation report as JSON to this path")

    q = sites_sub.add_parser(
        "chaos",
        help="hazard-curve fleet attrition + whole-site blackouts "
        "against a live federation; verifies zero data loss",
        parents=[common],
    )
    add_config_options(q, SitesCampaignConfig)
    q.add_argument("--out", default=None,
                   help="write the campaign report as JSON to this path")

    return parser


def _cmd_certify(args) -> int:
    from .core import (
        adjust_graph,
        analyze_worst_case,
        generate_certified,
        save_graphml,
    )

    report = generate_certified(args.num_data, seed=args.seed)
    print(
        f"accepted seed {report.seed_used} after {report.attempts} attempts"
    )
    result = adjust_graph(report.graph, target_first_failure=args.target)
    wc = analyze_worst_case(result.graph, max_k=args.target)
    print(wc.describe())
    if not result.achieved_target:
        print(
            f"warning: target first failure {args.target} not reached",
            file=sys.stderr,
        )
    out = args.out or f"tornado-n{args.num_data}-seed{report.seed_used}.graphml"
    save_graphml(result.graph, out)
    print(f"graph written to {out}")
    return 0 if result.achieved_target else 1


def _cmd_analyze(args) -> int:
    from .core import analyze_worst_case, load_graphml

    graph = load_graphml(args.graph)
    print(analyze_worst_case(graph, max_k=args.max_k).describe())
    return 0


def _cmd_profile(args) -> int:
    from .core import load_graphml
    from .sim import DEFAULT_EXACT_UPTO, profile_graph

    if args.resume and not args.checkpoint:
        raise UsageError("--resume requires --checkpoint")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    graph = load_graphml(args.graph)
    exact_upto = (
        DEFAULT_EXACT_UPTO if args.exact_upto is None else args.exact_upto
    )
    prof = profile_graph(
        graph,
        samples_per_k=args.samples,
        seed=args.seed,
        exact_upto=exact_upto,
        n_jobs=args.jobs,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if not prof.fully_covered:
        print(
            f"warning: cells {prof.uncovered_ks()} exhausted retries; "
            "their values are interpolated",
            file=sys.stderr,
        )
    print(
        f"{graph.name}: first failure {prof.first_failure()}, "
        f"avg capable {prof.average_nodes_capable():.2f}, "
        f"50% point {prof.nodes_for_success_probability(0.5)} nodes "
        f"(overhead {prof.overhead_at_probability(0.5):.2f})"
    )
    if args.out:
        prof.save(args.out)
        print(f"profile written to {args.out}")
    return 0


def _cmd_overhead(args) -> int:
    from .core import load_graphml
    from .sim import measure_retrieval_overhead

    graph = load_graphml(args.graph)
    result = measure_retrieval_overhead(
        graph,
        n_trials=args.trials,
        seed=args.seed,
        decoder=args.decoder,
    )
    print(
        f"{graph.name} [{args.decoder}]: mean downloads "
        f"{result.mean_downloads:.2f} of {graph.num_nodes} "
        f"(overhead {result.mean_overhead:.3f}, "
        f"p95 {result.percentile(95):.0f})"
    )
    return 0


def _cmd_reliability(args) -> int:
    from .analysis import format_table
    from .graphs import tornado_catalog_graph
    from .raid import (
        mirrored_system,
        raid5_system,
        raid6_system,
        striped_system,
    )
    from .reliability import reliability_table
    from .sim import FailureProfile, profile_graph

    if args.samples < 1:
        raise UsageError("--samples must be positive")
    profiles = [
        FailureProfile.from_analytic(s)
        for s in (
            striped_system(),
            raid5_system(),
            raid6_system(),
            mirrored_system(),
        )
    ]
    for number in (1, 2, 3):
        graph = tornado_catalog_graph(number)
        profiles.append(
            profile_graph(
                graph,
                samples_per_k=args.samples,
                seed=args.seed,
                n_jobs=args.jobs,
            )
        )
    rows = [
        [e.system_name, e.data_devices, e.parity_devices, f"{e.p_fail:.4g}"]
        for e in reliability_table(profiles, afr=args.afr)
    ]
    print(
        format_table(["System", "Data", "Parity", "P(fail)"], rows)
    )
    return 0


def _cmd_mission(args) -> int:
    from .graphs import tornado_catalog_graph
    from .obs import spawn_seeds
    from .resilience import CampaignConfig, FaultPlan, run_campaign
    from .storage import DeviceArray, MissionConfig, TornadoArchive

    if args.graph:
        from .core import load_graphml

        graph = load_graphml(args.graph)
    else:
        graph = tornado_catalog_graph(3)
    plan = FaultPlan.load(args.faults) if args.faults else FaultPlan()
    afr = args.afr
    if args.hazard != "binomial":
        from .resilience import DeviceHazards

        # The hazard spec replaces the memoryless binomial baseline:
        # the mission's own AFR draw goes inert and the age-dependent
        # curve (calibrated from the same --afr) takes over.
        plan = FaultPlan(
            faults=plan.faults
            + (
                DeviceHazards(
                    curve=args.hazard,
                    shape=args.shape,
                    scale=args.scale,
                    afr=args.afr,
                    infant_mortality=args.infant_mortality,
                    steps_per_year=args.steps_per_year,
                ),
            )
        )
        afr = 0.0
    archive = TornadoArchive(
        graph, DeviceArray(graph.num_nodes), block_size=256
    )
    # Payloads come from a spawned stream so they never perturb the
    # mission's own draws (same convention as the parallel sweeps).
    import numpy as np

    payload_rng = np.random.default_rng(spawn_seeds(args.seed, 1)[0])
    for i in range(args.objects):
        archive.put(f"object-{i:03d}", payload_rng.bytes(args.object_size))
    config = CampaignConfig(
        mission=MissionConfig(
            years=args.years,
            steps_per_year=args.steps_per_year,
            afr=afr,
            replacement_lag_steps=args.replacement_lag,
            repair_margin=args.repair_margin,
        ),
        scrub_interval=args.scrub_interval,
        read_interval=args.read_interval,
    )
    report = run_campaign(archive, plan, config, seed=args.seed)
    print(
        f"{graph.name}: {args.objects} objects, "
        f"{len(plan.faults)} fault specs "
        f"({', '.join(plan.fault_classes) or 'baseline failures only'})"
    )
    print(report.describe())
    return 0 if report.survived else 1


def _serving_stack(args):
    """Shared serve/loadgen setup: seeded archive + service config."""
    from .resilience import RetryPolicy
    from .serve import ServeConfig, seeded_archive

    if args.severity < 0:
        raise UsageError("--severity must be non-negative")
    graph = None
    if args.graph:
        from .core import load_graphml

        graph = load_graphml(args.graph)
    archive, names = seeded_archive(
        graph,
        objects=args.objects,
        object_size=args.object_size,
        severity=args.severity,
        seed=args.seed,
    )
    unbatched = getattr(args, "unbatched", False)
    config = ServeConfig(
        queue_limit=args.queue_limit,
        batch_window=0.0 if unbatched else args.window,
        max_batch=args.max_batch,
        workers=args.workers,
        plan_capacity=0 if unbatched else args.plan_capacity,
        retry=RetryPolicy(seed=args.seed),
    )
    return archive, names, config


def _print_serve_summary(stats) -> None:
    counters = stats["counters"]
    plan = stats["plan_cache"]
    print(
        f"served {counters.get('serve.completed', 0)} requests in "
        f"{counters.get('serve.batches', 0)} batches "
        f"({counters.get('serve.coalesced', 0)} coalesced, "
        f"{counters.get('serve.shed', 0)} shed, "
        f"{counters.get('serve.retries', 0)} retries, "
        f"{counters.get('serve.worker_crashes', 0)} worker crashes); "
        f"plan cache {plan['hits']} hits / {plan['misses']} misses"
    )
    latency = stats.get("histograms", {}).get(
        "serve.request_latency_seconds"
    )
    if latency and latency.get("count"):
        print(
            "service-side latency "
            f"p50 {latency['p50'] * 1e3:.2f}ms "
            f"p90 {latency['p90'] * 1e3:.2f}ms "
            f"p99 {latency['p99'] * 1e3:.2f}ms "
            f"({latency['count']} measured)"
        )


def _service_manifest_path(args):
    """Explicit --manifest, else derived beside --metrics/--trace."""
    if args.manifest:
        return args.manifest
    anchor = (
        args.metrics
        or os.environ.get("REPRO_METRICS")
        or args.trace
        or os.environ.get("REPRO_TRACE")
    )
    return f"{anchor}.manifest.json" if anchor else None


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ReconstructionService, start_frontend

    archive, names, config = _serving_stack(args)

    service = ReconstructionService(
        archive,
        config,
        seed=args.seed,
        manifest_path=_service_manifest_path(args),
    )

    async def run() -> int:
        async with service:
            server = await start_frontend(service, args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(
                f"serving {len(names)} objects on {host}:{port} "
                f"({archive.graph.name}, severity {args.severity})",
                flush=True,
            )
            try:
                if args.max_seconds is not None:
                    await asyncio.sleep(args.max_seconds)
                else:
                    await asyncio.Event().wait()
            except asyncio.CancelledError:  # pragma: no cover
                pass
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()
                _print_serve_summary(service.stats())
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("interrupted; drained", file=sys.stderr)
        return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from .serve import LoadGenConfig, ReconstructionService, run_loadgen

    if args.requests < 1:
        raise UsageError("--requests must be positive")
    if args.rate <= 0:
        raise UsageError("--rate must be positive")
    archive, names, config = _serving_stack(args)
    load = LoadGenConfig(
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        deadline=args.deadline,
    )

    service = ReconstructionService(
        archive,
        config,
        seed=args.seed,
        manifest_path=_service_manifest_path(args),
    )

    async def run():
        async with service:
            report = await run_loadgen(service, names, load)
            await service.drain()
            return report, service.stats()

    report, stats = asyncio.run(run())
    mode = "unbatched" if args.unbatched else "batched"
    print(f"{archive.graph.name} [{mode}]: {report.describe()}")
    _print_serve_summary(stats)
    if args.out:
        payload = {"mode": mode, "report": report.to_dict(), "stats": stats}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 1 if report.errors else 0


def _load_obs_events(path: str) -> list:
    """Load one telemetry JSONL with operator-grade failure modes.

    A missing or empty file means the run being analysed never
    produced telemetry — silently printing an empty table would hide
    that, so both cases exit 1 with an ``error:`` line instead.
    """
    from .obs import load_events

    if not os.path.exists(path):
        raise OSError(f"telemetry file {path} does not exist")
    events = load_events(path)
    if not events:
        raise ValueError(f"telemetry file {path} is empty")
    return events


def _load_obs_timeline(path: str):
    """Load a scraper timeline (fleet.sample JSONL) into a store."""
    from .obs import load_timeline

    if not os.path.exists(path):
        raise OSError(f"timeline file {path} does not exist")
    if os.path.getsize(path) == 0:
        raise ValueError(f"timeline file {path} is empty")
    return load_timeline(path)


def _obs_engine(store, spec_path: str | None):
    """Replay a timeline through a fresh SLO engine; return it."""
    from .obs import SloEngine, SloSpec

    spec = SloSpec.load(spec_path) if spec_path else None
    engine = SloEngine(spec)
    engine.replay(store)
    return engine


def _cmd_obs_top(args) -> int:
    from .obs import render_top

    def frame() -> str:
        store = _load_obs_timeline(args.file)
        engine = _obs_engine(store, args.spec)
        return render_top(store, engine, window=args.window)

    if args.once:
        print(frame(), end="")
        return 0
    import time

    # Live mode re-reads the file each tick: the scraper appends
    # samples, so a plain reload follows the run without any tailing
    # machinery.  ANSI home+clear keeps the frame in place.
    try:
        while True:
            print("\x1b[H\x1b[2J" + frame(), end="", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print()
        return 0


def _cmd_obs_slo(args) -> int:
    import json

    from .obs import render_top

    store = _load_obs_timeline(args.file)
    engine = _obs_engine(store, args.spec)
    if args.slo_command == "report":
        # Same store, same renderer as `obs top --once`: the two
        # commands must agree on the fleet view by construction.
        print(render_top(store, engine), end="")
        print(json.dumps(engine.status(store), indent=2, sort_keys=True))
        return 0
    # check: a CI gate — exit 1 when any alert is still firing at the
    # end of the replayed timeline.
    firing = engine.firing()
    for alert in firing:
        print(f"FIRING {alert['objective']}[{alert['window']}]")
    if firing:
        print(
            f"slo check: {len(firing)} alert(s) firing",
            file=sys.stderr,
        )
        return 1
    print("slo check: ok — no alerts firing")
    return 0


def _cmd_obs(args) -> int:
    from .obs import (
        build_trace_trees,
        format_phase_report,
        format_tail,
        phase_stats,
        render_prometheus,
        render_trace_tree,
        span_records,
    )

    if args.obs_command == "tail":
        events = _load_obs_events(args.file)
        print(format_tail(events, args.n, kind=args.kind))
        return 0
    if args.obs_command == "report":
        events = []
        for path in args.files:
            events.extend(_load_obs_events(path))
        print(format_phase_report(phase_stats(events)))
        return 0
    if args.obs_command == "trace-tree":
        # Several files stitch into one forest: cluster runs write one
        # trace file per process, and spans parent across them.
        events = []
        for path in args.files:
            events.extend(_load_obs_events(path))
        spans = span_records(events)
        roots, orphans = build_trace_trees(spans)
        print(
            render_trace_tree(roots, orphans, trace_id=args.trace_id)
        )
        # Orphans mean a broken propagation path: fail loudly so CI's
        # obs-smoke job catches regressions with the same command an
        # operator would run.
        return 1 if orphans else 0
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.obs_command == "slo":
        return _cmd_obs_slo(args)
    if args.obs_command == "prom":
        store = _load_obs_timeline(args.file)
        latest = store.latest()
        snapshot = {
            "counters": latest["counters"],
            "gauges": latest["gauges"],
            "histograms": latest["histograms"],
        }
        print(render_prometheus(snapshot), end="")
        return 0
    raise UsageError(f"unknown obs command {args.obs_command!r}")


def _cluster_graph(args):
    catalog = getattr(args, "catalog", None)
    if args.graph and catalog:
        raise UsageError("--graph and --catalog are mutually exclusive")
    if args.graph:
        from .core import load_graphml

        return load_graphml(args.graph)
    from .graphs import tornado_catalog_graph

    return tornado_catalog_graph(catalog or 3)


def _run_daemon(role: str, start, max_seconds) -> int:
    """Run one daemon: ``await start()`` for the listening server, print
    the ``cluster.ready`` handshake the fleet drivers wait for, then
    sleep until ``max_seconds`` pass or the process is interrupted."""
    import asyncio
    import json

    async def run() -> int:
        server = await start()
        host, port = server.sockets[0].getsockname()[:2]
        print(
            json.dumps(
                {
                    "event": "cluster.ready",
                    "role": role,
                    "host": host,
                    "port": port,
                }
            ),
            flush=True,
        )
        try:
            if max_seconds is not None:
                await asyncio.sleep(max_seconds)
            else:
                await asyncio.Event().wait()
        finally:
            server.close()
            await server.wait_closed()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _ensure_daemon_registry() -> None:
    """Give every daemon a live in-process metrics registry.

    ``metrics.snapshot`` scrapes read the global registry; without
    ``--metrics`` nothing would have enabled one and every scrape
    would come back empty.  Daemons therefore always collect
    (collection is cheap and bounded) — ``--metrics`` still layers a
    JSONL sink on top via the usual capture path.
    """
    from .obs import MetricsRegistry, enable, metrics_enabled

    if not metrics_enabled():
        enable(MetricsRegistry())


def _cmd_cluster_coordinator(args) -> int:
    from .cluster import ClusterCoordinator, start_coordinator

    if args.wal and args.recover:
        raise UsageError("--wal and --recover are mutually exclusive")
    _ensure_daemon_registry()
    coordinator = ClusterCoordinator(
        _cluster_graph(args),
        block_size=args.block_size,
        plan_capacity=args.plan_capacity,
        wal_dir=args.recover or args.wal,
        recover=bool(args.recover),
        rpc_timeout=args.rpc_timeout,
        repair_bytes_per_cycle=args.repair_budget,
        snapshot_every=args.snapshot_every,
    )
    return _run_daemon(
        "coordinator",
        lambda: start_coordinator(coordinator, args.host, args.port),
        args.max_seconds,
    )


def _cmd_cluster_node(args) -> int:
    import asyncio

    from .cluster import StorageNode, start_storage_node
    from .resilience import FaultPlan

    plan = FaultPlan.load(args.faults) if args.faults else None
    _ensure_daemon_registry()
    node = StorageNode(args.id, seed=args.seed, fault_plan=plan)

    stepper: list[asyncio.Task] = []  # keeps the task referenced

    async def step_forever() -> None:
        while True:
            await asyncio.sleep(args.step_interval)
            node.step()

    async def start():
        server = await start_storage_node(node, args.host, args.port)
        if args.coordinator:
            from .serve import ClusterClient

            try:
                chost, cport = args.coordinator.rsplit(":", 1)
            except ValueError:
                raise UsageError(
                    "--coordinator must look like HOST:PORT"
                ) from None
            host, port = server.sockets[0].getsockname()[:2]
            client = ClusterClient(chost, int(cport))
            try:
                await asyncio.to_thread(
                    client.join, node.node_id, host, port
                )
            finally:
                await asyncio.to_thread(client.close)
        if args.step_interval > 0:
            # Cancelled with everything else when asyncio.run() exits.
            stepper.append(asyncio.create_task(step_forever()))
        return server

    return _run_daemon("node", start, args.max_seconds)


def _cmd_status(args, members: str, label: str) -> int:
    """``cluster status`` / ``sites status``: the tier's ``status()`` as
    JSON; exit 1 naming every member (node or site) not alive."""
    import json

    from .serve import ArchiveClient

    with ArchiveClient(args.host, args.port) as client:
        status = client.status()
    print(json.dumps(status, indent=2, sort_keys=True))
    down = [
        member
        for member, entry in status[members].items()
        if not entry["alive"]
    ]
    if down:
        print(f"{label}: {', '.join(down)}", file=sys.stderr)
        return 1
    return 0


def _run_scenario(args, config_cls, run) -> int:
    """Fleet scenarios: config from the verb's options → run → describe
    → --out → exit code (1 = data loss, or a config the run rejects)."""
    import json

    from .cluster.fleet import config_from_args

    for directory in (args.trace_dir, getattr(args, "obs_dir", None)):
        if directory:
            os.makedirs(directory, exist_ok=True)
    report = run(config_from_args(args, config_cls))
    print(report.describe())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 1 if report.data_loss else 0


def _cmd_cluster_loadgen(args) -> int:
    from .cluster import ClusterLoadConfig, run_cluster_loadgen

    return _run_scenario(args, ClusterLoadConfig, run_cluster_loadgen)


def _cmd_cluster_chaos(args) -> int:
    from .resilience import (
        ClusterCampaignConfig,
        FaultPlan,
        run_cluster_campaign,
    )

    plan = FaultPlan.load(args.faults) if args.faults else None
    return _run_scenario(
        args,
        ClusterCampaignConfig,
        lambda config: run_cluster_campaign(plan, config),
    )


def _cmd_cluster(args) -> int:
    handlers = {
        "coordinator": _cmd_cluster_coordinator,
        "node": _cmd_cluster_node,
        "status": lambda args: _cmd_status(args, "nodes", "dead nodes"),
        "loadgen": _cmd_cluster_loadgen,
        "chaos": _cmd_cluster_chaos,
    }
    return handlers[args.cluster_command](args)


def _cmd_sites_gateway(args) -> int:
    from .resilience import RetryPolicy
    from .sites import FederationGateway, FederationManifest, start_gateway

    manifest = FederationManifest.load(args.manifest)
    _ensure_daemon_registry()
    gateway = FederationGateway(
        manifest,
        block_size=args.block_size,
        retry=RetryPolicy(
            max_attempts=2,
            base_delay=0.05,
            max_delay=0.5,
            jitter=0.1,
            seed=args.seed,
        ),
        rpc_timeout=args.rpc_timeout,
        repair_wan_budget=args.repair_wan_budget,
        plan_capacity=args.plan_capacity,
    )
    for spec in args.attach:
        try:
            site_id, addr = spec.split("=", 1)
            chost, cport = addr.rsplit(":", 1)
            gateway.attach_site(site_id, chost, int(cport))
        except ValueError:
            raise UsageError(
                f"--attach must look like SITE=HOST:PORT, got {spec!r}"
            ) from None

    return _run_daemon(
        "gateway",
        lambda: start_gateway(gateway, args.host, args.port),
        args.max_seconds,
    )


def _cmd_sites_loadgen(args) -> int:
    from .sites import SitesLoadConfig, run_sites_loadgen

    return _run_scenario(args, SitesLoadConfig, run_sites_loadgen)


def _cmd_sites_chaos(args) -> int:
    from .sites import SitesCampaignConfig, run_sites_campaign

    return _run_scenario(args, SitesCampaignConfig, run_sites_campaign)


def _cmd_sites(args) -> int:
    handlers = {
        "gateway": _cmd_sites_gateway,
        "status": lambda args: _cmd_status(args, "sites", "dark sites"),
        "loadgen": _cmd_sites_loadgen,
        "chaos": _cmd_sites_chaos,
    }
    return handlers[args.sites_command](args)


def _cmd_render(args) -> int:
    from .analysis import save_svg, svg_failure_graph
    from .core import load_graphml, render_failure

    graph = load_graphml(args.graph)
    missing = [
        int(x) for x in args.missing.split(",") if x.strip() != ""
    ]
    save_svg(svg_failure_graph(graph, missing), args.out)
    print(render_failure(graph, missing))
    print(f"rendering written to {args.out}")
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "overhead": _cmd_overhead,
    "reliability": _cmd_reliability,
    "mission": _cmd_mission,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "obs": _cmd_obs,
    "cluster": _cmd_cluster,
    "sites": _cmd_sites,
    "render": _cmd_render,
}


def _run_command(args) -> int:
    metrics_path = getattr(args, "metrics", None) or os.environ.get(
        "REPRO_METRICS"
    )
    trace_path = getattr(args, "trace", None) or os.environ.get(
        "REPRO_TRACE"
    )
    if not metrics_path and not trace_path:
        return _COMMANDS[args.command](args)

    from contextlib import ExitStack

    from .obs import (
        JsonlSink,
        MetricsRegistry,
        RunManifest,
        Tracer,
        capture,
        trace_capture,
    )

    with ExitStack() as stack:
        sinks: dict[str, JsonlSink] = {}

        def sink_for(path: str) -> JsonlSink:
            # --trace and --metrics pointing at the same file share one
            # sink, interleaving spans with events (JsonlSink is
            # thread-safe, so lines never tear).
            if path not in sinks:
                sinks[path] = JsonlSink(path)
                stack.callback(sinks[path].close)
            return sinks[path]

        if trace_path:
            stack.enter_context(
                trace_capture(
                    Tracer(
                        sink=sink_for(trace_path),
                        seed=getattr(args, "seed", 0) or 0,
                    )
                )
            )
        if not metrics_path:
            return _COMMANDS[args.command](args)

        config = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "metrics", "trace")
        }
        manifest = RunManifest.create(
            f"repro {args.command}",
            seed=getattr(args, "seed", None),
            config=config,
        )
        with capture(MetricsRegistry(sink=sink_for(metrics_path))) as reg:
            code = _COMMANDS[args.command](args)
            reg.event("metrics_summary", **reg.snapshot())
            reg.event("run_manifest", **manifest.finish().to_dict())
        return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `cluster loadgen --trace-dir D` should capture the driver's own
    # client spans alongside the children's files, so one trace-tree
    # invocation over D/*.jsonl stitches the whole cluster.
    if (
        getattr(args, "trace_dir", None)
        and not getattr(args, "trace", None)
    ):
        os.makedirs(args.trace_dir, exist_ok=True)
        args.trace = os.path.join(args.trace_dir, "driver.jsonl")
    try:
        return _run_command(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _OPERATIONAL_ERRORS as exc:
        # KeyError's str() is just the repr of the key; unwrap it.
        message = exc.args[0] if type(exc) is KeyError and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
