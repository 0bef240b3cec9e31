"""The benchmark's metric catalogue — names, units, directions, bounds.

``BENCHMARK.json`` is this table serialised (``tests/test_perf.py`` holds
the two together), and ``run.py`` prints exactly these names.

Three groups:

``END_TO_END``
    What a user of any workload waits for or pays.  The driver contract
    wants every end-to-end metric reported, and never zero, on *every*
    workload, so these are the ones that mean something on all four.
    ``bound`` is the share of the parent's median by which a later change
    may worsen the metric; it was set from ``repeat.py`` on this class of
    machine (see BUDGET.md, "Run-to-run spread").

``NAMED``
    The operation-level numbers each workload exists to produce
    (throughput and median latency per operation, storage and repair
    amplification).  Each is defined on the workloads listed for it,
    measured on the untraced rounds, printed by every run, written to the
    history file and gated by ``repeat.py`` with the bound given here.
    They reach the driver in the traced run's output under ``e2e.<name>``
    (0 on workloads where the operation does not occur).

``PER_LAYER``
    One traced run's numbers per layer (layer = module name).  No bound.
    A layer a workload never calls reports 0 there — which is the point:
    each layer demonstrably works in one workload and idles in another.
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEPS = ("sweep_small", "sweep_large")
RW = ("archive_rw",)
DEGRADED = ("archive_degraded",)
ARCHIVE = RW + DEGRADED
ALL = SWEEPS + ARCHIVE


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    exact: bool = False  # repeats bit for bit on the same inputs


WORKLOADS = {
    "sweep_small": "the paper's own experiment: failure profile of a "
    "96-node graph on the dense mask generator and the bitset kernel",
    "sweep_large": "the same sweep layers on their other implementations "
    "(bounded-memory generator, sparse kernel) at 16384 nodes, which "
    "sweep_small bypasses",
    "archive_rw": "healthy put and get over loopback TCP: RPC-count-bound "
    "writes beside byte-bound reads; codec replay and plan cache bypassed",
    "archive_degraded": "reads with blocks missing and a node dark, then "
    "repair: plan cache, XOR replay and repair scheduler do the work "
    "archive_rw bypasses",
}

END_TO_END = [
    Metric("round_s", "s", "lower", 0.25),
    Metric("peak_rss_MB", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
]

NAMED = [
    Metric("sweep_cases_per_s", "1/s", "higher", 0.25, SWEEPS),
    Metric("put_MBps", "MB/s", "higher", 0.25, RW),
    Metric("put_p50_ms", "ms", "lower", 0.25, RW),
    Metric("get_MBps", "MB/s", "higher", 0.25, RW),
    Metric("get_p50_ms", "ms", "lower", 0.25, RW),
    Metric("stored_bytes_per_payload_byte", "B/B", "lower", 0.0, RW, True),
    Metric("degraded_get_MBps", "MB/s", "higher", 0.25, DEGRADED),
    Metric("degraded_get_p50_ms", "ms", "lower", 0.25, DEGRADED),
    Metric("repair_MBps", "MB/s", "higher", 0.25, DEGRADED),
    Metric("repair_read_bytes_per_lost_byte", "B/B", "lower", 0.0,
           DEGRADED, True),
    Metric("failed_ops_share", "share", "lower", 0.0, ALL, True),
]


def _layer(name, unit, better, workloads, exact=False) -> Metric:
    return Metric(name, unit, better, None, workloads, exact)


PER_LAYER = [
    # Monte Carlo sweep: exact stage -> decoder build -> masks -> kernel
    _layer("core.critical.exact_s", "s", "lower", ("sweep_small",)),
    _layer("core.decoder.build_s", "s", "lower", SWEEPS),
    _layer("sim.maskgen.s", "s", "lower", SWEEPS),
    _layer("sim.maskgen.cases_per_s", "1/s", "higher", SWEEPS),
    _layer("sim.maskgen.share", "share", "lower", SWEEPS),
    _layer("core.kernel.s", "s", "lower", SWEEPS),
    _layer("core.kernel.cases_per_s", "1/s", "higher", SWEEPS),
    _layer("core.kernel.share", "share", "lower", SWEEPS),
    _layer("sim.montecarlo.unattributed_share", "share", "lower", SWEEPS),
    # archive: client -> framing -> coordinator -> node RPC -> store
    _layer("serve.client.self_ms_per_put", "ms", "lower", RW),
    _layer("serve.client.self_ms_per_get", "ms", "lower", RW),
    _layer("serve.client.put_p95_ms", "ms", "lower", RW),
    _layer("serve.client.get_p99_ms", "ms", "lower", RW),
    _layer("serve.protocol.frame_ms_per_put", "ms", "lower", RW),
    _layer("serve.protocol.frame_ms_per_get", "ms", "lower", RW),
    _layer("serve.protocol.frame_ms_per_degraded_get", "ms", "lower",
           DEGRADED),
    _layer("serve.protocol.frames_per_put", "count", "lower", RW, True),
    _layer("serve.protocol.frames_per_get", "count", "lower", RW, True),
    _layer("serve.protocol.wire_bytes_per_payload_byte.put", "B/B",
           "lower", RW, True),
    _layer("serve.protocol.wire_bytes_per_payload_byte.get", "B/B",
           "lower", RW, True),
    _layer("cluster.rpc.span_ms_per_put", "ms", "lower", RW),
    _layer("cluster.rpc.span_ms_per_get", "ms", "lower", RW),
    _layer("cluster.rpc.count_per_put", "count", "lower", RW, True),
    _layer("cluster.rpc.count_per_get", "count", "lower", RW, True),
    _layer("cluster.coordinator.self_ms_per_put", "ms", "lower", RW),
    _layer("cluster.coordinator.self_ms_per_get", "ms", "lower", RW),
    _layer("cluster.coordinator.self_ms_per_degraded_get", "ms", "lower",
           DEGRADED),
    _layer("cluster.node.handle_ms_per_put", "ms", "lower", RW),
    _layer("cluster.node.handle_ms_per_get", "ms", "lower", RW),
    _layer("storage.blockstore.ms_per_put", "ms", "lower", RW),
    _layer("storage.blockstore.ms_per_get", "ms", "lower", RW),
    _layer("cluster.wal.append_ms_per_put", "ms", "lower", RW),
    _layer("core.codec.encode_ms_per_put", "ms", "lower", RW),
    _layer("core.codec.encode_MBps", "MB/s", "higher", RW),
    _layer("core.codec.replay_ms_per_degraded_get", "ms", "lower", DEGRADED),
    _layer("core.codec.replay_MBps", "MB/s", "higher", DEGRADED),
    _layer("serve.plancache.schedule_ms_miss", "ms", "lower", DEGRADED),
    _layer("serve.plancache.schedule_ms_hit", "ms", "lower", DEGRADED),
    _layer("serve.plancache.hit_ratio", "share", "higher", DEGRADED),
    _layer("cluster.scheduler.repair_s", "s", "lower", DEGRADED),
    _layer("cluster.scheduler.scattered_repair_ms_per_block", "ms", "lower",
           DEGRADED),
    _layer("cluster.scheduler.rebuilt_blocks", "count", "lower", DEGRADED,
           True),
    _layer("cluster.scheduler.moved_blocks", "count", "lower", DEGRADED,
           True),
    _layer("cluster.scheduler.write_bytes_per_lost_byte", "B/B", "lower",
           DEGRADED, True),
    # wall time of an operation that no instrumented layer accounts for
    _layer("op.put.unattributed_share", "share", "lower", RW),
    _layer("op.get.unattributed_share", "share", "lower", RW),
    _layer("op.degraded_get.unattributed_share", "share", "lower", DEGRADED),
    _layer("op.repair.unattributed_share", "share", "lower", DEGRADED),
    # the instrument's own cost, and the machine's ceilings
    _layer("obs.trace.overhead_share", "share", "lower", ALL),
    _layer("ceiling.xor_MBps", "MB/s", "higher", ALL),
    _layer("ceiling.memcpy_MBps", "MB/s", "higher", ALL),
    _layer("ceiling.b64json_MBps", "MB/s", "higher", ALL),
    _layer("ceiling.loopback_rtt_us", "us", "lower", ALL),
    # the NAMED numbers of the traced run's own untraced rounds
    *(
        _layer(f"e2e.{m.name}", m.unit, m.better, m.workloads, m.exact)
        for m in NAMED
    ),
]

BY_NAME = {m.name: m for m in END_TO_END + NAMED + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The contract file's content for this catalogue."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
