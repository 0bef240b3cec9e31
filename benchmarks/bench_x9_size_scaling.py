"""X9 — graph-size scaling: why the paper uses 96 nodes, and beyond.

§3 argues 96 nodes is "an appropriate lower bound for filesystem
construction purposes" and that "using fewer nodes is not feasible",
citing Plank's finding that LDPC codes behave worst between 10 and 100
nodes.  This experiment certifies graphs across stripe widths with the
full pipeline and measures what fault tolerance each size can reach:

* 32-node graphs cannot even pass the size-3 defect screen (hundreds of
  attempts all contain a <=3 critical set) and top out at first
  failure 3;
* 48-node graphs screen clean but resist adjustment beyond 4;
* 64-node and larger graphs reach the paper's certified first
  failure 5, with overhead improving as the graph grows.

The timed kernel is full certification (screen + adjust) at 96 nodes.

The second half (``test_x9_sparse_size_scaling``) extends the story
two orders of magnitude past the paper: CSR cascades from 2^14 up to
2^20 nodes decoded by the sparse word-packed engine, with bit-exact
parity against the bitset engine wherever both fit, a seeded Monte
Carlo sweep of the largest graph, and an aggregate multi-process
throughput measurement on the 96-node catalog graph.  Results land in
``benchmarks/results/BENCH_scaling.json``.

Scale knobs: ``REPRO_BENCH_SCALING_MAX_NODES`` (largest CSR graph,
default 2^20), ``REPRO_BENCH_SCALING_BATCH`` (cases per timed decode,
default 4096 — the sparse engine amortises its index work across
words, so tiny batches flatter the dense engine),
``REPRO_BENCH_SCALING_PARITY_MAX_NODES`` (largest size
cross-checked against bitset, default 2^16),
``REPRO_BENCH_SCALING_SWEEP_SAMPLES`` (samples per k in the big-graph
sweep, default 2048), ``REPRO_BENCH_SCALING_JOBS`` (aggregate worker
count, default cpu count) and ``REPRO_BENCH_SCALING_MIN_SPEEDUP``
(sparse-vs-bitset floor, default 1.0 — CI's no-slower bar).
"""

import os
import time

import numpy as np

from _bench_utils import merge_bench_json, write_result
from repro.analysis import format_table
from repro.core import (
    BitsetBatchDecoder,
    GenerationError,
    SparseBitsetDecoder,
    adjust_graph,
    analyze_worst_case,
    generate_certified,
    packed_sparse_loss_masks,
    tornado_csr_graph,
)
from repro.core.sparse import jit_enabled
from repro.graphs import tornado_catalog_graph
from repro.sim import measure_retrieval_overhead, profile_graph

SIZES = (16, 24, 32, 48, 64)

MAX_NODES = int(
    os.environ.get("REPRO_BENCH_SCALING_MAX_NODES", str(1 << 20))
)
SCALING_BATCH = int(os.environ.get("REPRO_BENCH_SCALING_BATCH", "4096"))
PARITY_MAX_NODES = int(
    os.environ.get("REPRO_BENCH_SCALING_PARITY_MAX_NODES", str(1 << 16))
)
SWEEP_SAMPLES = int(
    os.environ.get("REPRO_BENCH_SCALING_SWEEP_SAMPLES", "2048")
)
SCALING_JOBS = int(
    os.environ.get("REPRO_BENCH_SCALING_JOBS", str(os.cpu_count() or 1))
)
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SCALING_MIN_SPEEDUP", "1.0")
)
AGG_SAMPLES = int(
    os.environ.get("REPRO_BENCH_SCALING_AGG_SAMPLES", str(1 << 18))
)
REPEATS = int(os.environ.get("REPRO_BENCH_SCALING_REPEATS", "2"))


def certify(num_data: int):
    try:
        report = generate_certified(num_data, seed=0, max_attempts=300)
        screen = 3
    except GenerationError:
        report = generate_certified(
            num_data, seed=0, defect_size=2, max_attempts=300
        )
        screen = 2
    adjusted = adjust_graph(report.graph, target_first_failure=5)
    return report, adjusted, screen


def test_x9_size_scaling(benchmark):
    benchmark(certify, 48)

    rows = []
    reached = {}
    for num_data in SIZES:
        report, adjusted, screen = certify(num_data)
        wc = analyze_worst_case(adjusted.graph, max_k=5)
        overhead = measure_retrieval_overhead(
            adjusted.graph, n_trials=600, seed=0
        )
        reached[num_data] = wc.first_failure
        rows.append(
            [
                f"{2 * num_data} nodes",
                f"<= {screen}",
                report.attempts,
                wc.first_failure,
                f"{overhead.mean_overhead:.3f}",
            ]
        )

    table = format_table(
        [
            "Graph size",
            "defect screen passed",
            "attempts",
            "first failure (adjusted)",
            "retrieval overhead",
        ],
        rows,
    )
    write_result(
        "x9_size_scaling",
        "X9 - certified fault tolerance vs stripe width\n"
        "(paper §3: 96 nodes is the feasible lower bound; Plank: LDPC\n"
        "worst between 10 and 100 nodes)\n\n" + table,
    )

    # The paper's feasibility claim, quantified:
    assert reached[16] <= 3  # 32-node graphs cannot reach 4
    assert reached[48] == 5
    assert reached[64] == 5
    assert reached[16] < reached[32] or reached[16] < reached[48]


# ----------------------------------------------------------------------
# Sparse engine scaling: 2^14 .. 2^20 nodes
# ----------------------------------------------------------------------


def _best_seconds(fn, *args):
    """Best-of-``REPEATS`` wall time of ``fn(*args)`` (returns t, out)."""
    out = fn(*args)  # warm-up: allocations, caches
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _scaling_sizes() -> list[int]:
    sizes, n = [], 1 << 14
    while n <= MAX_NODES:
        sizes.append(n)
        n <<= 1
    return sizes


def test_x9_sparse_size_scaling():
    """CSR cascades to 2^20 nodes: throughput, parity, sweep, aggregate."""
    per_size = []
    best_speedup = 0.0
    graphs = {}
    for num_nodes in _scaling_sizes():
        num_data = num_nodes // 2
        t0 = time.perf_counter()
        graph = tornado_csr_graph(num_data, seed=num_data)
        build_s = time.perf_counter() - t0
        assert graph.num_nodes == num_nodes
        graphs[num_nodes] = graph

        k = num_nodes // 10
        rng = np.random.default_rng(17)
        masks = packed_sparse_loss_masks(num_nodes, k, SCALING_BATCH, rng)
        sparse = SparseBitsetDecoder(graph)
        t_sp, ok_sp = _best_seconds(
            sparse.decode_packed, masks, SCALING_BATCH
        )
        entry = {
            "num_nodes": num_nodes,
            "num_constraints": int(graph.num_constraints),
            "edges": int(len(graph.con_nodes)),
            "k": k,
            "batch": SCALING_BATCH,
            "build_seconds": build_s,
            "fail_fraction": float(1.0 - ok_sp.mean()),
            "cases_per_sec": {"sparse": SCALING_BATCH / t_sp},
        }
        if num_nodes <= PARITY_MAX_NODES:
            # The dense engine still fits: demand bit-exact parity
            # before admitting either timing, then compare throughput.
            bitset = BitsetBatchDecoder(graph.to_graph())
            t_bit, ok_bit = _best_seconds(
                bitset.decode_packed, masks, SCALING_BATCH
            )
            assert np.array_equal(ok_sp, ok_bit), num_nodes
            entry["cases_per_sec"]["bitset"] = SCALING_BATCH / t_bit
            entry["speedup_sparse_vs_bitset"] = t_bit / t_sp
            best_speedup = max(best_speedup, t_bit / t_sp)
        per_size.append(entry)

    # CI bar: at >=2^14 nodes the sparse engine is no slower than the
    # dense bitset engine on the identical packed batch.
    assert any("speedup_sparse_vs_bitset" in e for e in per_size)
    assert best_speedup >= MIN_SPEEDUP, per_size

    # Seeded Monte Carlo sweep of the largest graph — the "million-node
    # sweep completes" datum.  CsrGraph skips the exact stage, so the
    # k-grid carries the whole sweep.
    big = graphs[max(graphs)]
    # 10%, 20% and 25% loss: the last sits at the cascade's peeling
    # transition, so the sweep exhibits the failure curve, not just
    # three zeros.
    ks = [big.num_nodes // 10, big.num_nodes // 5, big.num_nodes // 4]
    t0 = time.perf_counter()
    profile = profile_graph(
        big,
        samples_per_k=SWEEP_SAMPLES,
        ks=ks,
        seed=29,
        engine="sparse",
        n_jobs=SCALING_JOBS,
    )
    sweep_s = time.perf_counter() - t0
    assert all(profile.coverage[k] for k in ks)
    # 5% loss on a rate-1/2 cascade overwhelmingly decodes; 20% is a
    # graph-dependent mix.  Failure must not decrease with k.
    ff = [float(profile.fail_fraction[k]) for k in ks]
    assert ff[0] < 0.5
    assert ff == sorted(ff)
    sweep = {
        "num_nodes": big.num_nodes,
        "ks": ks,
        "samples_per_k": SWEEP_SAMPLES,
        "seconds": sweep_s,
        "fail_fraction": ff,
        "cases_per_sec": SWEEP_SAMPLES * len(ks) / sweep_s,
        "n_jobs": SCALING_JOBS,
    }

    # Aggregate multi-process throughput on the paper's 96-node catalog
    # graph: the pooled sweep must equal the in-process one bit for
    # bit, and the recorded rate is the headline multi-core number.
    # Cells fan out one per k, so the grid has more cells than workers.
    catalog = tornado_catalog_graph(3)
    agg_ks = [20, 23, 26, 29, 32, 35, 38, 41]
    agg = dict(
        samples_per_k=AGG_SAMPLES // len(agg_ks), ks=agg_ks, exact_upto=0,
        seed=5,
    )
    t0 = time.perf_counter()
    p_serial = profile_graph(catalog, **agg, n_jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    p_par = profile_graph(catalog, **agg, n_jobs=SCALING_JOBS)
    par_s = time.perf_counter() - t0
    assert p_serial.fail_fraction.tobytes() == p_par.fail_fraction.tobytes()
    cases = int(p_serial.samples.sum())
    aggregate = {
        "graph": "catalog-3 (96 nodes)",
        "ks": agg_ks,
        "samples": cases,
        "n_jobs": SCALING_JOBS,
        "serial_cases_per_sec": cases / serial_s,
        "aggregate_cases_per_sec": cases / par_s,
        "parallel_speedup": serial_s / par_s,
    }

    rows = [
        [
            f"2^{num_nodes.bit_length() - 1} nodes",
            f"{e['edges']:,}",
            f"{e['build_seconds']:.2f}s",
            f"{e['cases_per_sec']['sparse']:,.0f}",
            (
                f"{e['cases_per_sec']['bitset']:,.0f}"
                if "bitset" in e["cases_per_sec"]
                else "-"
            ),
            (
                f"{e['speedup_sparse_vs_bitset']:.2f}x"
                if "speedup_sparse_vs_bitset" in e
                else "-"
            ),
        ]
        for e in per_size
        for num_nodes in [e["num_nodes"]]
    ]
    table = format_table(
        [
            "Graph size",
            "edges",
            "build",
            "sparse cases/s",
            "bitset cases/s",
            "sparse/bitset",
        ],
        rows,
    )
    write_result(
        "x9_sparse_scaling",
        "X9b - sparse engine scaling, 2^14..2^20 nodes "
        f"(batch={SCALING_BATCH}, jit={jit_enabled()})\n\n"
        + table
        + "\n\n"
        + f"2^{big.num_nodes.bit_length() - 1}-node sweep: "
        + f"ks={ks}, {SWEEP_SAMPLES} samples/k in {sweep_s:.1f}s "
        + f"({sweep['cases_per_sec']:,.0f} cases/s), "
        + f"fail fractions {['%.3f' % f for f in ff]}\n"
        + f"aggregate (96-node catalog, n_jobs={SCALING_JOBS}): "
        + f"{aggregate['aggregate_cases_per_sec']:,.0f} cases/s "
        + f"({aggregate['parallel_speedup']:.2f}x serial)",
    )
    merge_bench_json(
        "BENCH_scaling.json",
        config={
            "scaling_batch": SCALING_BATCH,
            "scaling_max_nodes": MAX_NODES,
            "scaling_parity_max_nodes": PARITY_MAX_NODES,
            "scaling_sweep_samples": SWEEP_SAMPLES,
            "scaling_jobs": SCALING_JOBS,
            "jit_enabled": jit_enabled(),
        },
        results=[
            {
                "bench": "x9_sparse_scaling",
                "sizes": per_size,
                "sweep": sweep,
                "aggregate": aggregate,
            }
        ],
    )
