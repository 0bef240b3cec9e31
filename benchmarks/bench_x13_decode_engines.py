"""X13 — decode engine throughput: scalar vs bitset vs sparse.

The Monte Carlo hot path is millions of independent "is this erasure
pattern recoverable?" decodes.  Three decoders answer that question:

* ``scalar`` — :class:`repro.core.PeelingDecoder`, one case at a time
  (the reference implementation; timed on a small sample).
* ``bitset`` — :class:`repro.core.BitsetBatchDecoder`, 64 cases packed
  per uint64 word, peeled with bitwise ops over dense bit-planes (what
  ``make_batch_decoder`` picks at these sizes).
* ``sparse`` — :class:`repro.core.SparseBitsetDecoder`, the same packing
  over flat CSR edge arrays (what it picks from 2^14 nodes up; timed
  here on the small graphs to show why it does not pick it sooner —
  the large-graph side of the rule is X9's bar).

Each decoder reads the *same* pre-generated erasure masks, so the
timings isolate the decode kernel (mask generation is common work and
its packed variant replays the identical RNG stream anyway).  The
bench asserts case-for-case agreement before trusting any timing, then
requires both batch kernels to beat the scalar loop.  (The float32
matmul engine this bench once compared against is deleted; its last
recorded numbers are in ``benchmarks/results/`` and docs/PERF.md.)

Scale knobs: ``REPRO_BENCH_DECODE_BATCH`` (cases per timed decode,
default 8192), ``REPRO_BENCH_DECODE_SCALAR`` (scalar sample size,
default 512), ``REPRO_BENCH_DECODE_REPEATS`` (best-of repeats,
default 3).

Results land in ``benchmarks/results/x13_decode_engines.txt``.
"""

import os
import time

import numpy as np

from _bench_utils import write_result
from repro.analysis import format_table
from repro.core import (
    BitsetBatchDecoder,
    PeelingDecoder,
    SparseBitsetDecoder,
    pack_cases,
    tornado_graph,
)
from repro.graphs import tornado_catalog_graph
from repro.core.lossmasks import boolean_loss_masks

BATCH = int(os.environ.get("REPRO_BENCH_DECODE_BATCH", "8192"))
SCALAR_CASES = int(os.environ.get("REPRO_BENCH_DECODE_SCALAR", "512"))
REPEATS = int(os.environ.get("REPRO_BENCH_DECODE_REPEATS", "3"))

# The 96-node acceptance graph at the ks named by the issue (below,
# inside, and above the failure transition), plus a 128-node cascade
# with the same ks scaled by 128/96 to show the gap is not a
# size-96 artifact.
GRAPHS = (
    ("catalog-3 (96 nodes)", lambda: tornado_catalog_graph(3), (10, 26, 42)),
    (
        "tornado-n64 (128 nodes)",
        lambda: tornado_graph(64, seed=1, min_final_lefts=32),
        (13, 35, 56),
    ),
)


def _best_seconds(fn, *args):
    """Best-of-``REPEATS`` wall time of ``fn(*args)`` (returns t, out)."""
    out = fn(*args)  # warm-up: allocations, caches
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _measure(graph, k, rng):
    masks = boolean_loss_masks(graph.num_nodes, k, BATCH, rng)
    packed = pack_cases(masks)
    scalar = PeelingDecoder(graph)
    bitset = BitsetBatchDecoder(graph)
    sparse = SparseBitsetDecoder(graph)

    t_bit, ok_bit = _best_seconds(bitset.decode_packed, packed, BATCH)
    t_sp, ok_sp = _best_seconds(sparse.decode_packed, packed, BATCH)

    sub = masks[:SCALAR_CASES]

    def scalar_sweep():
        return np.array(
            [scalar.is_recoverable(np.flatnonzero(m)) for m in sub]
        )

    t_sca, ok_sca = _best_seconds(scalar_sweep)

    # No timing is admissible unless every engine agrees case for case.
    assert np.array_equal(ok_bit, ok_sp), (graph.name, k)
    assert np.array_equal(ok_sca, ok_bit[:SCALAR_CASES]), (graph.name, k)

    return {
        "k": k,
        "fail_fraction": float(1.0 - ok_bit.mean()),
        "cases_per_sec": {
            "scalar": SCALAR_CASES / t_sca,
            "bitset": BATCH / t_bit,
            "sparse": BATCH / t_sp,
        },
        "speedup_bitset_vs_sparse": t_sp / t_bit,
        "speedup_bitset_vs_scalar": (BATCH / t_bit) / (SCALAR_CASES / t_sca),
        "speedup_sparse_vs_scalar": (BATCH / t_sp) / (SCALAR_CASES / t_sca),
    }


def test_x13_decode_engines(benchmark):
    graph3 = tornado_catalog_graph(3)
    warm = boolean_loss_masks(
        graph3.num_nodes, 26, min(1024, BATCH), np.random.default_rng(0)
    )
    bit3 = BitsetBatchDecoder(graph3)
    benchmark(bit3.decode_packed, pack_cases(warm), warm.shape[0])

    results = []
    rows = []
    for label, make, ks in GRAPHS:
        graph = make()
        rng = np.random.default_rng(42)
        for k in ks:
            m = _measure(graph, k, rng)
            cps = m["cases_per_sec"]
            results.append({"graph": label, "num_nodes": graph.num_nodes, **m})
            rows.append(
                [
                    label,
                    k,
                    f"{cps['scalar']:,.0f}",
                    f"{cps['bitset']:,.0f}",
                    f"{cps['sparse']:,.0f}",
                    f"{m['speedup_bitset_vs_sparse']:.1f}x",
                ]
            )

    table = format_table(
        ["graph", "k offline", "scalar c/s", "bitset c/s", "sparse c/s",
         "bitset/sparse"],
        rows,
    )
    write_result(
        "x13_decode_engines",
        f"X13 - decode engine throughput, batch={BATCH}, "
        f"best of {REPEATS} (scalar sampled at {SCALAR_CASES} cases)\n\n"
        + table,
    )

    # Acceptance: everywhere, both batch kernels must crush the scalar
    # loop.  Which of the two is faster is the size rule's business:
    # bitset here (recorded, not gated — CI runners are too unsteady),
    # sparse from 2^14 nodes up (gated in X9).
    for res in results:
        assert res["speedup_bitset_vs_scalar"] > 1.0, res
        assert res["speedup_sparse_vs_scalar"] > 1.0, res
