"""X2 — ablation: peeling decoder vs GF(2) maximum-likelihood decoding.

Tornado decoding is iterative peeling; a lost set can be linearly
determined yet peeling-stuck.  This ablation quantifies the gap on the
best catalog graph: failure fraction under both decoders across the
transition region.  Expected shape: ML strictly dominates, with the
largest gap in the middle of the transition — evidence for the paper's
implicit design point that graph quality (not decoder sophistication)
is where small-LDPC fault tolerance is won.
"""

import numpy as np
import pytest

from _bench_utils import write_result
from repro.analysis import format_table
from repro.core import MLDecoder, make_batch_decoder

SAMPLES = 800
KS = (20, 26, 30, 34, 38, 42)


@pytest.fixture(scope="module")
def decoders(systems):
    g = systems["Tornado Graph 3"]
    return g, make_batch_decoder(g), MLDecoder(g)


def test_x2_peeling_vs_ml(benchmark, decoders):
    graph, peel, ml = decoders
    rng = np.random.default_rng(0)

    benchmark(ml.is_recoverable, list(range(0, 30)))

    rows = []
    gaps = []
    for k in KS:
        masks = np.zeros((SAMPLES, graph.num_nodes), dtype=bool)
        for i in range(SAMPLES):
            masks[i, rng.choice(graph.num_nodes, k, replace=False)] = True
        peel_ok = peel.decode_batch(masks)
        ml_ok = np.array(
            [ml.is_recoverable(np.flatnonzero(m)) for m in masks]
        )
        # ML must dominate peeling case by case.
        assert (ml_ok | ~peel_ok).all() or (ml_ok >= peel_ok).all()
        peel_fail = 1.0 - peel_ok.mean()
        ml_fail = 1.0 - ml_ok.mean()
        gaps.append(peel_fail - ml_fail)
        rows.append(
            [k, f"{peel_fail:.3f}", f"{ml_fail:.3f}",
             f"{peel_fail - ml_fail:+.3f}"]
        )

    table = format_table(
        ["k offline", "peeling P(fail)", "ML P(fail)", "gap"], rows
    )
    write_result(
        "x2_peeling_vs_ml",
        "X2 - peeling vs maximum-likelihood decoding, Tornado Graph 3\n"
        f"{SAMPLES} samples per point\n\n" + table,
    )
    assert max(gaps) >= 0.0
    assert all(g >= -1e-9 for g in gaps)  # ML never loses
