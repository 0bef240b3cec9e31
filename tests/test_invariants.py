"""Cross-module invariants, property-tested across graph families.

These tests pin down the relationships that make the reproduction
trustworthy: every decoder agrees with every other where their domains
overlap, the exact counting machinery agrees with brute force, and all
of it holds across every family the paper compares — not just the
Tornado graphs the pipeline was tuned on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DECODE_ENGINES,
    MLDecoder,
    PeelingDecoder,
    TornadoCodec,
    cascade_graph_from_degrees,
    from_networkx,
    is_stopping_set,
    make_batch_decoder,
    minimal_bad_stopping_sets,
    to_networkx,
    tornado_graph,
)
from repro.graphs import (
    mirrored_graph,
    regular_graph,
    replicated_graph,
    striped_graph,
)
from repro.analysis import graph_stats


def family_graph(family: int, seed: int):
    """A graph from one of the paper's families, by index."""
    builders = [
        lambda: tornado_graph(16, seed=seed),
        lambda: cascade_graph_from_degrees(16, 3, seed=seed),
        lambda: regular_graph(12, 3, seed=seed),
        lambda: mirrored_graph(8),
        lambda: striped_graph(12),
        lambda: replicated_graph(6, 3),
    ]
    return builders[family % len(builders)]()


families = st.integers(0, 5)
seeds = st.integers(0, 200)


@settings(max_examples=40, deadline=None)
@given(family=families, seed=seeds, data=st.data())
def test_decoder_hierarchy(family, seed, data):
    """scalar == batch, and ML dominates peeling, on every family."""
    g = family_graph(family, seed)
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, g.num_nodes))
    missing = rng.choice(g.num_nodes, size=k, replace=False)

    scalar = PeelingDecoder(g).is_recoverable(missing)
    for engine in DECODE_ENGINES:
        batch = make_batch_decoder(g, engine).decode_missing_sets(
            [missing.tolist()]
        )[0]
        assert scalar == bool(batch), engine
    if scalar:
        assert MLDecoder(g).is_recoverable(missing)


@settings(max_examples=30, deadline=None)
@given(family=families, seed=seeds, data=st.data())
def test_residual_is_always_stopping_set(family, seed, data):
    g = family_graph(family, seed)
    rng = np.random.default_rng(seed + 1)
    k = data.draw(st.integers(0, g.num_nodes))
    missing = rng.choice(g.num_nodes, size=k, replace=False)
    res = PeelingDecoder(g).decode(missing)
    assert is_stopping_set(g, res.residual)
    assert res.residual <= set(missing.tolist())


@settings(max_examples=25, deadline=None)
@given(family=families, seed=seeds)
def test_graphml_roundtrip_every_family(family, seed):
    g = family_graph(family, seed)
    g2 = from_networkx(to_networkx(g))
    assert g2.constraints == g.constraints
    assert g2.data_nodes == g.data_nodes
    assert g2.levels == g.levels


@settings(max_examples=25, deadline=None)
@given(family=families, seed=seeds)
def test_stats_are_consistent(family, seed):
    g = family_graph(family, seed)
    stats = graph_stats(g)
    assert stats.num_edges == g.num_edges
    assert sum(lv.num_edges for lv in stats.levels) == g.num_edges
    assert stats.num_data + stats.num_checks == g.num_nodes


@settings(max_examples=15, deadline=None)
@given(
    family=st.integers(0, 2),  # families with checks and >1 constraint
    seed=seeds,
    payload_seed=st.integers(0, 1000),
)
def test_codec_roundtrip_under_max_guaranteed_loss(
    family, seed, payload_seed
):
    """Losing strictly fewer nodes than the first failure must always
    round-trip real data, for any family."""
    g = family_graph(family, seed)
    sets = minimal_bad_stopping_sets(g, max_size=4)
    ff = min((len(s) for s in sets), default=5)
    loss = ff - 1
    rng = np.random.default_rng(payload_seed)
    codec = TornadoCodec(g, block_size=16)
    data = rng.integers(0, 256, (g.num_data, 16), dtype=np.uint8)
    blocks = codec.encode_blocks(data)
    present = np.ones(g.num_nodes, dtype=bool)
    if loss > 0:
        present[rng.choice(g.num_nodes, size=loss, replace=False)] = False
    out = codec.decode_blocks(blocks, present)
    np.testing.assert_array_equal(out, data)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 100))
def test_minimal_sets_are_exactly_the_failure_boundary(seed):
    """Every minimal set fails; every strict subset of one recovers."""
    g = tornado_graph(16, seed=seed)
    dec = PeelingDecoder(g)
    for s in minimal_bad_stopping_sets(g, max_size=4):
        assert not dec.is_recoverable(s)
        for drop in s:
            assert dec.is_recoverable(set(s) - {drop})


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 60), afr=st.floats(0.001, 0.2))
def test_reliability_bounds_and_afr_monotonicity(seed, afr):
    from repro.reliability import system_failure_probability
    from repro.sim import profile_graph

    g = tornado_graph(16, seed=seed % 4)
    prof = profile_graph(g, samples_per_k=100, seed=seed, exact_upto=3)
    p1 = system_failure_probability(prof, afr)
    p2 = system_failure_probability(prof, min(afr * 2, 1.0))
    assert 0.0 <= p1 <= 1.0
    assert p2 >= p1 - 1e-12
