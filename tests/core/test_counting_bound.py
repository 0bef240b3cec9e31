"""No decoder returns the data from fewer than ``num_data`` blocks.

``profile_graph`` pins ``P(fail | k) = 1`` for every
``k > num_nodes - num_data`` instead of sampling it.  That is a
counting argument — fewer surviving blocks than data blocks — so it
must hold for every graph family and for every decoder the package
has, including the ML decoder that recovers what peeling cannot.
Checked here by construction: exhaustively on a toy graph, and on
seeded masks at every ``k`` above the bound for one graph per family.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core import (
    Constraint,
    ErasureGraph,
    MLDecoder,
    PeelingDecoder,
    make_batch_decoder,
    tornado_graph,
)
from repro.core.lossmasks import boolean_loss_masks
from repro.federation import FederatedSystem
from repro.graphs import (
    altered_tornado_doubled,
    altered_tornado_shifted,
    cascade_graph_from_degrees,
    mirrored_graph,
    regular_graph,
    replicated_graph,
    striped_graph,
)

MASKS_PER_K = 256


def raid5_graph(groups: int, width: int) -> ErasureGraph:
    """RAID5 as a graph: one XOR parity over each group's data blocks."""
    num_data = groups * (width - 1)
    return ErasureGraph(
        num_nodes=groups * width,
        data_nodes=tuple(range(num_data)),
        constraints=tuple(
            Constraint(
                check=num_data + g,
                lefts=tuple(range(g * (width - 1), (g + 1) * (width - 1))),
            )
            for g in range(groups)
        ),
        name=f"raid5-{groups}x{width}",
    )


def _small_tornado(seed: int) -> ErasureGraph:
    return tornado_graph(16, seed=seed, min_final_lefts=6)


FAMILIES = {
    "tornado": lambda: _small_tornado(3),
    "regular": lambda: regular_graph(16, 3, seed=1),
    "cascaded": lambda: cascade_graph_from_degrees(16, 3, seed=1),
    "altered-doubled": lambda: altered_tornado_doubled(16, seed=2),
    "altered-shifted": lambda: altered_tornado_shifted(16, seed=2),
    "mirror": lambda: mirrored_graph(16),
    "replicated": lambda: replicated_graph(8, 3),
    "striped": lambda: striped_graph(24),
    "raid5": lambda: raid5_graph(4, 6),
    "federation": lambda: FederatedSystem(
        [_small_tornado(3), _small_tornado(4)]
    ).graph,
}


def _successes(decoder_name: str, graph, masks: np.ndarray) -> int:
    if decoder_name == "ml":
        ml = MLDecoder(graph)
        return sum(ml.is_recoverable(np.flatnonzero(row)) for row in masks)
    decoder = make_batch_decoder(graph, engine=decoder_name)
    return int(decoder.decode_batch(masks).sum())


@pytest.mark.parametrize("decoder_name", ["bitset", "sparse", "ml"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_success_above_the_bound(family, decoder_name):
    graph = FAMILIES[family]()
    n = graph.num_nodes
    rng = np.random.default_rng(2006)
    for k in range(n - graph.num_data + 1, n):
        masks = boolean_loss_masks(n, k, MASKS_PER_K, rng)
        assert _successes(decoder_name, graph, masks) == 0, (family, k)


def test_every_mask_above_the_bound_on_a_toy_graph(tiny_graph):
    """6 nodes, 3 data: all 22 loss sets of weight 4, 5 and 6."""
    n = tiny_graph.num_nodes
    lost_sets = [
        lost
        for k in range(n - tiny_graph.num_data + 1, n + 1)
        for lost in combinations(range(n), k)
    ]
    assert len(lost_sets) == 15 + 6 + 1
    masks = np.zeros((len(lost_sets), n), dtype=bool)
    for row, lost in zip(masks, lost_sets):
        row[list(lost)] = True
    for decoder_name in ("bitset", "sparse", "ml"):
        assert _successes(decoder_name, tiny_graph, masks) == 0
    scalar = PeelingDecoder(tiny_graph)
    assert not any(scalar.is_recoverable(lost) for lost in lost_sets)


def test_the_bound_is_tight_where_a_code_is_mds_per_group():
    """At exactly ``num_nodes - num_data`` losses decoding can succeed,
    so the pin must not start one cell earlier."""
    graph = raid5_graph(4, 6)
    lost = [graph.num_data + g for g in range(4)]  # the four parities
    assert len(lost) == graph.num_nodes - graph.num_data
    assert MLDecoder(graph).is_recoverable(lost)
    assert PeelingDecoder(graph).is_recoverable(lost)
