"""The federation as one stacked ``ErasureGraph``, checked differentially.

``FederatedSystem.graph`` replaces three coupled decoders, so every
single-graph tool it is now fed to is compared against an independent
reference: the paper-literal decode-exchange-decode loop
(``exchange_oracle``) for peeling, the GF(2) ML decoder as an upper
bound, the per-site codecs for bytes, and the seeded Table 7 search for
the exact critical-set enumeration.
"""

import numpy as np
import pytest

from repro.core import (
    Constraint,
    ErasureGraph,
    MLDecoder,
    PeelingDecoder,
    TornadoCodec,
    make_batch_decoder,
    tornado_graph,
)
from repro.core.critical import minimal_bad_stopping_sets
from repro.federation import FederatedSystem, federated_first_failure
from repro.graphs import mirrored_graph, tornado_catalog_graph
from repro.sites import find_coupled_witness

from .exchange_oracle import ExchangeOracle


def toy_cascade(name, level_one, level_two):
    """8-node two-level cascade: data 0-3, checks 4-6 then 7."""
    cons = [Constraint(4 + i, lefts) for i, lefts in enumerate(level_one)]
    cons.append(Constraint(7, level_two))
    return ErasureGraph(
        num_nodes=8,
        data_nodes=(0, 1, 2, 3),
        constraints=tuple(cons),
        levels=((0, 1, 2), (3,)),
        name=name,
    )


def toy_federation():
    return FederatedSystem(
        [
            toy_cascade("toy-a", [(0, 1), (1, 2, 3), (0, 2, 3)], (4, 5, 6)),
            toy_cascade("toy-b", [(0, 2), (1, 3), (0, 1, 2, 3)], (4, 6)),
        ]
    )


@pytest.fixture(scope="module")
def catalog_pair():
    return FederatedSystem(
        [tornado_catalog_graph(1), tornado_catalog_graph(2)]
    )


@pytest.fixture(scope="module")
def three_sites():
    return FederatedSystem([tornado_graph(16, seed=s) for s in (0, 1, 2)])


class TestStackedGraphShape:
    def test_catalog_pair_is_one_valid_cascade(self, catalog_pair):
        graph = catalog_pair.graph
        graph.validate()
        assert graph.num_nodes == 192
        assert len(graph.constraints) == 144
        assert graph.data_nodes == catalog_pair.data_nodes
        assert graph.name == "tornado-graph-1 + tornado-graph-2"

    def test_replica_levels_chain_site_to_site(self, three_sites):
        graph, n = three_sites.graph, three_sites.nodes_per_site
        for site in (1, 2):
            level = graph.levels[site - 1]
            assert [graph.constraints[ci] for ci in level] == [
                Constraint(site * n + d, ((site - 1) * n + d,))
                for d in three_sites.data_nodes
            ]
        own = sum(len(g.levels) for g in three_sites.graphs)
        assert len(graph.levels) == 2 + own


class TestPeelAgreesWithExchangeLoop:
    @pytest.mark.parametrize(
        "system",
        [
            FederatedSystem([mirrored_graph(4), mirrored_graph(4)]),
            toy_federation(),
        ],
        ids=["mirror-4x2-twice", "toy-cascades"],
    )
    def test_every_mask_of_a_sixteen_device_federation(self, system):
        assert system.num_devices == 16
        masks = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(
            bool
        )
        oracle = ExchangeOracle(system)
        want = np.array(
            [oracle.is_recoverable(np.flatnonzero(m).tolist()) for m in masks]
        )
        assert want.any() and not want.all()
        got = make_batch_decoder(system.graph).decode_batch(masks)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fixture", ["catalog_pair", "three_sites"])
    def test_seeded_masks_success_and_lost_set(self, fixture, request):
        system = request.getfixturevalue(fixture)
        oracle = ExchangeOracle(system)
        data = set(system.data_nodes)
        rng = np.random.default_rng(18)
        outcomes = set()
        for _ in range(600):
            k = int(rng.integers(0.3 * system.num_devices, system.num_devices))
            lost = rng.choice(system.num_devices, size=k, replace=False)
            want = oracle.decode(lost.tolist())
            got = system.decode(lost.tolist())
            assert got.success == want.success
            assert got.residual & data == want.lost_data
            assert system.is_recoverable(lost.tolist()) == want.success
            outcomes.add(want.success)
        assert outcomes == {True, False}


class TestMLDominatesStackedPeel:
    def test_ml_recovers_whatever_the_peel_recovers(self, three_sites):
        ml = MLDecoder(three_sites.graph)
        rng = np.random.default_rng(7)
        peeled = 0
        for _ in range(150):
            k = int(rng.integers(30, 70))
            lost = rng.choice(96, size=k, replace=False).tolist()
            if three_sites.is_recoverable(lost):
                peeled += 1
                assert ml.is_recoverable(lost)
        assert peeled > 10


class TestBytesThroughTheStackedGraph:
    def test_encode_is_the_site_encodes_concatenated(self, catalog_pair):
        data = np.random.default_rng(3).integers(
            0, 256, size=(48, 32), dtype=np.uint8
        )
        stacked = TornadoCodec(catalog_pair.graph, 32).encode_blocks(data)
        per_site = [
            TornadoCodec(g, 32).encode_blocks(data)
            for g in catalog_pair.graphs
        ]
        np.testing.assert_array_equal(stacked, np.concatenate(per_site))

    def test_witness_schedule_replays_to_the_data(self, catalog_pair):
        g1, g2 = catalog_pair.graphs
        erased_a, erased_b = find_coupled_witness(g1, g2, seed=1)
        assert not PeelingDecoder(g1).is_recoverable(erased_a)
        assert not PeelingDecoder(g2).is_recoverable(erased_b)
        missing = sorted(erased_a) + [96 + x for x in sorted(erased_b)]
        plan = catalog_pair.decode(missing)
        assert plan.success

        codec = TornadoCodec(catalog_pair.graph, 32)
        data = np.random.default_rng(4).integers(
            0, 256, size=(48, 32), dtype=np.uint8
        )
        blocks = codec.encode_blocks(data)
        present = np.ones(192, dtype=bool)
        present[missing] = False
        blocks[missing] = 0xFF  # erased rows must not be read
        got = codec.decode_blocks_with_schedule(blocks, present, plan.steps)
        np.testing.assert_array_equal(got, data)


class TestExactFirstFailure:
    """Table 7's detected numbers, proven through ``system.graph``."""

    def test_same_tornado_graph_twice_is_exactly_ten(self):
        g1 = tornado_catalog_graph(1)
        system = FederatedSystem([g1, g1])
        critical = minimal_bad_stopping_sets(system.graph, max_size=10)
        # No joint failure below 10 devices, exactly nine at 10.
        assert sorted(len(s) for s in critical) == [10] * 9
        detected = federated_first_failure(system, site_max_size=6)
        assert detected[0] == 10
        assert frozenset(detected[1]) in critical

    def test_toy_federation_detected_equals_exact(self):
        system = FederatedSystem(
            [tornado_graph(16, seed=0), tornado_graph(16, seed=1)]
        )
        critical = minimal_bad_stopping_sets(system.graph, max_size=10)
        detected = federated_first_failure(system, site_max_size=6)
        assert detected[0] == min(len(s) for s in critical) == 6
