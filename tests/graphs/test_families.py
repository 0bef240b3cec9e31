"""Tests for comparison graph families and the precompiled catalog."""

import numpy as np
import pytest

from repro.core import PeelingDecoder, first_failure
from repro.graphs import (
    NUM_DATA_96,
    TORNADO_SEEDS,
    altered_tornado_doubled,
    altered_tornado_shifted,
    catalog_96_node_systems,
    mirrored_graph,
    regular_graph,
    replicated_graph,
    striped_graph,
    tornado_catalog_graph,
)


class TestMirrored:
    def test_structure(self):
        g = mirrored_graph(4)
        assert g.num_nodes == 8
        assert g.num_data == 4
        assert all(len(c.lefts) == 1 for c in g.constraints)

    def test_pair_loss_is_fatal_single_is_not(self):
        g = mirrored_graph(4)
        dec = PeelingDecoder(g)
        assert dec.is_recoverable([2])
        assert dec.is_recoverable([2, 7])
        assert not dec.is_recoverable([2, 6])

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            mirrored_graph(0)


class TestStriped:
    def test_no_redundancy(self):
        g = striped_graph(6)
        assert g.num_checks == 0
        assert first_failure(g, limit=1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            striped_graph(0)


class TestReplicated:
    def test_two_copies_equals_mirror(self):
        r = replicated_graph(4, 2)
        m = mirrored_graph(4)
        assert r.num_nodes == m.num_nodes
        assert first_failure(r, limit=2) == 2

    def test_four_copies_survive_three_losses(self):
        g = replicated_graph(4, 4)
        dec = PeelingDecoder(g)
        # all three copies of block 0: 4, 8, 12 hold copies of 0
        copies_of_0 = [c.check for c in g.constraints if c.lefts == (0,)]
        assert len(copies_of_0) == 3
        assert dec.is_recoverable(copies_of_0)
        assert not dec.is_recoverable([0, *copies_of_0])
        assert first_failure(g, limit=4) == 4

    def test_rejects_single_copy(self):
        with pytest.raises(ValueError):
            replicated_graph(4, 1)


class TestRegular:
    def test_every_data_node_has_uniform_degree(self):
        g = regular_graph(24, 4, seed=0)
        counts = [0] * g.num_nodes
        for con in g.constraints:
            for l in con.lefts:
                counts[l] += 1
        assert all(counts[d] == 4 for d in g.data_nodes)

    def test_single_level(self):
        g = regular_graph(24, 4, seed=0)
        assert len(g.levels) == 1

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            regular_graph(24, 1, seed=0)
        with pytest.raises(ValueError):
            regular_graph(4, 9, num_checks=4, seed=0)

    def test_custom_check_count(self):
        g = regular_graph(24, 3, num_checks=12, seed=0)
        assert g.num_nodes == 36


class TestAltered:
    def test_doubled_has_higher_degree(self):
        base = tornado_catalog_graph(3, adjusted=False)
        dbl = altered_tornado_doubled(NUM_DATA_96, seed=2)
        assert dbl.average_left_degree() > base.average_left_degree()

    def test_shifted_constructs_96_nodes(self):
        g = altered_tornado_shifted(NUM_DATA_96, seed=10)
        assert g.num_nodes == 96


class TestCatalog:
    def test_three_graphs_numbered(self):
        assert set(TORNADO_SEEDS) == {1, 2, 3}

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_adjusted_first_failure_is_five(self, number):
        g = tornado_catalog_graph(number)
        assert first_failure(g, limit=5) == 5

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_unadjusted_first_failure_is_four(self, number):
        g = tornado_catalog_graph(number, adjusted=False)
        assert first_failure(g, limit=4) == 4

    def test_unknown_number_rejected(self):
        with pytest.raises(KeyError):
            tornado_catalog_graph(7)

    def test_catalog_caches(self):
        assert tornado_catalog_graph(1) is tornado_catalog_graph(1)

    def test_numpy_integer_number_is_the_same_graph(self):
        graph = tornado_catalog_graph(np.int64(2))
        assert graph is tornado_catalog_graph(2)
        assert graph.name == "tornado-graph-2"

    @pytest.mark.parametrize(
        "number", [2.0, True, np.float64(2)], ids=["float", "bool", "np.float64"]
    )
    def test_non_integer_number_rejected(self, number):
        with pytest.raises(TypeError):
            tornado_catalog_graph(number)

    def test_full_system_catalog(self):
        systems = catalog_96_node_systems()
        assert len(systems) == 12
        for name, g in systems.items():
            assert g.num_nodes == 96, name

    def test_catalog_first_failures_match_paper_shape(self):
        """Striped < mirrored < unadjusted families <= Tornado (5)."""
        systems = catalog_96_node_systems()
        ff = {
            name: first_failure(g, limit=5)
            for name, g in systems.items()
        }
        assert ff["Striped"] == 1
        assert ff["Mirrored"] == 2
        assert ff["Tornado Graph 1"] == 5
        assert ff["Tornado Graph 2"] == 5
        assert ff["Tornado Graph 3"] == 5
        assert ff["Cascaded - Degree 3"] == 4
        assert ff["Cascaded - Degree 4"] == 4
        assert ff["Cascaded - Degree 6"] == 5
        assert ff["Altered Tornado (dist. doubled)"] == 5
        assert ff["Altered Tornado (dist. shifted)"] == 5
        assert ff["Regular - Degree 4"] == 4
