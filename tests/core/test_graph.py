"""Unit tests for the erasure-graph data model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    ErasureGraph,
    GraphValidationError,
    tornado_graph,
)
from repro.core.graph import edge_list


class TestConstraint:
    def test_members_puts_check_first(self):
        con = Constraint(check=9, lefts=(1, 4, 7))
        assert con.members() == (9, 1, 4, 7)

    def test_len_counts_check_and_lefts(self):
        assert len(Constraint(check=3, lefts=(0, 1))) == 3

    def test_single_left_constraint_is_valid(self):
        # Mirror pairs are one-left constraints.
        assert Constraint(check=1, lefts=(0,)).members() == (1, 0)


class TestValidation:
    def test_valid_graph_constructs(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_data == 3
        assert tiny_graph.num_checks == 3

    def test_rejects_zero_nodes(self):
        with pytest.raises(GraphValidationError):
            ErasureGraph(num_nodes=0, data_nodes=(), constraints=())

    def test_rejects_no_data_nodes(self):
        with pytest.raises(GraphValidationError):
            ErasureGraph(num_nodes=2, data_nodes=(), constraints=())

    def test_rejects_data_node_out_of_range(self):
        with pytest.raises(GraphValidationError):
            ErasureGraph(num_nodes=2, data_nodes=(0, 5), constraints=())

    def test_rejects_check_without_constraint(self):
        # Node 1 is not data and has no defining constraint.
        with pytest.raises(GraphValidationError, match="without defining"):
            ErasureGraph(num_nodes=2, data_nodes=(0,), constraints=())

    def test_rejects_data_node_used_as_check(self):
        with pytest.raises(GraphValidationError, match="as check"):
            ErasureGraph(
                num_nodes=2,
                data_nodes=(0, 1),
                constraints=(Constraint(check=1, lefts=(0,)),),
            )

    def test_rejects_duplicate_check_definition(self):
        with pytest.raises(GraphValidationError):
            ErasureGraph(
                num_nodes=3,
                data_nodes=(0, 1),
                constraints=(
                    Constraint(check=2, lefts=(0,)),
                    Constraint(check=2, lefts=(1,)),
                ),
            )

    def test_rejects_duplicate_lefts(self):
        with pytest.raises(GraphValidationError, match="duplicate left"):
            ErasureGraph(
                num_nodes=2,
                data_nodes=(0,),
                constraints=(Constraint(check=1, lefts=(0, 0)),),
            )

    def test_rejects_self_referencing_check(self):
        with pytest.raises(GraphValidationError):
            ErasureGraph(
                num_nodes=2,
                data_nodes=(0,),
                constraints=(Constraint(check=1, lefts=(0, 1)),),
            )

    def test_rejects_empty_constraint(self):
        with pytest.raises(GraphValidationError, match="no lefts"):
            ErasureGraph(
                num_nodes=2,
                data_nodes=(0,),
                constraints=(Constraint(check=1, lefts=()),),
            )

    def test_rejects_forward_reference_across_levels(self):
        # Check 3's constraint uses check 4 before 4's level.
        with pytest.raises(GraphValidationError, match="undefined lefts"):
            ErasureGraph(
                num_nodes=5,
                data_nodes=(0, 1, 2),
                constraints=(
                    Constraint(check=3, lefts=(0, 4)),
                    Constraint(check=4, lefts=(1, 2)),
                ),
                levels=((0,), (1,)),
            )

    def test_levels_must_partition_constraints(self):
        with pytest.raises(GraphValidationError, match="partition"):
            ErasureGraph(
                num_nodes=4,
                data_nodes=(0, 1),
                constraints=(
                    Constraint(check=2, lefts=(0,)),
                    Constraint(check=3, lefts=(1,)),
                ),
                levels=((0,),),
            )


class TestDerivedViews:
    def test_check_nodes_complement_data(self, tiny_graph):
        assert tiny_graph.check_nodes == (3, 4, 5)

    def test_num_edges(self, tiny_graph):
        assert tiny_graph.num_edges == 2 + 2 + 3

    def test_average_left_degree(self, tiny_graph):
        # node0 in 2 constraints, node1 in 3, node2 in 2 => mean 7/3
        assert tiny_graph.average_left_degree() == pytest.approx(7 / 3)

    def test_default_level_covers_all_constraints(self, tiny_graph):
        assert tiny_graph.levels == ((0, 1, 2),)

    def test_node_constraints_incidence(self, tiny_graph):
        table = tiny_graph.node_constraints()
        assert table[1] == [0, 1, 2]
        assert table[3] == [0]

    def test_edge_list(self, tiny_graph):
        edges = edge_list(tiny_graph)
        assert (0, 3) in edges and (2, 5) in edges
        assert len(edges) == tiny_graph.num_edges

    def test_iteration_yields_constraints(self, tiny_graph):
        assert list(tiny_graph) == list(tiny_graph.constraints)


class TestMutationByCopy:
    def test_with_constraints_replaces(self, tiny_graph):
        cons = list(tiny_graph.constraints)
        cons[0] = Constraint(check=3, lefts=(0, 2))
        g2 = tiny_graph.with_constraints(cons)
        assert g2.constraints[0].lefts == (0, 2)
        assert tiny_graph.constraints[0].lefts == (0, 1)  # original intact

    def test_with_constraints_requires_same_length(self, tiny_graph):
        with pytest.raises(GraphValidationError):
            tiny_graph.with_constraints(tiny_graph.constraints[:2])

    def test_renamed(self, tiny_graph):
        assert tiny_graph.renamed("x").name == "x"
        assert tiny_graph.renamed("x").constraints == tiny_graph.constraints

    def test_graph_is_hashable(self, tiny_graph):
        assert hash(tiny_graph) == hash(tiny_graph.renamed("tiny"))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_tornado_graphs_always_validate(seed):
    """Construction + validation never disagree, for any seed."""
    g = tornado_graph(16, seed=seed)
    g.validate()
    assert g.num_nodes == 32
    assert g.num_checks == 16


@settings(max_examples=10, deadline=None)
@given(
    num_data=st.sampled_from([16, 24, 32, 48]),
    seed=st.integers(0, 500),
)
def test_cascade_check_count_equals_data_count(num_data, seed):
    """Rate-1/2 invariant: the shared-left finale makes checks == data."""
    g = tornado_graph(num_data, seed=seed)
    assert g.num_checks == num_data
    assert g.num_nodes == 2 * num_data
