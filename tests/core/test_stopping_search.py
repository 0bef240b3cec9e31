"""The level-synchronous stopping-set search against the recursive DFS
it replaced (:mod:`tests.core.stopping_oracle`).

Sameness is checked exhaustively, not sampled: every catalog graph at
every bound up to 6, graph 3 at 7, and random small graphs.  "Same"
means equal families in equal order (``adjust_graph``'s tie-breaks
read the order) and an equal ``critical.nodes_expanded`` count.  The
three graphs the DFS needs seconds for at bound 6 are compared live up
to 5 and against values the DFS computed at 6.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    ErasureGraph,
    adjust_graph,
    first_failure,
    min_bad_stopping_set_containing,
    minimal_bad_stopping_sets,
)
from repro.core.adjust import AdjustmentStep
from repro.graphs import catalog_96_node_systems, tornado_catalog_graph
from repro.obs.registry import capture

from .stopping_oracle import (
    oracle_at_every_size,
    oracle_min_bad_stopping_set_containing,
    oracle_minimal_bad_stopping_sets,
)

CATALOG = [
    "Mirrored",
    "Striped",
    "Tornado Graph 1",
    "Tornado Graph 2",
    "Tornado Graph 3",
    "Regular - Degree 4",
    "Regular - Degree 11",
    "Altered Tornado (dist. doubled)",
    "Altered Tornado (dist. shifted)",
    "Cascaded - Degree 3",
    "Cascaded - Degree 4",
    "Cascaded - Degree 6",
]
UNADJUSTED = ["unadjusted 1", "unadjusted 2", "unadjusted 3"]

# At bound 6 these three are checked against FAMILIES_SHA256 and these
# nodes_expanded counts, both as the DFS computed them.
SLOW_AT_6 = {
    "Regular - Degree 11": 1_110_571,
    "Altered Tornado (dist. doubled)": 793_133,
    "Cascaded - Degree 6": 597_940,
}

#: sha256 of the 12 catalog families at bound 6, in catalog order.
FAMILIES_SHA256 = (
    "4da1957820c6dc82010f23987ea483a00bfb02f4d3df0e8823f2659c39fca1b4"
)


@pytest.fixture(scope="module")
def graphs() -> dict[str, ErasureGraph]:
    out = dict(catalog_96_node_systems())
    for i in (1, 2, 3):
        out[f"unadjusted {i}"] = tornado_catalog_graph(i, adjusted=False)
    return out


def search(graph, max_size):
    """``(family, nodes_expanded)`` from the level search."""
    with capture() as reg:
        sets = minimal_bad_stopping_sets(graph, max_size)
    return sets, reg.counter("critical.nodes_expanded").value


class TestCatalogMatchesOracle:
    @pytest.mark.parametrize("name", CATALOG + UNADJUSTED)
    def test_every_bound_up_to_six(self, graphs, name):
        graph = graphs[name]
        top = 5 if name in SLOW_AT_6 else 6
        oracle = oracle_at_every_size(graph, top)
        for bound, (family, expanded) in oracle.items():
            sets, count = search(graph, bound)
            assert sets == family
            assert count == expanded, bound
            smallest = min((len(s) for s in family), default=None)
            assert first_failure(graph, limit=bound) == smallest

    def test_one_oracle_run_stands_for_every_smaller_bound(self, graphs):
        graph = graphs["Tornado Graph 3"]
        derived = oracle_at_every_size(graph, 5)
        for bound in range(1, 6):
            family, dfs = oracle_minimal_bad_stopping_sets(graph, bound)
            assert derived[bound] == (family, dfs.nodes_expanded)

    def test_graph3_at_seven(self, graphs):
        graph = graphs["Tornado Graph 3"]
        family, dfs = oracle_minimal_bad_stopping_sets(graph, 7)
        sets, count = search(graph, 7)
        assert sets == family
        assert count == dfs.nodes_expanded
        assert len(sets) == 156

    def test_families_at_six_are_pinned(self, graphs):
        families = []
        for name in CATALOG:
            sets, count = search(graphs[name], 6)
            families.append([name, [sorted(s) for s in sets]])
            if name in SLOW_AT_6:
                assert count == SLOW_AT_6[name], name
        blob = json.dumps(families, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == FAMILIES_SHA256

    @pytest.mark.parametrize("name", ["Tornado Graph 3", "Mirrored"])
    def test_min_containing_matches_oracle(self, graphs, name):
        graph = graphs[name]
        for node in graph.data_nodes[::12]:
            for max_size in (1, 2, 5, 6):
                assert min_bad_stopping_set_containing(
                    graph, node, max_size
                ) == oracle_min_bad_stopping_set_containing(
                    graph, node, max_size
                )


def test_adjustment_steps_are_pinned():
    """``adjust_graph`` reads the family's order and its sets' iteration
    order; its rewiring of the three catalog seeds is pinned."""
    step = AdjustmentStep
    expected = {
        1: (
            step(19, 49, 53, 3, 1, 4, 4),
            step(17, 62, 64, 1, 0, 4, 5),
        ),
        2: (step(1, 51, 48, 1, 0, 4, 5),),
        3: (
            step(20, 52, 50, 3, 1, 4, 4),
            step(24, 54, 50, 1, 0, 4, 5),
        ),
    }
    for number, steps in expected.items():
        graph = tornado_catalog_graph(number, adjusted=False)
        result = adjust_graph(graph, target_first_failure=5)
        assert result.steps == steps
        assert result.achieved_target


@st.composite
def small_graphs(draw):
    """Any valid graph of <= 11 nodes: data and checks interleaved,
    each check over data and earlier checks."""
    num_data = draw(st.integers(1, 6))
    num_checks = draw(st.integers(0, 5))
    ids = draw(st.permutations(range(num_data + num_checks)))
    data, checks = ids[:num_data], ids[num_data:]
    constraints = []
    for i, check in enumerate(checks):
        pool = sorted(data) + list(checks[:i])
        lefts = draw(
            st.lists(
                st.sampled_from(pool), min_size=1, max_size=4, unique=True
            )
        )
        constraints.append(Constraint(check, tuple(lefts)))
    return ErasureGraph(
        num_nodes=len(ids),
        data_nodes=tuple(data),
        constraints=tuple(constraints),
        levels=tuple((i,) for i in range(len(constraints))),
    )


NO_CONSTRAINTS = ErasureGraph(3, (0, 1, 2), ())


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs())
@example(graph=NO_CONSTRAINTS)
def test_random_small_graphs_match_oracle(graph):
    top = graph.num_nodes
    for bound, (family, expanded) in oracle_at_every_size(graph, top).items():
        sets, count = search(graph, bound)
        assert sets == family
        assert count == expanded
        assert first_failure(graph, limit=bound) == min(
            (len(s) for s in family), default=None
        )
    for node in graph.data_nodes:
        for max_size in range(1, top + 1):
            assert min_bad_stopping_set_containing(
                graph, node, max_size
            ) == oracle_min_bad_stopping_set_containing(graph, node, max_size)


def test_no_constraints_every_node_is_critical():
    assert minimal_bad_stopping_sets(NO_CONSTRAINTS, 3) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    assert first_failure(NO_CONSTRAINTS, limit=3) == 1
