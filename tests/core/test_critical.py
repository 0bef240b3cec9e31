"""Tests for stopping-set search, exact counting, and worst-case analysis."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    ErasureGraph,
    PeelingDecoder,
    analyze_worst_case,
    count_failing_sets,
    exhaustive_failing_sets,
    failing_set_counts,
    first_failure,
    is_stopping_set,
    min_bad_stopping_set_containing,
    minimal_bad_stopping_sets,
    tornado_graph,
)
from repro.core.critical import CountBudgetExceeded
from repro.graphs import mirrored_graph, striped_graph


class TestIsStoppingSet:
    def test_empty_set_is_stopping(self, tiny_graph):
        assert is_stopping_set(tiny_graph, [])

    def test_residuals_are_stopping_sets(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        res = dec.decode([0, 1, 3, 5])
        assert is_stopping_set(tiny_graph, res.residual)

    def test_single_node_with_constraint_not_stopping(self, tiny_graph):
        assert not is_stopping_set(tiny_graph, [0])

    def test_striped_singletons_are_stopping(self):
        g = striped_graph(4)
        assert is_stopping_set(g, [2])

    def test_mirror_pair_is_stopping(self):
        g = mirrored_graph(4)
        assert is_stopping_set(g, [0, 4])
        assert not is_stopping_set(g, [0, 5])


class TestMinimalBadStoppingSets:
    def test_mirror_pairs_found(self):
        g = mirrored_graph(4)
        sets = minimal_bad_stopping_sets(g, max_size=2)
        assert sorted(tuple(sorted(s)) for s in sets) == [
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
        ]

    def test_striped_singletons_found(self):
        g = striped_graph(4)
        sets = minimal_bad_stopping_sets(g, max_size=1)
        assert sorted(tuple(sorted(s)) for s in sets) == [
            (0,),
            (1,),
            (2,),
            (3,),
        ]

    def test_results_are_minimal(self, small_tornado):
        sets = minimal_bad_stopping_sets(small_tornado, max_size=5)
        for a in sets:
            for b in sets:
                if a is not b:
                    assert not a < b

    def test_every_result_is_bad_stopping_set(self, small_tornado):
        data = set(small_tornado.data_nodes)
        for s in minimal_bad_stopping_sets(small_tornado, max_size=5):
            assert is_stopping_set(small_tornado, s)
            assert s & data

    def test_matches_exhaustive_enumeration(self, small_tornado):
        """Ground truth: every failing k-set contains a found set and
        every found set fails."""
        dec = PeelingDecoder(small_tornado)
        sets = minimal_bad_stopping_sets(small_tornado, max_size=3)
        n = small_tornado.num_nodes
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(n), k):
                fails = not dec.is_recoverable(combo)
                covered = any(s <= set(combo) for s in sets)
                assert fails == covered, combo


class TestMinBadContaining:
    def test_mirror_minimum_through_each_data_node(self):
        g = mirrored_graph(4)
        for d in range(4):
            s = min_bad_stopping_set_containing(g, d, max_size=4)
            assert s == frozenset({d, d + 4})

    def test_none_when_bound_too_small(self, graph3):
        # Adjusted catalog graph: no bad set of size < 5.
        assert (
            min_bad_stopping_set_containing(graph3, 0, max_size=3) is None
        )

    def test_rejects_check_node_seed(self, tiny_graph):
        with pytest.raises(ValueError, match="not a data node"):
            min_bad_stopping_set_containing(tiny_graph, 5, max_size=3)

    def test_seed_that_is_itself_critical_at_bound_one(self):
        # Data node 1 feeds no check: losing it alone loses data.
        g = ErasureGraph(
            4, (0, 1), (Constraint(2, (0,)), Constraint(3, (0,)))
        )
        assert first_failure(g, limit=2) == 1
        for max_size in (1, 2):
            assert min_bad_stopping_set_containing(
                g, 1, max_size=max_size
            ) == frozenset({1})

    def test_result_contains_seed_and_is_stopping(self, small_tornado):
        d = small_tornado.data_nodes[0]
        s = min_bad_stopping_set_containing(small_tornado, d, max_size=8)
        assert s is not None
        assert d in s
        assert is_stopping_set(small_tornado, s)


class TestFirstFailure:
    def test_striped_is_one(self):
        assert first_failure(striped_graph(8), limit=3) == 1

    def test_mirrored_is_two(self):
        assert first_failure(mirrored_graph(8), limit=3) == 2

    def test_none_within_limit(self, graph3):
        assert first_failure(graph3, limit=4) is None

    def test_catalog_graph_is_five(self, graph3):
        assert first_failure(graph3, limit=5) == 5


class TestCounting:
    def test_no_sets_no_failures(self):
        assert count_failing_sets(10, 3, []) == 0

    def test_single_set(self):
        # k-sets containing a fixed 2-set: C(n-2, k-2)
        assert count_failing_sets(10, 4, [frozenset({1, 2})]) == comb(8, 2)

    def test_overlapping_sets_inclusion_exclusion(self):
        sets = [frozenset({0, 1}), frozenset({1, 2})]
        # |A| + |B| - |A and B| at k=3, n=6:
        expect = comb(4, 1) + comb(4, 1) - comb(3, 0)
        assert count_failing_sets(6, 3, sets) == expect

    def test_disjoint_fast_path_matches_recursion(self):
        sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        # brute-force reference
        n, k = 10, 4
        brute = sum(
            1
            for combo in itertools.combinations(range(n), k)
            if any(s <= set(combo) for s in sets)
        )
        assert count_failing_sets(n, k, sets) == brute

    def test_striped_graph_counts(self):
        g = striped_graph(6)
        counts = failing_set_counts(g, max_k=3)
        # any loss is fatal: all k-sets fail
        for k in (1, 2, 3):
            assert counts[k] == (comb(6, k), comb(6, k))

    def test_mirror_counts_match_closed_form(self):
        g = mirrored_graph(6)
        counts = failing_set_counts(g, max_k=4)
        n = 12
        for k in (1, 2, 3, 4):
            surviving = comb(6, k) * 2**k if k <= 6 else 0
            assert counts[k] == (comb(n, k) - surviving, comb(n, k))

    def test_budget_guard_raises(self):
        sets = [frozenset({i}) for i in range(60)]
        with pytest.raises(CountBudgetExceeded):
            count_failing_sets(
                96, 5, sets + [frozenset({0, 1})], max_terms=10
            )

    def test_counts_ignore_oversized_sets(self):
        sets = [frozenset({0, 1, 2, 3, 4})]
        assert count_failing_sets(10, 3, sets) == 0


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_bnb_equals_brute_force_small_graphs(self, seed):
        g = tornado_graph(16, seed=seed)
        minimal = minimal_bad_stopping_sets(g, max_size=4)
        for k in (2, 3, 4):
            brute = exhaustive_failing_sets(g, k)
            counted = count_failing_sets(g.num_nodes, k, minimal)
            assert len(brute) == counted

    def test_exhaustive_on_catalog_graph_k3(self, graph3):
        # Adjusted graph tolerates any 3 losses: zero failing 3-sets.
        assert exhaustive_failing_sets(graph3, 3) == []


class TestAnalyzeWorstCase:
    def test_report_fields(self, small_tornado):
        rep = analyze_worst_case(small_tornado, max_k=4)
        assert rep.graph_name == small_tornado.name
        assert set(rep.failing_counts) == {1, 2, 3, 4}
        for k, (fails, total) in rep.failing_counts.items():
            assert total == comb(small_tornado.num_nodes, k)
            assert 0 <= fails <= total

    def test_failing_fraction(self, small_tornado):
        rep = analyze_worst_case(small_tornado, max_k=4)
        for k in rep.failing_counts:
            fails, total = rep.failing_counts[k]
            assert rep.failing_fraction(k) == pytest.approx(fails / total)

    def test_describe_mentions_first_failure(self, small_tornado):
        rep = analyze_worst_case(small_tornado, max_k=4)
        assert "first failure" in rep.describe()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 400), k=st.integers(1, 3))
def test_count_matches_brute_force_property(seed, k):
    """Property: inclusion-exclusion equals brute force on small graphs."""
    g = tornado_graph(16, seed=seed)
    minimal = minimal_bad_stopping_sets(g, max_size=k)
    dec = PeelingDecoder(g)
    brute = sum(
        1
        for combo in itertools.combinations(range(g.num_nodes), k)
        if not dec.is_recoverable(combo)
    )
    assert count_failing_sets(g.num_nodes, k, minimal) == brute
