"""Unit and property tests for scalar and batch peeling decoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    ErasureGraph,
    PeelingDecoder,
    is_stopping_set,
    make_batch_decoder,
    tornado_graph,
)
from repro.graphs import mirrored_graph, striped_graph


class TestScalarDecoder:
    def test_nothing_missing_succeeds(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        result = dec.decode([])
        assert result.success
        assert result.steps == ()
        assert result.residual == frozenset()

    def test_single_data_loss_recovers_via_check(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        result = dec.decode([0])
        assert result.success
        assert result.recovered == (0,)

    def test_check_recomputed_from_lefts(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        result = dec.decode([3, 4, 5])
        assert result.success  # data all present; checks recomputable
        assert set(result.recovered) == {3, 4, 5}

    def test_cascaded_recovery_order_is_usable(self, tiny_graph):
        # Losing 0 and 3: 0 must come back through check 5 first,
        # then 3 is recomputable.
        dec = PeelingDecoder(tiny_graph)
        result = dec.decode([0, 3])
        assert result.success
        assert set(result.recovered) == {0, 3}
        # Each step's constraint must have had its other members known.
        known = {n for n in range(6)} - {0, 3}
        for ci, node in result.steps:
            others = [
                m
                for m in tiny_graph.constraints[ci].members()
                if m != node
            ]
            assert all(m in known for m in others)
            known.add(node)

    def test_unrecoverable_set_reports_residual(self, tiny_graph):
        # Losing all of 0,1,2 and 3,4,5's checks is clearly fatal; a
        # sharper case: lose 0,1 and their only fresh source 3 plus 5.
        dec = PeelingDecoder(tiny_graph)
        result = dec.decode([0, 1, 3, 5])
        assert not result.success
        assert result.residual  # non-empty stuck set
        assert is_stopping_set(tiny_graph, result.residual)

    def test_is_recoverable_matches_decode(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        import itertools

        for r in range(7):
            for combo in itertools.combinations(range(6), r):
                assert dec.is_recoverable(combo) == dec.decode(combo).success

    def test_is_recoverable_resets_state_between_calls(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        assert not dec.is_recoverable([0, 1, 3, 5])
        # A subsequent easy case must not be polluted by the failure.
        assert dec.is_recoverable([0])
        assert not dec.is_recoverable([0, 1, 3, 5])

    def test_duplicate_missing_ids_are_tolerated(self, tiny_graph):
        dec = PeelingDecoder(tiny_graph)
        assert dec.is_recoverable([0, 0, 0])

    def test_mirror_decoding(self):
        g = mirrored_graph(4)
        dec = PeelingDecoder(g)
        assert dec.is_recoverable([0, 5])  # different pairs
        assert not dec.is_recoverable([0, 4])  # whole pair lost

    def test_striped_graph_fails_on_any_loss(self):
        g = striped_graph(8)
        dec = PeelingDecoder(g)
        assert dec.is_recoverable([])
        assert not dec.is_recoverable([3])


class TestResidualProperties:
    def test_residual_is_stopping_set(self, small_tornado, rng):
        dec = PeelingDecoder(small_tornado)
        for _ in range(200):
            k = int(rng.integers(1, small_tornado.num_nodes))
            missing = rng.choice(
                small_tornado.num_nodes, size=k, replace=False
            )
            res = dec.decode(missing)
            assert is_stopping_set(small_tornado, res.residual)
            # success iff no data node stuck
            stuck_data = set(res.residual) & set(small_tornado.data_nodes)
            assert res.success == (not stuck_data)

    def test_monotonicity_losing_more_never_helps(self, small_tornado, rng):
        dec = PeelingDecoder(small_tornado)
        n = small_tornado.num_nodes
        for _ in range(100):
            k = int(rng.integers(1, n - 1))
            base = set(rng.choice(n, size=k, replace=False).tolist())
            extra = int(rng.integers(0, n))
            if dec.is_recoverable(base | {extra}):
                assert dec.is_recoverable(base)


class TestBatchDecoder:
    def test_shape_validation(self, tiny_graph):
        batch = make_batch_decoder(tiny_graph)
        with pytest.raises(ValueError):
            batch.decode_batch(np.zeros((4, 5), dtype=bool))

    def test_empty_pattern_row_succeeds(self, tiny_graph):
        batch = make_batch_decoder(tiny_graph)
        ok = batch.decode_batch(np.zeros((3, 6), dtype=bool))
        assert ok.all()

    def test_all_lost_row_fails(self, tiny_graph):
        batch = make_batch_decoder(tiny_graph)
        ok = batch.decode_batch(np.ones((1, 6), dtype=bool))
        assert not ok.any()

    def test_decode_missing_sets_wrapper(self, tiny_graph):
        batch = make_batch_decoder(tiny_graph)
        ok = batch.decode_missing_sets([[0], [0, 1, 3, 5], []])
        np.testing.assert_array_equal(ok, [True, False, True])

    def test_input_matrix_not_mutated(self, small_tornado, rng):
        batch = make_batch_decoder(small_tornado)
        unknown = rng.random((50, small_tornado.num_nodes)) < 0.3
        copy = unknown.copy()
        batch.decode_batch(unknown)
        np.testing.assert_array_equal(unknown, copy)

    @pytest.mark.parametrize("loss_rate", [0.05, 0.2, 0.4, 0.6])
    def test_batch_agrees_with_scalar(self, small_tornado, rng, loss_rate):
        scalar = PeelingDecoder(small_tornado)
        batch = make_batch_decoder(small_tornado)
        unknown = rng.random((400, small_tornado.num_nodes)) < loss_rate
        ok_batch = batch.decode_batch(unknown)
        ok_scalar = np.array(
            [scalar.is_recoverable(np.flatnonzero(row)) for row in unknown]
        )
        np.testing.assert_array_equal(ok_batch, ok_scalar)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), data=st.data())
def test_batch_scalar_equivalence_property(seed, data):
    """Hypothesis: batch and scalar decoders agree on arbitrary patterns."""
    g = tornado_graph(16, seed=seed % 7)  # few graph shapes, many patterns
    pattern = data.draw(
        st.lists(
            st.booleans(), min_size=g.num_nodes, max_size=g.num_nodes
        )
    )
    unknown = np.array([pattern], dtype=bool)
    scalar = PeelingDecoder(g).is_recoverable(np.flatnonzero(unknown[0]))
    batch = make_batch_decoder(g).decode_batch(unknown)[0]
    assert scalar == bool(batch)
