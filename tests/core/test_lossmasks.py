"""The shared k-subset selection replays the historical mask streams.

``repro.core.lossmasks`` replaced four index-based copies of the same
selection.  Its contract is not "statistically the same masks" but
*the same bits from the same draws*: every profile, checkpoint and
cache entry written by earlier versions must reproduce.  The oracle is
the replaced code itself, frozen in :mod:`tests.core.mask_oracle`, plus
digests computed at the last commit that shipped it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lossmasks as lossmasks
from repro.core import (
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    unpack_cases,
)
from repro.core.lossmasks import boolean_loss_masks

from .mask_oracle import (
    MASK_LEAF,
    oracle_packed_random_loss_masks,
    oracle_packed_sparse_loss_masks,
    oracle_random_loss_masks,
)

ENTRY_POINTS = {
    "dense": (packed_random_loss_masks, oracle_packed_random_loss_masks),
    "bounded": (packed_sparse_loss_masks, oracle_packed_sparse_loss_masks),
}

# N <= leaf, N = leaf and leaf + 1, whole and remainder leaves.
NODE_COUNTS = [
    1, 7, 96, 130, MASK_LEAF - 1, MASK_LEAF, MASK_LEAF + 1,
    2 * MASK_LEAF, 2 * MASK_LEAF + 809, 3 * MASK_LEAF + 1,
]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()
    ).hexdigest()[:16]


def _assert_replays(new, oracle, n, k, batch, make_rng):
    """``new`` gives the oracle's bits and leaves ``rng`` where it does."""
    rng_new, rng_old = make_rng(), make_rng()
    got = new(n, k, batch, rng_new)
    want = oracle(n, k, batch, rng_old)
    assert got.dtype == np.uint64
    assert got.shape == want.shape == (n, max(1, (batch + 63) // 64))
    assert np.array_equal(got, want)
    assert rng_new.random() == rng_old.random()
    lanes = unpack_cases(got, got.shape[1] * 64)
    assert (lanes[:batch].sum(axis=1) == k).all()
    assert not lanes[batch:].any()


@st.composite
def _shapes(draw):
    n = draw(st.sampled_from(NODE_COUNTS))
    # The ends of the range, and small k on several leaves (rows — and
    # at batch 1, whole leaves — with a zero leaf count).
    k = draw(st.one_of(
        st.sampled_from([1, max(1, n - 1), n]),
        st.integers(1, n),
        st.integers(1, min(n, 4)),
    ))
    # Past one row block at every N: 64 rows from N = 4096, 2688 at 96.
    batch = draw(st.sampled_from([1, 63, 64, 65, 130, 200]))
    if n <= 130:
        batch = draw(st.sampled_from([batch, 3000]))
    return n, k, batch


class TestReplaysHistoricalStream:
    @pytest.mark.parametrize("rule", sorted(ENTRY_POINTS))
    @settings(max_examples=40, deadline=None)
    @given(shape=_shapes(), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, rule, shape, seed):
        new, oracle = ENTRY_POINTS[rule]
        _assert_replays(
            new, oracle, *shape, lambda: np.random.default_rng(seed)
        )

    @pytest.mark.parametrize("rule", sorted(ENTRY_POINTS))
    def test_block_budget_is_not_part_of_the_output(self, rule, monkeypatch):
        """Any row-block size draws the same stream into the same bits."""
        new, oracle = ENTRY_POINTS[rule]
        for budget in (1, 1 << 12, 1 << 30):
            monkeypatch.setattr(lossmasks, "_SCORE_BLOCK", budget)
            for n, k, batch in ((96, 30, 333), (2 * MASK_LEAF + 5, 40, 150)):
                _assert_replays(
                    new, oracle, n, k, batch,
                    lambda: np.random.default_rng(budget),
                )

    def test_golden_digests(self):
        """Computed at the last commit that shipped the oracle code."""
        dense = packed_random_loss_masks(
            96, 30, 300, np.random.default_rng(12345)
        )
        assert _digest(dense) == "cf727767080a494b"
        bounded = packed_sparse_loss_masks(
            16484, 300, 130, np.random.default_rng(12345)
        )
        assert _digest(bounded) == "570b1ef27bcc519d"

    def test_boolean_view_matches_oracle(self):
        for n, k, batch in ((96, 1, 64), (96, 95, 3000), (10, 10, 5),
                            (5000, 123, 70)):
            rng_new = np.random.default_rng(8)
            rng_old = np.random.default_rng(8)
            got = boolean_loss_masks(n, k, batch, rng_new)
            want = oracle_random_loss_masks(n, k, batch, rng_old)
            assert got.dtype == np.bool_
            assert np.array_equal(got, want)
            assert rng_new.random() == rng_old.random()


class TestRejectsBeforeDrawing:
    @pytest.mark.parametrize(
        "generate",
        [packed_random_loss_masks, packed_sparse_loss_masks,
         # id of the stream it replays (mask_oracle.oracle_random_loss_masks)
         pytest.param(boolean_loss_masks, id="_random_loss_masks")],
    )
    @pytest.mark.parametrize("n,k", [(96, 97), (96, -1), (9000, 9001)])
    def test_bad_k_leaves_generator_untouched(self, generate, n, k):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"k={k} outside \[0, {n}\]"):
            generate(n, k, 64, rng)
        assert rng.bit_generator.state == before


class _CoarseScores:
    """Duck-typed generator whose scores collide at the threshold.

    A real generator's draws rounded down to ``levels`` values, so rows
    of more than ``levels`` nodes always hold duplicates and the k-th
    and (k+1)-th smallest scores are equal in most of them.
    """

    def __init__(self, seed: int, levels: int):
        self._rng = np.random.default_rng(seed)
        self._levels = levels

    def random(self, shape=None):
        return np.floor(self._rng.random(shape) * self._levels) / self._levels

    def multivariate_hypergeometric(self, *args, **kwargs):
        return self._rng.multivariate_hypergeometric(*args, **kwargs)


class TestThresholdTies:
    def test_crafted_scores_do_tie_at_the_threshold(self):
        scores = np.sort(_CoarseScores(1, 8).random((200, 40)), axis=1)
        assert (scores[:, 6] == scores[:, 7]).mean() > 0.5

    @pytest.mark.parametrize("rule", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "n,k,batch,levels",
        [
            (40, 7, 200, 8),
            (40, 40, 70, 8),
            (96, 30, 3000, 16),  # several row blocks
            (MASK_LEAF + 104, 300, 70, 64),  # two leaves, varying counts
            (MASK_LEAF + 3, MASK_LEAF + 2, 65, 64),  # a full small leaf
        ],
    )
    def test_exactly_k_and_equal_to_oracle(self, rule, n, k, batch, levels):
        new, oracle = ENTRY_POINTS[rule]
        _assert_replays(
            new, oracle, n, k, batch, lambda: _CoarseScores(5, levels)
        )

    def test_boolean_view_under_ties(self):
        got = boolean_loss_masks(40, 7, 200, _CoarseScores(5, 8))
        want = oracle_random_loss_masks(40, 7, 200, _CoarseScores(5, 8))
        assert np.array_equal(got, want)
        assert (got.sum(axis=1) == 7).all()
