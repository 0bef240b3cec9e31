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
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lossmasks as lossmasks
import repro.sim.montecarlo as montecarlo
from repro.obs import MetricsRegistry, capture
from repro.core import (
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    unpack_cases,
)
from repro.core.lossmasks import boolean_loss_masks
from repro.sim import profile_graph, sample_fail_fraction

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


GENERATORS = [
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    # id of the stream it replays (mask_oracle.oracle_random_loss_masks)
    pytest.param(boolean_loss_masks, id="_random_loss_masks"),
]


class TestRejectsBeforeDrawing:
    @pytest.mark.parametrize("generate", GENERATORS)
    @pytest.mark.parametrize("n,k", [(96, 97), (96, -1), (9000, 9001)])
    def test_bad_k_leaves_generator_untouched(self, generate, n, k):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        bound = "k must be >= 0" if k < 0 else rf"k={k} outside \[0, {n}\]"
        with pytest.raises(ValueError, match=bound):
            generate(n, k, 64, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("generate", GENERATORS)
    @pytest.mark.parametrize("n", [96, 9000])
    def test_negative_batch_leaves_generator_untouched(self, generate, n):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"batch must be >= 0, got -1"):
            generate(n, 5, -1, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("generate", GENERATORS)
    @pytest.mark.parametrize("n", [96, 9000])
    @pytest.mark.parametrize(
        "name,k,batch",
        [("k", 10.0, 100), ("k", np.float64(10), 100), ("k", "10", 100),
         ("batch", 10, 100.0), ("batch", 10, np.float64(100))],
    )
    def test_non_integer_k_or_batch_leaves_generator_untouched(
        self, generate, n, name, k, batch
    ):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            generate(n, k, batch, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("generate", GENERATORS)
    def test_numpy_integers_draw_as_ints(self, generate):
        want = generate(96, 10, 100, np.random.default_rng(3))
        got = generate(96, np.int64(10), np.int32(100), np.random.default_rng(3))
        assert np.array_equal(got, want)


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


class _ScriptedScores:
    """Duck-typed generator that hands out prepared score matrices."""

    def __init__(self, *matrices, leaf_counts=None):
        self._matrices = list(matrices)
        self._leaf_counts = leaf_counts

    def random(self, shape=None):
        scores = self._matrices.pop(0)
        assert scores.shape == tuple(shape)
        return scores

    def multivariate_hypergeometric(self, *args, **kwargs):
        return self._leaf_counts


def _spread_scores(rows: int, size: int) -> np.ndarray:
    """Distinct scores, far apart in float32, shuffled within each row."""
    rng = np.random.default_rng(0)
    base = (np.arange(size) + 0.5) / (size + 1)
    return np.stack([rng.permutation(base) for _ in range(rows)])


class TestFloat32Selector:
    """The float32 sort picks the float64 answer, or asks for it.

    Every crafted block must equal ``_argpartition_choice`` on the same
    float64 scores; ``fallback_rows`` says which rows may reach it.
    """

    def _check(self, monkeypatch, scores, counts, kmax, fallback_rows):
        reference = lossmasks._argpartition_choice
        seen = []

        def spy(sub_scores, sub_counts, sub_kmax):
            seen.append(len(sub_scores))
            return reference(sub_scores, sub_counts, sub_kmax)

        monkeypatch.setattr(lossmasks, "_argpartition_choice", spy)
        got = lossmasks._select_smallest(scores, counts, kmax)
        per_row = np.broadcast_to(
            kmax if counts is None else counts, (len(scores),)
        )
        assert np.array_equal(got, reference(scores, per_row, kmax))
        assert (got.sum(axis=1) == per_row).all()
        assert sum(seen) == fallback_rows

    def test_float64_tie_at_the_threshold(self, monkeypatch):
        scores = _spread_scores(3, 12)
        order = np.argsort(scores[1])
        scores[1, order[4]] = scores[1, order[3]]  # 4th == 5th smallest
        self._check(monkeypatch, scores, None, 4, fallback_rows=1)

    def test_float32_only_collision_at_the_threshold(self, monkeypatch):
        scores = _spread_scores(3, 12)
        order = np.argsort(scores[2])
        low = scores[2, order[3]]
        scores[2, order[4]] = np.nextafter(low, 1.0)  # 1 ulp above
        assert scores[2, order[4]] > low
        assert np.float32(scores[2, order[4]]) == np.float32(low)
        self._check(monkeypatch, scores, None, 4, fallback_rows=1)
        # The one-ulp-larger double is the one left out.
        got = lossmasks._select_smallest(scores, None, 4)
        assert got[2, order[3]] and not got[2, order[4]]

    def test_collision_away_from_the_threshold_stays_on_the_sort(
        self, monkeypatch
    ):
        scores = _spread_scores(3, 12)
        order = np.argsort(scores[0])
        # Equal pairs strictly inside the kept set and the dropped set.
        scores[0, order[1]] = scores[0, order[0]]
        scores[0, order[8]] = np.nextafter(scores[0, order[7]], 1.0)
        self._check(monkeypatch, scores, None, 4, fallback_rows=0)

    def test_score_that_rounds_up_to_one(self, monkeypatch):
        scores = _spread_scores(2, 12)
        top = np.nextafter(1.0, 0.0)
        assert top < 1.0 and np.float32(top) == np.float32(1.0)
        scores[0, np.argmax(scores[0])] = top
        # Keep everything but the rounded-up score, then everything.
        self._check(monkeypatch, scores, None, 11, fallback_rows=0)
        self._check(monkeypatch, scores, None, 12, fallback_rows=0)

    def test_zero_and_full_counts_on_the_leaf_path(self, monkeypatch):
        scores = _spread_scores(5, 12)
        counts = np.array([0, 12, 1, 11, 5])
        self._check(monkeypatch, scores, counts, 12, fallback_rows=0)

    def test_tie_next_to_a_per_row_count(self, monkeypatch):
        scores = _spread_scores(4, 12)
        counts = np.array([0, 12, 5, 5])
        order = np.argsort(scores[3])
        scores[3, order[5]] = scores[3, order[4]]
        # Rows 0 and 1 hold the same pair: nothing to tie with at 0 / 12.
        scores[0, :2] = scores[0, 0]
        scores[1, :2] = scores[1, 0]
        self._check(monkeypatch, scores, counts, 12, fallback_rows=1)

    def test_leaf_generator_with_empty_and_full_leaves(self):
        """``count = 0`` and ``count = size`` rows through the packer."""
        n, leaf, batch = 20, 8, 3
        leaf_counts = np.array([[0, 8, 2], [8, 0, 2], [3, 4, 3]])
        matrices = [_spread_scores(batch, size) for size in (8, 8, 4)]
        packed = lossmasks.packed_loss_masks(
            n, 10, batch,
            _ScriptedScores(*matrices, leaf_counts=leaf_counts), leaf,
        )
        lanes = unpack_cases(packed, 64)[:batch]
        want = np.concatenate(
            [
                lossmasks._argpartition_choice(
                    scores, leaf_counts[:, j], int(leaf_counts[:, j].max())
                )
                for j, scores in enumerate(matrices)
            ],
            axis=1,
        )
        assert np.array_equal(lanes, want)
        assert (lanes.sum(axis=1) == 10).all()


def _run_on(cpus, generate, *args):
    """``generate(*args)`` as if the process had ``cpus`` CPUs, and how
    many threads drew its score blocks."""
    threads = set()
    chosen = lossmasks._chosen

    def spy(block, rng):
        threads.add(threading.current_thread())  # idents get reused
        return chosen(block, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lossmasks, "_cpu_count", lambda: cpus)
        mp.setattr(lossmasks, "_chosen", spy)
        return generate(*args), len(threads)


def _same_stream(a, b) -> bool:
    """Both generators draw the same next numbers, buffered half first."""
    return bool(
        np.array_equal(
            a.integers(2**32, size=3, dtype=np.uint32),
            b.integers(2**32, size=3, dtype=np.uint32),
        )
        and a.random() == b.random()
    )


class TestTwoCores:
    """Blocks drawn on helper threads are the blocks drawn in order."""

    @pytest.mark.parametrize(
        "rule,n,k,batch",
        [
            ("dense", 96, 30, 16384),  # the sweep's cell: 7 row blocks
            ("dense", 700, 350, 3000),
            ("bounded", 2 * MASK_LEAF + 809, 7, 200),  # remainder leaf
            ("bounded", 4 * MASK_LEAF + 5, 1, 64),  # the 5-node leaf is empty
            ("bounded", 3 * MASK_LEAF + 1, 5000, 130),
        ],
    )
    def test_threaded_equals_in_order_equals_oracle(self, rule, n, k, batch):
        new, oracle = ENTRY_POINTS[rule]
        threaded_rng, in_order_rng, oracle_rng = (
            np.random.default_rng(21) for _ in range(3)
        )
        threaded, threads = _run_on(3, new, n, k, batch, threaded_rng)
        in_order, alone = _run_on(1, new, n, k, batch, in_order_rng)
        assert threads >= 2, "no helper thread drew a block"
        assert alone == 1
        assert np.array_equal(threaded, in_order)
        assert np.array_equal(threaded, oracle(n, k, batch, oracle_rng))
        assert (
            threaded_rng.bit_generator.state
            == in_order_rng.bit_generator.state
            == oracle_rng.bit_generator.state
        )

    def test_boolean_masks(self):
        threaded_rng, in_order_rng, oracle_rng = (
            np.random.default_rng(4) for _ in range(3)
        )
        args = (96, 40, 9000)
        threaded, threads = _run_on(2, boolean_loss_masks, *args, threaded_rng)
        in_order, _ = _run_on(1, boolean_loss_masks, *args, in_order_rng)
        assert threads == 2
        assert np.array_equal(threaded, in_order)
        assert np.array_equal(
            threaded, oracle_random_loss_masks(*args, oracle_rng)
        )
        assert _same_stream(threaded_rng, oracle_rng)

    def test_end_state_keeps_the_buffered_half(self):
        threaded_rng, in_order_rng = (
            np.random.default_rng(9) for _ in range(2)
        )
        for rng in (threaded_rng, in_order_rng):
            rng.integers(100, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
        args = (96, 20, 9000)
        _, threads = _run_on(2, packed_random_loss_masks, *args, threaded_rng)
        _run_on(1, packed_random_loss_masks, *args, in_order_rng)
        assert threads == 2
        assert (
            threaded_rng.bit_generator.state
            == in_order_rng.bit_generator.state
        )
        assert _same_stream(threaded_rng, in_order_rng)

    @pytest.mark.parametrize(
        "bit_generator,threaded",
        [("PCG64DXSM", True), ("Philox", False), ("MT19937", False),
         ("SFC64", False)],
    )
    @pytest.mark.parametrize(
        "rule,n,k,batch",
        [("dense", 96, 30, 9000), ("bounded", 2 * MASK_LEAF + 809, 300, 130)],
    )
    def test_bit_generators(self, bit_generator, threaded, rule, n, k, batch):
        """PCG64DXSM advances by draws and is threaded; Philox's advance
        counts four-output blocks, MT19937 and SFC64 have none: those
        run in order, on the oracle's stream."""
        new, oracle = ENTRY_POINTS[rule]

        def make():
            return np.random.Generator(getattr(np.random, bit_generator)(5))

        got_rng, want_rng = make(), make()
        got, threads = _run_on(2, new, n, k, batch, got_rng)
        assert threads == (2 if threaded else 1)
        assert np.array_equal(got, oracle(n, k, batch, want_rng))
        assert _same_stream(got_rng, want_rng)

    def test_more_threads_than_cores_lose_no_block(self, monkeypatch):
        """Eight threads over 64-row blocks, switching every microsecond:
        a block written over or skipped breaks equality."""
        monkeypatch.setattr(lossmasks, "_SCORE_BLOCK", 1)
        args = (96, 30, 3000)
        want, _ = _run_on(1, packed_random_loss_masks, *args,
                          np.random.default_rng(2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, threads = _run_on(8, packed_random_loss_masks, *args,
                                   np.random.default_rng(2))
        finally:
            sys.setswitchinterval(interval)
        assert threads == 8
        assert np.array_equal(got, want)

    def test_a_helpers_exception_reaches_the_caller(self, monkeypatch):
        caller = threading.get_ident()
        chosen = lossmasks._chosen

        def fail_off_the_caller(block, rng):
            if threading.get_ident() != caller:
                raise RuntimeError("helper failed")
            return chosen(block, rng)

        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 2)
        monkeypatch.setattr(lossmasks, "_chosen", fail_off_the_caller)
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            packed_random_loss_masks(96, 30, 9000, np.random.default_rng(1))
        assert threading.active_count() == alive  # every helper joined

    def test_pool_after_an_in_process_sweep(self, small_tornado, monkeypatch):
        """No thread outlives a call, so a pool forked after an
        in-process sweep inherits none: its cells run to the same
        profile.  A hung cell would time out and be counted."""
        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 2)
        sweep = dict(samples_per_k=9000, exact_upto=2, ks=[8, 12, 16], seed=4)
        in_process = profile_graph(small_tornado, **sweep)
        with capture(MetricsRegistry()) as reg:
            pooled = profile_graph(
                small_tornado, **sweep, n_jobs=2, cell_timeout=60
            )
        assert "profile.cell_timeouts" not in reg.snapshot()["counters"]
        assert pooled.to_json() == in_process.to_json()

    def test_dense_batch_is_not_part_of_the_output(self, graph3, monkeypatch):
        """A 16 384-case call draws what two 8 192-case calls drew."""

        def estimate():
            rng = np.random.default_rng(6)
            return sample_fail_fraction(graph3, 30, 20_000, rng), rng.random()

        assert montecarlo._mask_batch(graph3.num_nodes) == 16_384
        whole = estimate()
        monkeypatch.setattr(montecarlo, "_DENSE_BATCH", 8_192)
        assert montecarlo._mask_batch(graph3.num_nodes) == 8_192
        assert estimate() == whole
