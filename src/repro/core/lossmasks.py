"""Random exactly-``k``-loss patterns: the one k-subset selection.

Every Monte Carlo estimate in the package starts from a batch of
uniform random ``k``-subsets of the ``N`` nodes.  A subset is chosen by
scoring nodes with ``rng.random`` and keeping the lowest-scoring ones;
which scores are drawn, in which order, *is* the RNG stream that every
historical profile, checkpoint and cache entry was produced from, so
the draws below are frozen and only the work done on them is free.

The node axis is cut into leaves of ``leaf`` nodes.  With more than one
leaf, a case's loss count per leaf comes from one vectorised
``multivariate_hypergeometric`` draw (a uniform ``k``-subset restricted
to a partition is exactly that), then each leaf with any loss draws one
``(batch, leaf)`` score matrix and keeps the ``count`` smallest scores
of each row.  The two public entry points differ only in ``leaf``:

* :func:`repro.core.bitdecoder.packed_random_loss_masks` — one leaf of
  ``num_nodes`` (no hypergeometric draw, one ``(batch, N)`` matrix);
* :func:`repro.core.sparse.packed_sparse_loss_masks` — leaves of
  ``_MASK_LEAF`` nodes.

Selection is by threshold, with no index arrays: the scores rounded to
float32, one ``np.sort`` of each row (numpy's SIMD sort), the row's
``count``-th order statistic read off it, ``scores32 <= kth``, and a
contiguous-transpose ``np.packbits`` straight into the packed ``(N, W)``
layout.  Score matrices are drawn in row blocks of about
``_SCORE_BLOCK`` scores — ``rng.random`` fills row-major, so block-wise
draws are the identical stream — which keeps every temporary
cache-sized whatever the batch and graph size.  The block size is a
constant and not a knob: it changes no output bit, and one value serves
both the 96-node and the million-node case (docs/PERF.md).

Rounding to float32 is monotone (``a <= b`` implies ``f(a) <= f(b)``),
so when a row's ``count``-th and next sorted float32 scores differ,
every kept score is strictly below every dropped one in float64 too:
the threshold set *is* the ``count`` smallest float64 scores.  A row
where the two are equal — a float64 tie or two doubles that collide in
float32, a few per million rows — is re-chosen from the float64 scores
by the index-based argpartition selection the threshold replaced, so
the output is bit-identical to it always.

Blocks are drawn on every CPU the process may use.  A call draws its
leaf counts on the caller's ``rng``, then lists its score blocks with
their offsets in the stream (the doubles drawn before each).  When
``rng`` is a ``Generator`` over ``PCG64`` or ``PCG64DXSM`` — whose
``advance(n)`` skips exactly ``n`` doubles — the blocks are dealt round
robin to the caller's thread and one helper thread per extra CPU in
``os.sched_getaffinity(0)``.  Each thread draws from its own copy of
the caller's bit generator, advanced to each of its blocks in turn,
and writes only its blocks' words.  The threads come from
:func:`_fan_out`, which the decode kernels' word ranges use too: the
helpers are started per call and joined before it returns, so no
thread outlives a call (a forked pool worker inherits none).  The
caller's generator is then moved to where drawing in order would have
left it, its buffered 32-bit half kept.  Every other case runs the
same block function in order on the caller's thread: one CPU, one
block, ``Philox`` (whose ``advance`` counts four-output blocks, not
draws), ``MT19937`` and ``SFC64`` (no ``advance``), or a duck-typed
generator.  Both ways give the same bits and the same end state
(docs/PERF.md, "Two cores under one mask batch").
"""

from __future__ import annotations

import os
import threading
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .._checks import check_count

__all__ = ["packed_loss_masks", "boolean_loss_masks"]

_Share = TypeVar("_Share")

#: Scores drawn per block (2 MiB of float64).  Not part of the output.
_SCORE_BLOCK = 1 << 18

#: Bit generators whose ``advance(n)`` skips exactly ``n`` doubles.
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


class _Block(NamedTuple):
    """One score matrix of a call and the cases and nodes it decides."""

    offset: int  # doubles the call draws before this block's
    row: int
    col: int
    rows: int
    size: int
    counts: np.ndarray | None  # per-row losses; None: every row kmax
    kmax: int


def _argpartition_choice(
    scores: np.ndarray, counts: np.ndarray, kmax: int
) -> np.ndarray:
    """Boolean ``counts[i]``-smallest selection per row, by index.

    The tie-breaking reference: a candidate pool of the ``kmax``
    smallest scores from ``argpartition``, stably sorted so "the
    ``count`` smallest" is a prefix per row.
    """
    rows, size = scores.shape
    if kmax >= size:
        cand = np.broadcast_to(np.arange(size, dtype=np.intp), (rows, size))
        cand_scores = scores
    else:
        cand = np.argpartition(scores, kmax - 1, axis=1)[:, :kmax]
        cand_scores = np.take_along_axis(scores, cand, axis=1)
    order = np.argsort(cand_scores, axis=1, kind="stable")
    ranked = np.take_along_axis(cand, order, axis=1)
    keep = np.arange(ranked.shape[1], dtype=np.intp) < counts[:, None]
    row_ids, pos = np.nonzero(keep)
    chosen = np.zeros((rows, size), dtype=bool)
    chosen[row_ids, ranked[row_ids, pos]] = True
    return chosen


def _select_smallest(
    scores: np.ndarray, counts: np.ndarray | None, kmax: int
) -> np.ndarray:
    """Boolean mask of each row's ``count`` smallest scores.

    ``counts`` is per row, or ``None`` when every row keeps ``kmax``.
    """
    rows, size = scores.shape
    counts = np.broadcast_to(kmax if counts is None else counts, (rows,))
    scores32 = scores.astype(np.float32)
    ranked = np.sort(scores32, axis=1)
    row = np.arange(rows)
    # Scores lie in [0, 1]: a threshold of -1 keeps nothing, and a
    # next score of 2 is never tied with a row that keeps everything.
    kth = np.where(counts > 0, ranked[row, counts - 1], -1.0)
    following = np.where(
        counts < size, ranked[row, np.minimum(counts, size - 1)], 2.0
    )
    chosen = scores32 <= kth[:, None]
    tied = np.flatnonzero(kth == following)
    if tied.size:
        chosen[tied] = _argpartition_choice(scores[tied], counts[tied], kmax)
    return chosen


def _plan(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator, leaf: int
) -> list[_Block]:
    """The call's score blocks in stream order, leaf counts drawn.

    Leaves in which no case loses a node get no block (and draw
    nothing).  ``k`` and ``batch`` are validated here, before the first
    draw, so a rejected call leaves ``rng`` where it was.
    """
    k, batch = check_count(k, "k"), check_count(batch, "batch")
    if k > num_nodes:
        raise ValueError(f"k={k} outside [0, {num_nodes}]")
    if k == 0 or batch == 0:
        return []
    num_leaves = (num_nodes + leaf - 1) // leaf
    if num_leaves == 1:
        counts = None
    else:
        leaf_sizes = np.full(num_leaves, leaf, dtype=np.int64)
        if num_nodes % leaf:
            leaf_sizes[-1] = num_nodes % leaf
        counts = rng.multivariate_hypergeometric(
            leaf_sizes, k, size=batch, method="marginals"
        )
    blocks = []
    offset = 0
    for j in range(num_leaves):
        col = j * leaf
        size = min(leaf, num_nodes - col)
        kmax = k if counts is None else int(counts[:, j].max())
        if kmax == 0:
            continue
        # Whole words per block, so blocks pack independently.
        step = max(64, (_SCORE_BLOCK // size) & ~63)
        for row in range(0, batch, step):
            rows = min(step, batch - row)
            block_counts = (
                None if counts is None else counts[row:row + rows, j]
            )
            blocks.append(
                _Block(offset, row, col, rows, size, block_counts, kmax)
            )
            offset += rows * size
    return blocks


def _chosen(block: _Block, rng: np.random.Generator) -> np.ndarray:
    """Draw ``block``'s scores from ``rng``; ``chosen[i, n]`` says case
    ``block.row + i`` loses node ``block.col + n``."""
    scores = rng.random((block.rows, block.size))
    return _select_smallest(scores, block.counts, block.kmax)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fan_out(shares: Sequence[_Share], run: Callable[[_Share], None]) -> None:
    """``run(share)`` for every share at once: the first on the caller's
    thread, each other on its own short-lived helper thread.

    The package's one thread fan-out, under the mask generator and the
    decode kernels.  Every helper is joined before this returns, so no
    thread outlives the call: a pool worker forked later inherits none
    (a thread pool's object would survive the fork without its threads,
    and the worker's first submit would hang).  A helper's exception is
    re-raised on the caller's thread.  ``run`` must write only what its
    share owns.
    """
    errors: list[BaseException] = []

    def helper(share: _Share) -> None:
        try:
            run(share)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    helpers = [
        threading.Thread(target=helper, args=(share,)) for share in shares[1:]
    ]
    for thread in helpers:
        thread.start()
    try:
        run(shares[0])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _each_block(
    blocks: list[_Block],
    rng: np.random.Generator,
    emit: Callable[[_Block, np.ndarray], None],
) -> None:
    """``emit(block, chosen)`` for every block, threaded where it may be
    (module docstring); ``emit`` must write only its block's cases."""
    threads = 1
    if (
        len(blocks) > 1
        and type(rng) is np.random.Generator
        and type(rng.bit_generator) in _JUMPABLE
    ):
        threads = min(_cpu_count(), len(blocks))
    if threads == 1:
        for block in blocks:
            emit(block, _chosen(block, rng))
        return

    bitgen = rng.bit_generator
    base = bitgen.state

    def at_base():
        copy = type(bitgen)()
        copy.state = base
        return copy

    def drain(share: list[_Block]) -> None:
        gen = np.random.Generator(at_base())
        drawn = 0
        for block in share:
            gen.bit_generator.advance(block.offset - drawn)
            emit(block, _chosen(block, gen))
            drawn = block.offset + block.rows * block.size

    _fan_out([blocks[t::threads] for t in range(threads)], drain)
    last = blocks[-1]
    end = at_base()
    end.advance(last.offset + last.rows * last.size)
    state = end.state  # advance() dropped the buffered half; restore it
    state["has_uint32"] = base["has_uint32"]
    state["uinteger"] = base["uinteger"]
    bitgen.state = state


def packed_loss_masks(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator, leaf: int
) -> np.ndarray:
    """``(N, W)`` packed exactly-``k``-loss masks (see module docstring).

    Layout as :func:`repro.core.bitdecoder.pack_cases`: case ``c`` in
    word ``c >> 6`` at numeric bit ``c & 63``, pad lanes zero.
    """
    blocks = _plan(num_nodes, k, batch, rng, leaf)
    w = max(1, (batch + 63) // 64)
    lanes = np.zeros((num_nodes, w * 8), dtype=np.uint8)

    def pack(block: _Block, chosen: np.ndarray) -> None:
        packed = np.packbits(
            np.ascontiguousarray(chosen.T), axis=1, bitorder="little"
        )
        lo = block.row >> 3
        lanes[block.col:block.col + block.size, lo:lo + packed.shape[1]] = (
            packed
        )

    _each_block(blocks, rng, pack)
    # Little-endian words, normalised to native order so the
    # numeric-bit convention holds on any host.
    return lanes.view("<u8").astype(np.uint64, copy=False)


def boolean_loss_masks(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean ``(batch, num_nodes)`` masks under the dense leaf rule.

    The masks and RNG stream of
    :func:`repro.core.bitdecoder.packed_random_loss_masks`, unpacked,
    for the engines that have no ``decode_packed``.
    """
    blocks = _plan(num_nodes, k, batch, rng, leaf=num_nodes)
    masks = np.zeros((batch, num_nodes), dtype=bool)

    def write(block: _Block, chosen: np.ndarray) -> None:
        rows = slice(block.row, block.row + block.rows)
        masks[rows, block.col:block.col + block.size] = chosen

    _each_block(blocks, rng, write)
    return masks
