"""Bit-packed batch peeling: 64 erasure cases per machine word.

Every erasure state is a 0/1 value, so for the graph sizes the paper
studies (96–128 nodes) the entire state of 64 cases fits in *one*
``uint64`` per node and a peeling round collapses to a handful of
AND/OR/NOT sweeps over packed words — the bit-slicing trick GF(2)
linear-algebra kernels use.

Layout
------
A batch of ``B`` cases over ``N`` nodes is stored node-major as a
``(N, W)`` ``uint64`` array with ``W = ceil(B / 64)``: case ``c`` lives
in word ``c >> 6`` at numeric bit ``c & 63`` (bit 0 = case 0 of the
word, regardless of host endianness).  A set bit means *unknown/lost*.

The decoder detects constraints with exactly one unknown member using
two bit-sliced planes — ``once`` (≥1 unknown member) and ``twice``
(≥2) — updated per member::

    twice |= once & member;  once |= member      # per member
    solvable = once & ~twice                     # exactly one

The fixpoint is one loop, :meth:`_PackedPeelingDecoder._peel`, shared
by this kernel and the sparse one (:mod:`repro.core.sparse`).  Each
iteration walks a list of **blocks**: sets of constraints peeled
together against the state the blocks before them left.  A block of
several constraints is a gather step: the planes of all its
constraints through per-slot index arrays (constraints sorted by member
count, so slot ``j`` acts on a shrinking row *prefix*), then each node's
solved bits, the OR of its constraints' ``solvable`` planes, through
the same kind of gathers from the node side.  A block of one
constraint clears ``solvable`` from its member rows in place.  A
kernel is only its constants and block lists:

* bitset, while at least ``_serial_words`` words are active: one block
  per constraint in reverse cascade order (a **serial sweep**, so a
  node solved early is known to every later constraint); below that,
  one block of every constraint (a **parallel round**);
* sparse: one block per cascade level, in reverse order, at any width.

Peeling reaches the same fixpoint — the largest stopping set inside the
erasure — whatever the blocks and their order, so every schedule gives
the same success vector (docs/PERF.md, "Level sweeps").  A block of
more than ``chunk`` constraints is split at ``chunk``, bounding its
planes.  Finished words (every case solved or stuck) are compacted
away lazily with hysteresis so column-slicing costs stay amortised.

:func:`packed_random_loss_masks` draws random ``k``-loss patterns
straight into packed form from the same selection and RNG stream as
the boolean masks a ``decode_batch``-only reference decoder consumes,
so profiles are byte-identical whichever decoder reads them.
:func:`repro.core.decoder.make_batch_decoder` picks the kernel from the
graph's size.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .._checks import check_count
from ..obs.registry import registry
from . import lossmasks
from .csrgraph import CsrGraph
from .lossmasks import packed_loss_masks

__all__ = [
    "BitsetBatchDecoder",
    "pack_cases",
    "unpack_cases",
    "packed_random_loss_masks",
    "missing_sets_to_unknown",
]


def pack_cases(unknown: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(batch, num_nodes)`` matrix into ``(N, W)`` words.

    Case ``c`` maps to word ``c >> 6``, numeric bit ``c & 63``.  Lanes
    beyond ``batch`` in the last word are zero-padded.
    """
    unknown = np.asarray(unknown, dtype=bool)
    if unknown.ndim != 2:
        raise ValueError("expected a (batch, num_nodes) boolean matrix")
    batch, num_nodes = unknown.shape
    w = max(1, (batch + 63) // 64)
    mt = unknown.T
    pad = w * 64 - batch
    if pad:
        mt = np.concatenate(
            [mt, np.zeros((num_nodes, pad), dtype=bool)], axis=1
        )
    packed_bytes = np.ascontiguousarray(
        np.packbits(mt, axis=1, bitorder="little")
    )
    # View as little-endian words, then normalise to native order so the
    # numeric-bit convention holds on any host.
    return packed_bytes.view("<u8").astype(np.uint64, copy=False)


def unpack_cases(packed: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_cases`: ``(N, W)`` words → ``(batch, N)``.

    Raises ``ValueError`` for ``batch`` outside ``[0, 64 * W]``.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if check_count(batch, "batch") > packed.shape[1] * 64:
        raise ValueError(
            f"batch={batch} does not fit {packed.shape[1]} words"
        )
    lanes = (
        packed[:, :, np.newaxis] >> np.arange(64, dtype=np.uint64)
    ) & np.uint64(1)
    flat = lanes.reshape(packed.shape[0], -1)  # (N, W*64)
    return (flat[:, :batch] != 0).T


def packed_random_loss_masks(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Random exactly-``k``-loss patterns, written directly in packed form.

    The dense leaf rule of :mod:`repro.core.lossmasks`: one leaf of
    ``num_nodes``, so the RNG stream is ``rng.random`` over a
    ``(batch, num_nodes)`` score matrix and nothing else — the stream
    of every profile sampled up to ``_DENSE_MASK_MAX_NODES`` nodes.  The
    ``(batch, num_nodes)`` boolean intermediate is never materialised
    whole.  Raises ``ValueError`` for ``k`` outside ``[0, num_nodes]``
    before drawing anything.
    """
    return packed_loss_masks(num_nodes, k, batch, rng, leaf=num_nodes)


def missing_sets_to_unknown(
    missing_sets: Sequence[Sequence[int]], num_nodes: int
) -> np.ndarray:
    """Boolean ``(len(missing_sets), num_nodes)`` matrix via one scatter.

    Replaces the per-row python loop with a single flat-index write;
    duplicate node ids inside a set are tolerated (idempotent OR).
    Raises ``TypeError`` for a node id that is not an integer and
    ``ValueError`` for one out of range.
    """
    unknown = np.zeros((len(missing_sets), num_nodes), dtype=bool)
    lengths = np.fromiter(
        (len(ms) for ms in missing_sets), dtype=np.intp,
        count=len(missing_sets),
    )
    total = int(lengths.sum())
    if total == 0:
        return unknown
    rows = np.repeat(np.arange(len(missing_sets)), lengths)
    cols = np.asarray([n for ms in missing_sets for n in ms])
    if cols.dtype.kind not in "iu":
        raise TypeError(f"missing-set node ids must be integers, not {cols.dtype}")
    if cols.min() < 0 or cols.max() >= num_nodes:
        raise ValueError("missing-set node id out of range")
    unknown.ravel()[rows * num_nodes + cols] = True
    return unknown


#: Max constraints per block.  Bounds plane memory at
#: ``3 * chunk * W * 8`` bytes regardless of graph size.
DEFAULT_CHUNK = 1 << 15


def _ranks(values, first, counts):
    """``[values[first[i] + j] for i with counts[i] > j]`` for each ``j``:
    with ``counts`` descending, rank ``j`` is a prefix of rank ``j - 1``."""
    return [values[first[: int((counts > j).sum())] + j]
            for j in range(int(counts[0]))]


class _Block:
    """Constraints peeled together against one state (module docstring).

    ``cons`` holds their indices, longest first.  One constraint of at
    least two members keeps them as ``members``, for row views.  Any
    other block keeps gather indices for both sides of its edges:
    ``slots[j]``, member ``j`` of each constraint, and ``incident[j]``,
    the row in ``cons`` of constraint ``j`` of each node in ``nodes``
    (sorted by how many of the block's constraints hold them).
    """

    __slots__ = ("cons", "members", "slots", "nodes", "incident")

    def __init__(self, cons, con_nodes, indptr):
        self.cons = cons
        starts, lens = indptr[cons], indptr[cons + 1] - indptr[cons]
        self.members = None
        if cons.size == 1 and lens[0] >= 2:
            self.members = tuple(con_nodes[starts[0]:starts[0] + lens[0]].tolist())
            return
        self.slots = _ranks(con_nodes, starts, lens)
        edge_nodes = np.concatenate(self.slots)
        order = np.argsort(edge_nodes, kind="stable")
        nodes, first, counts = np.unique(
            edge_nodes[order], return_index=True, return_counts=True
        )
        by_count = np.argsort(-counts, kind="stable")
        self.nodes = nodes[by_count]
        edge_rows = np.concatenate([np.arange(s.size) for s in self.slots])
        self.incident = _ranks(
            edge_rows[order], first[by_count], counts[by_count]
        )

    def step(self, ua: np.ndarray) -> np.ndarray:
        """Peel the block over ``ua`` in place; returns the OR of its
        solvable planes (nonzero: the word progressed)."""
        slots = self.slots
        once = ua[slots[0]]
        twice = np.zeros_like(once)
        tmp = np.empty_like(once)
        # Slot j only touches the prefix of constraints long enough to
        # have a j-th member.
        for idx in slots[1:]:
            r = idx.size
            col = ua[idx]
            np.bitwise_and(once[:r], col, out=tmp[:r])
            np.bitwise_or(twice[:r], tmp[:r], out=twice[:r])
            np.bitwise_or(once[:r], col, out=once[:r])
        solv = np.bitwise_and(once, np.invert(twice, out=twice), out=once)
        word_prog = np.bitwise_or.reduce(solv, axis=0)
        if word_prog.any():
            # A solvable constraint's members are known but one, so
            # clearing its plane from every member solves exactly that
            # one: each node ORs the planes of its constraints.
            incident = self.incident
            clear = solv[incident[0]]
            for idx in incident[1:]:
                r = idx.size
                np.bitwise_or(clear[:r], solv[idx], out=clear[:r])
            ua[self.nodes] &= np.invert(clear, out=clear)
        return word_prog


class _PackedPeelingDecoder:
    """What the packed kernels share: construction and the fixpoint.

    A kernel class supplies ``engine``, its constants and
    ``_partitions(csr)``: the constraint sets of the blocks an iteration
    walks while at least ``_serial_words`` words are active, and below
    that.  ``_chunk`` caps a block's constraints.

    The 64 cases of a word never read another word's bits, so
    ``decode_packed`` can split the word columns into ``min(CPUs, W, N
    * W // _range_floor)`` contiguous ranges and peel each on its own
    copy, the first on the caller's thread and each other on a helper
    thread (:func:`repro.core.lossmasks._fan_out`); a ``_range_floor``
    of ``None`` means one range.  A range's iteration count is one more
    than the last iteration in which one of its words both progressed
    and kept an unknown data bit, so the maximum over ranges is the
    one-range count.  Metrics are recorded once per call, on the
    caller's thread, after the join.

    ``_range_floor`` is the node-words a range must hold before it gets
    a thread (docs/PERF.md, "Two cores under the kernel").
    ``_fused_words`` is the node-words
    :func:`repro.sim.montecarlo._sweep_cells` fuses into one call;
    ``None`` means one ``_range_floor`` per CPU.  Constants per kernel,
    not options.
    """

    _fused_words: int | None = None
    _chunk = DEFAULT_CHUNK

    def __init__(self, graph):
        self.graph = graph
        # A CsrGraph's arrays are adopted zero-copy (read-only ones too:
        # the decoder never writes to them).
        csr = graph if isinstance(graph, CsrGraph) else CsrGraph.from_graph(graph)
        self._num_nodes = int(csr.num_nodes)
        self._num_cons = csr.num_constraints
        self._data = np.ascontiguousarray(csr.data_nodes, dtype=np.intp)
        self._con_nodes = np.ascontiguousarray(csr.con_nodes, dtype=np.intp)
        wide, narrow = self._partitions(csr)
        self._wide = self._blocks(wide, csr.con_indptr)
        self._narrow = (
            self._wide if narrow is wide else self._blocks(narrow, csr.con_indptr)
        )

    def _blocks(self, partition, indptr) -> list[_Block]:
        """Blocks of each index set, longest constraints first, split at
        ``chunk``."""
        blocks = []
        for cons in partition:
            cons = np.asarray(cons, dtype=np.intp)
            lens = indptr[cons + 1] - indptr[cons]
            cons = cons[np.argsort(-lens, kind="stable")]
            for lo in range(0, cons.size, self._chunk):
                blocks.append(
                    _Block(cons[lo:lo + self._chunk], self._con_nodes, indptr)
                )
        return blocks

    def _peel(self, u: np.ndarray) -> int:
        """Run the packed peeling fixpoint in place; returns the number
        of iterations, each one walk over a block list."""
        # Only words with at least one unknown data bit can still change
        # pass/fail; start from that active column set.
        data_any = np.bitwise_or.reduce(u[self._data], axis=0)
        cols = np.flatnonzero(data_any)
        if cols.size == 0:
            return 0
        ua = np.ascontiguousarray(u[:, cols])
        rounds = 0
        while True:
            rounds += 1
            wa = ua.shape[1]
            blocks = self._wide if wa >= self._serial_words else self._narrow
            word_prog = self._walk(ua, blocks)
            # A word stays active while some case in it progressed this
            # iteration AND some data bit is still unknown; compact
            # columns lazily (hysteresis) so slicing cost stays amortised.
            data_words = np.bitwise_or.reduce(ua[self._data], axis=0)
            keep = (word_prog & data_words) != 0
            nkeep = int(keep.sum())
            if nkeep == 0:
                break
            if nkeep <= (wa * 3) // 4:
                drop = ~keep
                u[:, cols[drop]] = ua[:, drop]
                cols = cols[keep]
                ua = np.ascontiguousarray(ua[:, keep])
        u[:, cols] = ua
        return rounds

    @staticmethod
    def _walk(ua: np.ndarray, blocks: list[_Block]) -> np.ndarray:
        """Peel ``blocks`` in order over ``ua`` in place, each seeing the
        nodes the ones before it solved.  Returns the OR of every
        solvable plane (nonzero: the word progressed)."""
        prog = np.zeros(ua.shape[1], np.uint64)
        rows = None
        for block in blocks:
            members = block.members
            if members is None:
                np.bitwise_or(prog, block.step(ua), out=prog)
                continue
            # One constraint on row views: no gather, no scatter.
            if rows is None:
                rows = list(ua)
                once, twice, tmp = np.empty((3, ua.shape[1]), np.uint64)
            first, second, *rest = members
            np.bitwise_or(rows[first], rows[second], out=once)
            np.bitwise_and(rows[first], rows[second], out=twice)
            for n in rest:
                np.bitwise_and(once, rows[n], out=tmp)
                np.bitwise_or(twice, tmp, out=twice)
                np.bitwise_or(once, rows[n], out=once)
            solv = np.bitwise_and(once, np.invert(twice, out=twice), out=once)
            np.bitwise_or(prog, solv, out=prog)
            keep = np.invert(solv, out=solv)
            for n in members:
                np.bitwise_and(rows[n], keep, out=rows[n])
        return prog

    def decode_batch(self, unknown: np.ndarray) -> np.ndarray:
        """Boolean success vector for a batch of boolean patterns.

        ``unknown`` is a boolean ``(batch, num_nodes)`` matrix, ``True``
        marking a lost node; packing happens internally and the array
        is not modified.
        """
        if unknown.ndim != 2 or unknown.shape[1] != self._num_nodes:
            raise ValueError(
                f"expected (batch, {self._num_nodes}) unknown matrix"
            )
        batch = unknown.shape[0]
        if batch == 0:
            return np.ones(0, dtype=bool)
        return self.decode_packed(pack_cases(unknown), batch)

    def decode_missing_sets(
        self, missing_sets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Convenience wrapper taking explicit lost-node id lists."""
        return self.decode_batch(
            missing_sets_to_unknown(missing_sets, self._num_nodes)
        )

    def decode_packed(
        self, packed: np.ndarray, batch: int | None = None
    ) -> np.ndarray:
        """Success vector for cases already in packed ``(N, W)`` form.

        ``batch`` trims the trailing pad lanes of the last word (defaults
        to ``W * 64``).  The input array is not modified.  Raises
        ``TypeError`` for words of a non-integer dtype or a non-integer
        ``batch``, before anything is peeled.  A call of at least twice
        ``_range_floor`` node-words is peeled in word ranges on the
        caller's thread and helper threads (class docstring); the
        result is the same either way.
        """
        packed = np.asarray(packed)
        if packed.ndim != 2 or packed.shape[0] != self._num_nodes:
            raise ValueError(
                f"expected ({self._num_nodes}, W) packed matrix"
            )
        if packed.dtype.kind not in "iu":
            raise TypeError(
                f"packed words must be integers, not {packed.dtype}"
            )
        w = packed.shape[1]
        batch = w * 64 if batch is None else check_count(batch, "batch")
        if batch > w * 64:
            raise ValueError(f"batch={batch} does not fit {w} words")
        if batch == 0:
            return np.ones(0, dtype=bool)

        reg = registry()
        t0 = time.perf_counter() if reg.enabled else 0.0
        ranges = 1
        if self._range_floor is not None:
            ranges = max(1, min(w, self._num_nodes * w // self._range_floor,
                                lossmasks._cpu_count()))
        bounds = [w * i // ranges for i in range(ranges + 1)]
        range_rounds = [0] * ranges
        fail_words = np.zeros(w, dtype=np.uint64)

        def peel(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            u = np.array(packed[:, lo:hi], dtype=np.uint64, copy=True)
            if self._num_cons and self._data.size:
                range_rounds[i] = self._peel(u)
            if self._data.size:
                fail_words[lo:hi] = np.bitwise_or.reduce(
                    u[self._data], axis=0
                )

        lossmasks._fan_out(range(ranges), peel)
        lanes = (
            fail_words[:, np.newaxis] >> np.arange(64, dtype=np.uint64)
        ) & np.uint64(1)
        ok = lanes.reshape(-1)[:batch] == 0

        rounds = max(range_rounds)
        reg.counter("decoder.batches").inc()
        reg.counter("decoder.cases").inc(batch)
        reg.counter(f"decoder.cases.{self.engine}").inc(batch)
        reg.counter("decoder.rounds").inc(rounds)
        if reg.enabled:
            reg.histogram("decoder.batch_size").observe(batch)
            reg.histogram("decoder.peel_rounds").observe(rounds)
            reg.histogram("decoder.decode_seconds").observe(
                time.perf_counter() - t0
            )
        return ok


class BitsetBatchDecoder(_PackedPeelingDecoder):
    """Vectorised peeling over erasure patterns packed 64 per word.

    The dense kernel: :meth:`decode_batch` / :meth:`decode_missing_sets`
    on boolean patterns, plus the packed-native :meth:`decode_packed`
    fast path used by the Monte Carlo hot loop.  Every call is peeled
    on the caller's thread, in serial sweeps while it is wide and
    parallel rounds once it is not (module docstring).
    """

    engine = "bitset"
    # Serial sweeps make one small numpy call per member row and hold
    # the GIL between them, so two threads ran them slower than one:
    # every call is one range, on the caller.
    _range_floor = None
    # Active words from which an iteration is a serial sweep: the width
    # at which a sweep and a round cost the same.
    _serial_words = 384
    # Node-words of a fused sweep call: graph 3's 42 default cells
    # make 4 calls of up to 2 816 words (docs/PERF.md, width table).
    _fused_words = 1 << 18
    # Bound in this class's own namespace: the benchmark's layer hooks
    # patch ``decode_packed`` per kernel class, not on the shared base.
    decode_packed = _PackedPeelingDecoder.decode_packed

    @staticmethod
    def _partitions(csr: CsrGraph):
        # A serial sweep walks the constraints in reverse cascade order,
        # so the checks solved near the tail feed the levels above them
        # in the same sweep (docs/PERF.md, "Serial sweeps").
        c = csr.num_constraints
        return [[i] for i in reversed(range(c))], [range(c)]
