"""Sparse CSR word-packed peeling: million-node graphs, 64 cases/word.

The bitset kernel (:mod:`repro.core.bitdecoder`) already packs 64 Monte
Carlo cases per ``uint64`` word, but it was built for the paper's
96-node graphs: every peeling round materialises full ``(C, W)``
bit-planes over *all* constraints, and its padded member matrix scales
with ``C * dmax``.  At 2^20 nodes both drown — a round touches half a
million constraints even when only a handful still have unknown
members.  This is the kernel
:func:`repro.core.decoder.make_batch_decoder` builds from 2^14 nodes up
(and for every :class:`~repro.core.csrgraph.CsrGraph`); below that the
bitset kernel is faster and is what it builds.

This engine keeps the same packed case layout and the same
once/twice bit-plane trick but stores the graph as flat CSR arrays
(``con_nodes`` + ``con_indptr``, degree-sorted) and exploits sparsity
three ways:

* **constraint retirement** — unknowns only ever decrease, so a
  constraint whose members are all known in every active word can never
  become solvable again; each round shrinks the active-row set and all
  later rounds scan only survivors;
* **chunked planes** — the once/twice planes are computed per bounded
  chunk of active rows, so peak plane memory is ``O(chunk * W)``
  instead of ``O(C * W)`` no matter how large the graph is;
* **sparse clearing** — only the (few) solvable constraints contribute
  to the solved-bit clear; their member edges are gathered, sorted by
  node, and applied with one segmented OR, so clear cost scales with
  the nodes actually solved, not with the edge count.

Word-level column compaction (retiring converged 64-case words) follows
the bitset kernel's policy; input validation, lane extraction and the
``decoder.*`` metrics are literally the bitset kernel's (both classes
inherit ``decode_batch`` / ``decode_missing_sets`` / ``decode_packed``
from :class:`~repro.core.bitdecoder._PackedPeelingDecoder` and supply
only ``_peel``).  Results are bit-exact between the kernels and against
the scalar decoder — the property tests assert it case for case.

Optional JIT
------------
If :mod:`numba` is importable, the per-chunk plane sweep runs through
an ``@njit``-compiled kernel (:func:`_plane_kernel`), auto-detected at
import.  Set ``REPRO_DECODE_JIT=0`` to opt out.  The pure-NumPy path is
the differential oracle: both paths execute the identical algorithm on
the identical data, consume no RNG, and must produce bit-identical
planes (the tests run the kernel in plain Python against the NumPy
sweep even when numba is absent).

Scalable mask generation
------------------------
:func:`packed_sparse_loss_masks` draws exactly-``k``-loss patterns in
packed form with bounded memory: the shared selection of
:mod:`repro.core.lossmasks` under the ``_MASK_LEAF`` leaf rule.
Per-leaf loss counts come from one vectorised
``multivariate_hypergeometric`` draw (a uniform random k-subset of
``N`` restricted to a partition is exactly multivariate
hypergeometric), then positions within each leaf are the lowest scores
of leaf-wide rows, drawn and packed a fixed-size row block at a time.
Working memory is one ~2 MiB score block plus the packed result, at
any batch and graph size, where a dense ``(batch, N)`` score matrix at
2^20 nodes would be gigabytes per draw.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

from .bitdecoder import _PackedPeelingDecoder
from .csrgraph import CsrGraph
from .lossmasks import packed_loss_masks

__all__ = [
    "SparseBitsetDecoder",
    "packed_sparse_loss_masks",
    "jit_enabled",
]

#: Max active constraint rows per once/twice plane chunk.  Bounds plane
#: memory at ``3 * chunk * W * 8`` bytes regardless of graph size.
DEFAULT_CHUNK = 1 << 15

#: Leaf width of the scalable mask generator (see module docstring).
#: Part of the generator's deterministic output — do not change lightly.
_MASK_LEAF = 1 << 12

_JIT_ENV = "REPRO_DECODE_JIT"


def _plane_kernel(ua, con_nodes, base, lens, once, twice):
    """Fill the once/twice planes for one chunk of constraint rows.

    ``base[i]``/``lens[i]`` slice row ``i``'s members out of
    ``con_nodes``; ``ua`` is the packed ``(N, W)`` unknown matrix.  On
    return ``once[i]`` has a bit set where >= 1 member of row ``i`` is
    unknown and ``twice[i]`` where >= 2 are — ``once & ~twice`` is the
    solvable plane.  Written in nopython-compatible form so the same
    source runs under numba when available and as the plain-Python
    differential oracle in the tests when it is not.
    """
    w = ua.shape[1]
    for i in range(base.shape[0]):
        b = base[i]
        first = con_nodes[b]
        for c in range(w):
            once[i, c] = ua[first, c]
            twice[i, c] = 0
        for j in range(1, lens[i]):
            node = con_nodes[b + j]
            for c in range(w):
                v = ua[node, c]
                twice[i, c] |= once[i, c] & v
                once[i, c] |= v


def _detect_jit():
    """Compile the plane kernel with numba when available and enabled."""
    if os.environ.get(_JIT_ENV, "1").strip() in ("0", "false", "no"):
        return None
    try:
        import numba
    except ImportError:
        return None
    try:
        return numba.njit(cache=False, nogil=True)(_plane_kernel)
    except Exception:  # pragma: no cover - numba present but broken
        return None


_JIT_KERNEL = _detect_jit()


def jit_enabled() -> bool:
    """True when the numba plane kernel compiled at import.

    Auto-detected: numba importable and ``REPRO_DECODE_JIT`` not set to
    ``0``.  The NumPy and JIT paths are bit-identical by construction.
    """
    return _JIT_KERNEL is not None


def packed_sparse_loss_masks(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Random exactly-``k``-loss patterns, packed, with bounded memory.

    Distributionally a uniform random ``k``-subset per case, like
    :func:`~repro.core.bitdecoder.packed_random_loss_masks`, but the
    RNG *stream* differs (documented in docs/PERF.md): this is the
    bounded leaf rule of :mod:`repro.core.lossmasks` — loss counts per
    ``_MASK_LEAF``-node leaf from one vectorised multivariate
    hypergeometric draw, then in-leaf positions from leaf-wide scores.
    Working memory beyond the packed result is one score block.
    """
    return packed_loss_masks(num_nodes, k, batch, rng, leaf=_MASK_LEAF)


class SparseBitsetDecoder(_PackedPeelingDecoder):
    """CSR word-packed peeling engine (see module docstring).

    Same :meth:`decode_batch` / :meth:`decode_missing_sets` /
    :meth:`decode_packed` surface and results as the bitset kernel
    (both inherit it from one base).  Accepts an
    :class:`~repro.core.graph.ErasureGraph` or a
    :class:`~repro.core.csrgraph.CsrGraph`.
    """

    engine = "sparse"
    # A two-range call pays from 2^17 node-words per range.
    _range_floor = 1 << 17
    # Bound in this class's own namespace: the benchmark's layer hooks
    # patch ``decode_packed`` per kernel class, not on the shared base.
    decode_packed = _PackedPeelingDecoder.decode_packed

    def __init__(self, graph, *, jit: bool | None = None,
                 chunk: int = DEFAULT_CHUNK):
        if not isinstance(chunk, numbers.Integral) or chunk < 1:
            raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
        self.graph = graph
        # A CsrGraph's arrays are adopted zero-copy (read-only ones too:
        # the decoder never writes to them).
        csr = (
            graph if hasattr(graph, "con_indptr")
            else CsrGraph.from_graph(graph)
        )
        con_indptr = np.ascontiguousarray(csr.con_indptr, dtype=np.intp)
        self._num_nodes = int(csr.num_nodes)
        lens = np.diff(con_indptr)
        starts = con_indptr[:-1]
        # Degree-descending order lets every slot sweep act on a
        # shrinking row prefix instead of a padded rectangle.
        order = np.argsort(-lens, kind="stable")
        self._base = np.ascontiguousarray(starts[order])
        self._lens = np.ascontiguousarray(lens[order])
        self._con_nodes = np.ascontiguousarray(csr.con_nodes, dtype=np.intp)
        self._num_cons = int(self._lens.size)
        self._dmax = int(self._lens[0]) if self._num_cons else 0
        self._data = np.ascontiguousarray(csr.data_nodes, dtype=np.intp)
        self._chunk = int(chunk)
        self._use_jit = (
            _JIT_KERNEL is not None if jit is None else
            bool(jit) and _JIT_KERNEL is not None
        )

    # ------------------------------------------------------------------

    def _planes_numpy(self, ua, rows, rl, once, twice):
        """Vectorised slot sweep over one degree-sorted row chunk."""
        nodes = self._con_nodes
        base = self._base[rows]
        np.copyto(once, ua[nodes[base]])
        twice[:] = 0
        dmax = int(rl[0]) if rl.size else 0
        r = rl.size
        for j in range(1, dmax):
            # rl is descending, so rows with a j-th member are a prefix.
            while r > 0 and rl[r - 1] <= j:
                r -= 1
            col = ua[nodes[base[:r] + j]]
            np.bitwise_or(twice[:r], once[:r] & col, out=twice[:r])
            np.bitwise_or(once[:r], col, out=once[:r])

    def _peel(self, u: np.ndarray) -> int:
        """Run the packed peeling fixpoint in place; returns rounds."""
        nodes = self._con_nodes
        base_all = self._base
        lens_all = self._lens
        data = self._data
        chunk = self._chunk

        data_any = np.bitwise_or.reduce(u[data], axis=0)
        cols = np.flatnonzero(data_any)
        if cols.size == 0:
            return 0
        ua = np.ascontiguousarray(u[:, cols])
        # Active rows as indices into the degree-sorted arrays; slicing
        # keeps descending-length order, so prefix sweeps stay valid.
        arows = np.arange(self._num_cons, dtype=np.intp)
        rounds = 0
        while True:
            rounds += 1
            wa = ua.shape[1]
            sol_rows_parts: list[np.ndarray] = []
            sol_vals_parts: list[np.ndarray] = []
            keep_parts: list[np.ndarray] = []
            for c0 in range(0, arows.size, chunk):
                rows = arows[c0:c0 + chunk]
                rl = lens_all[rows]
                once = np.empty((rows.size, wa), dtype=np.uint64)
                twice = np.empty_like(once)
                if self._use_jit:
                    _JIT_KERNEL(
                        ua, nodes, base_all[rows], rl, once, twice
                    )
                else:
                    self._planes_numpy(ua, rows, rl, once, twice)
                solv = once & ~twice
                alive = once.any(axis=1)
                keep_parts.append(alive)
                hit = solv.any(axis=1)
                if hit.any():
                    idx = np.flatnonzero(hit)
                    sol_rows_parts.append(rows[idx])
                    sol_vals_parts.append(solv[idx])
            if not sol_rows_parts:
                break
            sol_rows = np.concatenate(sol_rows_parts)
            sol_vals = np.concatenate(sol_vals_parts, axis=0)
            word_prog = np.bitwise_or.reduce(sol_vals, axis=0)

            # Sparse clear: only solvable constraints' member edges.
            srl = lens_all[sol_rows]
            total = int(srl.sum())
            offs = np.arange(total, dtype=np.intp)
            starts = np.zeros(sol_rows.size, dtype=np.intp)
            np.cumsum(srl[:-1], out=starts[1:])
            offs -= np.repeat(starts, srl)
            eidx = np.repeat(base_all[sol_rows], srl) + offs
            enodes = nodes[eidx]
            evals = np.repeat(sol_vals, srl, axis=0)
            evals &= ua[enodes]
            order = np.argsort(enodes, kind="stable")
            en_s = enodes[order]
            seg = np.flatnonzero(
                np.r_[True, en_s[1:] != en_s[:-1]]
            )
            clear = np.bitwise_or.reduceat(evals[order], seg, axis=0)
            ua[en_s[seg]] &= np.invert(clear, out=clear)

            # Retire constraints with no unknown members left anywhere
            # in the active words (monotone: unknowns only decrease).
            keep = np.concatenate(keep_parts)
            nkeep = int(keep.sum())
            if nkeep == 0:
                break
            if nkeep <= (arows.size * 7) // 8:
                arows = arows[keep]

            # Column compaction, identical policy to the bitset engine.
            data_words = np.bitwise_or.reduce(ua[data], axis=0)
            keepw = (word_prog & data_words) != 0
            nkeepw = int(keepw.sum())
            if nkeepw == 0:
                break
            if nkeepw <= (wa * 3) // 4:
                drop = ~keepw
                u[:, cols[drop]] = ua[:, drop]
                cols = cols[keepw]
                ua = np.ascontiguousarray(ua[:, keepw])
        u[:, cols] = ua
        return rounds
