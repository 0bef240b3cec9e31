"""Sparse CSR word-packed peeling: million-node graphs, 64 cases/word.

The bitset kernel (:mod:`repro.core.bitdecoder`) was built for the
paper's 96-node graphs: its parallel rounds peel every constraint as one
block and its serial sweeps one constraint at a time, so at 2^20 nodes
a round's planes hold half a million constraints and a sweep makes
millions of small numpy calls.  This kernel runs the same fixpoint,
:meth:`~repro.core.bitdecoder._PackedPeelingDecoder._peel`, over one
block per cascade level (``CsrGraph.level_ranges``) in reverse order —
the layered schedule of LDPC peeling decoders — split at ``chunk``
constraints, so plane memory is ``O(chunk * W)`` at any graph size.
The final stage is peeled first, and the checks it solves feed the
levels above it within the same iteration.  A graph without level
metadata is one block.  It is what
:func:`repro.core.decoder.make_batch_decoder` builds from 2^14 nodes up
and for every :class:`~repro.core.csrgraph.CsrGraph`; below that the
bitset kernel is faster.  Results are bit-exact between the kernels and
against the scalar decoder — the property tests assert it case for
case.

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

import numpy as np

from .._checks import check_count
from .bitdecoder import DEFAULT_CHUNK, _PackedPeelingDecoder
from .csrgraph import CsrGraph
from .lossmasks import packed_loss_masks

__all__ = [
    "SparseBitsetDecoder",
    "packed_sparse_loss_masks",
    "jit_enabled",
]

#: Leaf width of the scalable mask generator (see module docstring).
#: Part of the generator's deterministic output — do not change lightly.
_MASK_LEAF = 1 << 12


def jit_enabled() -> bool:
    """Always ``False``: there is no compiled kernel.  Kept for the
    benchmark harness, whose run records carry the field."""
    return False


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
    :class:`~repro.core.csrgraph.CsrGraph`.  ``chunk`` caps a block's
    constraints.  ``jit`` is kept for the benchmark harness only: there
    is no compiled kernel, so a true value raises ``ValueError``.
    """

    engine = "sparse"
    # A two-range call pays from 2^17 node-words per range.
    _range_floor = 1 << 17
    # Level sweeps at every width.
    _serial_words = 0
    # Bound in this class's own namespace: the benchmark's layer hooks
    # patch ``decode_packed`` per kernel class, not on the shared base.
    decode_packed = _PackedPeelingDecoder.decode_packed

    def __init__(self, graph, *, jit: bool | None = None,
                 chunk: int = DEFAULT_CHUNK):
        if jit:
            raise ValueError(f"there is no compiled kernel: jit={jit!r}")
        self._chunk = check_count(chunk, "chunk", 1)
        super().__init__(graph)

    @staticmethod
    def _partitions(csr: CsrGraph):
        levels = csr.level_ranges or ((0, csr.num_constraints),)
        sweep = [range(lo, hi) for lo, hi in reversed(levels)]
        return sweep, sweep
