"""Reference mask generators: the index-based code the package shipped
before :mod:`repro.core.lossmasks`.

Kept verbatim (argpartition, argsort, 64-pass lane scatter) as the
oracle that pins the historical RNG stream and output bits: every
profile, checkpoint and cache entry written by earlier versions was
produced by exactly these functions.  Do not "modernise" them.
"""

from __future__ import annotations

import numpy as np

#: Leaf width of the bounded generator at the time it was frozen.
MASK_LEAF = 1 << 12


def oracle_random_loss_masks(num_nodes, k, batch, rng):
    """Historical ``montecarlo._random_loss_masks`` (boolean)."""
    scores = rng.random((batch, num_nodes))
    idx = np.argpartition(scores, k - 1, axis=1)[:, :k]
    masks = np.zeros((batch, num_nodes), dtype=bool)
    rows = np.repeat(np.arange(batch), k)
    masks[rows, idx.ravel()] = True
    return masks


def oracle_packed_random_loss_masks(num_nodes, k, batch, rng):
    """Historical ``bitdecoder.packed_random_loss_masks`` (dense)."""
    w = max(1, (batch + 63) // 64)
    packed = np.zeros((num_nodes, w), dtype=np.uint64)
    if k == 0 or batch == 0:
        return packed
    scores = rng.random((batch, num_nodes))
    idx = np.argpartition(scores, k - 1, axis=1)[:, :k]
    for lane in range(64):
        sub = idx[lane::64]  # (cases in this lane, k)
        if sub.shape[0] == 0:
            break
        words = np.repeat(np.arange(sub.shape[0], dtype=np.intp), k)
        packed[sub.ravel(), words] |= np.uint64(1) << np.uint64(lane)
    return packed


def oracle_packed_sparse_loss_masks(num_nodes, k, batch, rng):
    """Historical ``sparse.packed_sparse_loss_masks`` (bounded)."""
    if not 0 <= k <= num_nodes:
        raise ValueError(f"k={k} outside [0, {num_nodes}]")
    w = max(1, (batch + 63) // 64)
    packed = np.zeros((num_nodes, w), dtype=np.uint64)
    if k == 0 or batch == 0:
        return packed

    leaf_sizes = np.full(
        (num_nodes + MASK_LEAF - 1) // MASK_LEAF, MASK_LEAF, dtype=np.int64
    )
    rem = num_nodes % MASK_LEAF
    if rem:
        leaf_sizes[-1] = rem
    if leaf_sizes.size == 1:
        counts = np.full((batch, 1), k, dtype=np.int64)
    else:
        counts = rng.multivariate_hypergeometric(
            leaf_sizes, k, size=batch, method="marginals"
        )

    lane_bits = np.uint64(1) << (
        np.arange(batch, dtype=np.uint64) & np.uint64(63)
    )
    lane_words = np.arange(batch, dtype=np.intp) >> 6
    for j, size in enumerate(leaf_sizes):
        c = counts[:, j]
        kmax = int(c.max())
        if kmax == 0:
            continue
        start = j * MASK_LEAF
        size = int(size)
        scores = rng.random((batch, size))
        if kmax >= size:
            cand = np.broadcast_to(
                np.arange(size, dtype=np.intp), (batch, size)
            )
            cand_scores = scores
        else:
            cand = np.argpartition(scores, kmax - 1, axis=1)[:, :kmax]
            cand_scores = np.take_along_axis(scores, cand, axis=1)
        order = np.argsort(cand_scores, axis=1, kind="stable")
        ranked = np.take_along_axis(cand, order, axis=1)
        sel = np.arange(ranked.shape[1], dtype=np.intp)[None, :] < c[:, None]
        rows, pos = np.nonzero(sel)
        nodes = start + ranked[rows, pos]
        for lane in range(64):
            m = (rows & 63) == lane
            if not m.any():
                continue
            packed[nodes[m], lane_words[rows[m]]] |= lane_bits[lane]
    return packed
