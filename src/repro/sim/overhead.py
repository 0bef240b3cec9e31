"""Reconstruction overhead by incremental retrieval (paper §5.2 / §6).

The paper's profiling fixes the online-node count in advance and records
pass/fail, which it carefully notes is *not* the overhead metric used in
the LDPC-storage literature (Plank's methodology): "a testing system
would start with a certain number of online nodes and retrieve nodes
until the graph can be reconstructed".  This module implements exactly
that planned measurement:

* draw a random retrieval order over the graph's nodes;
* feed blocks to an incremental peeling decoder one at a time;
* record how many blocks had been *downloaded* when every data node
  became known.

``overhead = downloads / num_data`` — the paper's future-work §6 metric,
also reported with the ML decoder as the information-theoretic floor
(there, decode completes as soon as the received columns determine all
data, downloads >= num_data always, with equality iff the prefix hits an
invertible combination).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.decoder import make_batch_decoder
from ..core.graph import ErasureGraph
from ..core.mldecoder import MLDecoder
from ..obs.registry import registry
from ..obs.seeding import SeedLike, resolve_rng

__all__ = [
    "IncrementalPeeler",
    "OverheadResult",
    "measure_retrieval_overhead",
]


class IncrementalPeeler:
    """Peeling decoder fed one arriving block at a time.

    All nodes start unknown; :meth:`arrive` marks a node known and
    propagates every newly solvable constraint.  Total work across a
    full arrival sequence is O(edges).  ``data_known`` tracks progress
    toward full data recovery.
    """

    def __init__(self, graph: ErasureGraph):
        self.graph = graph
        self._members = graph.constraint_members()
        self._node_cons = graph.node_constraints()
        self._is_data = [False] * graph.num_nodes
        for d in graph.data_nodes:
            self._is_data[d] = True
        self.reset()

    def reset(self) -> None:
        self._known = [False] * self.graph.num_nodes
        # unknown-member count per constraint
        self._cnt = [len(m) for m in self._members]
        self.data_known = 0

    @property
    def complete(self) -> bool:
        return self.data_known == self.graph.num_data

    def arrive(self, node: int) -> int:
        """Deliver a block; returns how many nodes became known."""
        if self._known[node]:
            return 0
        gained = 0
        stack = [node]
        while stack:
            n = stack.pop()
            if self._known[n]:
                continue
            self._known[n] = True
            gained += 1
            if self._is_data[n]:
                self.data_known += 1
            for ci in self._node_cons[n]:
                self._cnt[ci] -= 1
                if self._cnt[ci] == 1:
                    # find the last unknown member
                    for m in self._members[ci]:
                        if not self._known[m]:
                            stack.append(m)
                            break
        return gained


@dataclass(frozen=True)
class OverheadResult:
    """Distribution of downloads-to-reconstruct over random orders."""

    graph_name: str
    num_data: int
    downloads: np.ndarray  # one entry per trial

    @property
    def mean_downloads(self) -> float:
        return float(self.downloads.mean())

    @property
    def mean_overhead(self) -> float:
        """Plank-style overhead factor: mean downloads / data count."""
        return self.mean_downloads / self.num_data

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.downloads, q))

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.downloads, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))


def _peeling_downloads_batched(
    graph: ErasureGraph,
    n_trials: int,
    rng: np.random.Generator,
    batch,
) -> np.ndarray:
    """Per-trial minimum downloads, all trials bisected in parallel.

    Peeling recovery is monotone in the arrival prefix — delivering more
    blocks never undoes progress — so the smallest prefix completing
    data recovery can be found by binary search over the prefix length,
    and the searches for *all* trials advance in lock-step through one
    batch-decoder call per bisection level (≈log2(n) decodes total
    instead of ``n_trials`` incremental peels).
    """
    n = graph.num_nodes
    if n_trials == 0:
        return np.empty(0, dtype=np.int64)
    # One permutation draw per trial, in trial order, exactly as the
    # scalar loop does — downloads stay identical on either path.
    orders = np.empty((n_trials, n), dtype=np.intp)
    for t in range(n_trials):
        orders[t] = rng.permutation(n)
    rank = np.empty_like(orders)
    rank[np.arange(n_trials)[:, None], orders] = np.arange(n)[None, :]
    # Invariant: complete(hi) holds, complete(lo - 1) does not.  The
    # full download always completes; fewer than num_data blocks never
    # can (each block carries one unit of information).
    lo = np.full(n_trials, graph.num_data, dtype=np.int64)
    hi = np.full(n_trials, n, dtype=np.int64)
    while True:
        open_ = np.flatnonzero(lo < hi)
        if open_.size == 0:
            break
        mid = (lo[open_] + hi[open_]) // 2
        unknown = rank[open_] >= mid[:, np.newaxis]
        ok = batch.decode_batch(unknown)
        hi[open_[ok]] = mid[ok]
        lo[open_[~ok]] = mid[~ok] + 1
    return lo


def measure_retrieval_overhead(
    graph: ErasureGraph,
    n_trials: int = 2_000,
    seed: SeedLike = 0,
    decoder: str = "peeling",
    *,
    engine: str = "auto",
) -> OverheadResult:
    """Blocks downloaded until reconstruction, over random orders.

    ``decoder`` selects the recovery rule: ``"peeling"`` (the Tornado
    decoder) or ``"ml"`` (GF(2) elimination; the floor, found by
    bisecting the prefix length).  ``seed`` follows the unified seeding
    convention (int or an existing :class:`numpy.random.Generator`).

    For the peeling rule, ``engine`` picks how trials are evaluated:
    ``"auto"`` batches all trials through the graph's
    :func:`~repro.core.decoder.make_batch_decoder` kernel, bisecting
    every trial's prefix length in parallel (peeling progress is
    monotone in the arrival prefix, so the bisected minimum equals the
    incremental count); ``"scalar"`` keeps the per-trial
    :class:`IncrementalPeeler` loop the batched path is tested against.
    Both draw one ``rng.permutation`` per trial, so downloads are
    identical at the same seed.
    """
    rng = resolve_rng(seed)
    if decoder not in ("peeling", "ml"):
        raise ValueError("decoder must be 'peeling' or 'ml'")
    if engine not in ("auto", "scalar"):
        raise ValueError("engine must be 'auto' or 'scalar'")

    n = graph.num_nodes
    downloads = np.empty(n_trials, dtype=np.int64)

    if decoder == "peeling" and engine != "scalar":
        batch = make_batch_decoder(graph)
        engine_label = batch.engine
        downloads = _peeling_downloads_batched(graph, n_trials, rng, batch)
    elif decoder == "peeling":
        engine_label = "scalar"
        peeler = IncrementalPeeler(graph)
        for t in range(n_trials):
            order = rng.permutation(n)
            peeler.reset()
            count = 0
            for node in order:
                count += 1
                peeler.arrive(int(node))
                if peeler.complete:
                    break
            downloads[t] = count
    else:
        engine_label = "ml"
        ml = MLDecoder(graph)
        all_nodes = np.arange(n)
        for t in range(n_trials):
            order = rng.permutation(n)
            lo, hi = graph.num_data, n
            # smallest prefix whose complement is ML-recoverable
            while lo < hi:
                mid = (lo + hi) // 2
                missing = np.setdiff1d(all_nodes, order[:mid])
                if ml.is_recoverable(missing):
                    hi = mid
                else:
                    lo = mid + 1
            downloads[t] = lo

    reg = registry()
    reg.counter("overhead.trials").inc(n_trials)
    if reg.enabled:
        reg.event(
            "overhead.measured",
            graph=graph.name,
            decoder=decoder,
            engine=engine_label,
            trials=n_trials,
            mean_downloads=(
                float(downloads.mean()) if n_trials else 0.0
            ),
        )
    return OverheadResult(
        graph_name=graph.name,
        num_data=graph.num_data,
        downloads=downloads,
    )
