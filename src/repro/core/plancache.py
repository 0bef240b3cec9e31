"""LRU cache of peeling-decode plans keyed by (graph hash, erasure mask).

Planning — running the peeling decoder to a fixpoint to obtain the
recovery schedule — is the CPU-bound step the serving layer repeats for
every reconstruction, yet under steady damage the erasure mask barely
changes between requests: a 96-device shelf with three failed drives
presents the same mask to every stripe read until the repair process
moves.  The cache exploits that: the schedule for a (graph, mask) pair
is computed once and replayed (pure XOR, see
:meth:`repro.core.codec.TornadoCodec.decode_blocks_with_schedule`) for
every batched request that hits the same pattern.  It is the only
scheduler of byte decoding: every :class:`~repro.core.codec.TornadoCodec`
plans through the cache its owner hands it (or one of its own), so the
in-process archive, the service, the coordinator and the gateway all
take their schedule from :meth:`PlanCache.schedule`.

The graph participates in the key as a structural SHA-256 digest (same
convention as :class:`repro.analysis.cache.ProfileCache`), so two
services over different graphs can share a cache without collisions,
and a regenerated graph with the same name never reuses stale plans.

``capacity=0`` disables caching entirely — every call plans from
scratch — which is the honest "unbatched" baseline the serving
benchmark compares against.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable

from .._checks import check_count
from .decoder import DecodeResult, PeelingDecoder
from .graph import ErasureGraph

__all__ = ["PlanCache", "graph_key"]


def graph_key(graph: ErasureGraph) -> str:
    """Structural digest of a graph (nodes + constraints), hex string."""
    return hashlib.sha256(
        repr(
            (graph.num_nodes, graph.data_nodes, graph.constraints)
        ).encode()
    ).hexdigest()[:16]


class PlanCache:
    """LRU store of decode schedules keyed by (graph hash, erasure mask).

    Parameters
    ----------
    capacity:
        Maximum cached plans; least-recently-used plans are evicted
        beyond it.  ``0`` disables caching (and decoder reuse), which
        models a service that plans every request from scratch.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = check_count(capacity, "capacity")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._plans: OrderedDict[tuple[str, tuple[int, ...]], DecodeResult]
        self._plans = OrderedDict()
        # graph-identity memo: id -> (pinned graph, digest); pinning the
        # graph object keeps the id stable for the memo's lifetime
        self._graph_keys: dict[int, tuple[ErasureGraph, str]] = {}
        self._decoders: dict[str, PeelingDecoder] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def _graph_key(self, graph: ErasureGraph) -> str:
        memo = self._graph_keys.get(id(graph))
        if memo is not None and memo[0] is graph:
            return memo[1]
        digest = graph_key(graph)
        self._graph_keys[id(graph)] = (graph, digest)
        return digest

    def schedule(
        self, graph: ErasureGraph, missing: Iterable[int]
    ) -> DecodeResult:
        """The peeling schedule for ``missing`` nodes of ``graph``.

        Returns the full :class:`~repro.core.decoder.DecodeResult`
        (``success``, ``steps``, ``residual``); callers replay
        ``steps`` on block contents.  Failed plans are cached too — a
        mask that cannot decode now will not decode until availability
        changes, and re-planning it per request would defeat the cache
        exactly when the service is most loaded.
        """
        mask = tuple(sorted(int(m) for m in missing))
        if self.capacity == 0:
            self.misses += 1
            return PeelingDecoder(graph).decode(mask)
        gkey = self._graph_key(graph)
        key = (gkey, mask)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        decoder = self._decoders.get(gkey)
        if decoder is None:
            decoder = self._decoders[gkey] = PeelingDecoder(graph)
        result = decoder.decode(mask)
        self._plans[key] = result
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1
        return result

    def clear(self) -> None:
        """Drop every cached plan (e.g. after a repair changed masks)."""
        self._plans.clear()
        self._decoders.clear()
        self._graph_keys.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._plans),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
