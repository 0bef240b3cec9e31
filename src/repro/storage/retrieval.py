"""Guided retrieval: minimising devices accessed per reconstruction.

The paper's §6 future work: "guided search techniques to minimize the
number of devices accessed to reconstruct an encoded stripe".  In a MAID
system every extra device touched is a spin-up, so the planner should
fetch a *decodable* subset, not everything.

Three strategies are implemented over a stripe placement and a device
availability mask:

* ``plan_all`` — fetch every available block (the naive baseline);
* ``plan_data_first`` — fetch available data blocks, then add check
  blocks one at a time (in id order) until the acquired set decodes;
* ``plan_guided`` — data blocks first, then greedily add the check
  whose constraint is closest to useful (most members already acquired),
  which unlocks peeling progress with the fewest additional devices.

Plans are validated by actually peeling: a plan is returned only if the
un-acquired nodes form a recoverable erasure pattern.

Degraded mode: ``FALLBACK_CHAIN`` orders them guided → data-first →
all.  :meth:`repro.storage.TornadoArchive.get` with ``retry=`` is the
one place the chain is walked: each pass takes the first plan that
decodes, and the retry policy re-runs the pass after a backoff, so
transiently-unavailable devices recover into the plan instead of
failing the read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.decoder import PeelingDecoder
from ..core.graph import ErasureGraph
from .stripe import StripeMap

__all__ = [
    "RetrievalPlan",
    "FALLBACK_CHAIN",
    "plan_all",
    "plan_data_first",
    "plan_guided",
]


@dataclass(frozen=True)
class RetrievalPlan:
    """A set of graph nodes to fetch, plus provenance."""

    strategy: str
    nodes: tuple[int, ...]
    devices: tuple[int, ...]
    decodable: bool

    @property
    def device_count(self) -> int:
        return len(self.devices)


def _finalise(
    strategy: str,
    graph: ErasureGraph,
    placement: StripeMap,
    acquired: set[int],
) -> RetrievalPlan:
    decoder = PeelingDecoder(graph)
    missing = [n for n in range(graph.num_nodes) if n not in acquired]
    ok = decoder.is_recoverable(missing)
    nodes = tuple(sorted(acquired))
    return RetrievalPlan(
        strategy=strategy,
        nodes=nodes,
        devices=tuple(placement.device_of[n] for n in nodes),
        decodable=ok,
    )


def plan_all(
    graph: ErasureGraph, placement: StripeMap, available: np.ndarray
) -> RetrievalPlan:
    """Fetch every available block (baseline: maximum spin-ups)."""
    present = placement.present_mask(available)
    acquired = set(np.flatnonzero(present).tolist())
    return _finalise("all-available", graph, placement, acquired)


def plan_data_first(
    graph: ErasureGraph, placement: StripeMap, available: np.ndarray
) -> RetrievalPlan:
    """Fetch data blocks, then checks in id order until decodable."""
    present = placement.present_mask(available)
    decoder = PeelingDecoder(graph)
    acquired = {d for d in graph.data_nodes if present[d]}

    def decodable() -> bool:
        missing = [n for n in range(graph.num_nodes) if n not in acquired]
        return decoder.is_recoverable(missing)

    if not decodable():
        for node in graph.check_nodes:
            if present[node] and node not in acquired:
                acquired.add(node)
                if decodable():
                    break
    return _finalise("data-first", graph, placement, acquired)


def plan_guided(
    graph: ErasureGraph, placement: StripeMap, available: np.ndarray
) -> RetrievalPlan:
    """Greedy guided search with one-step decode lookahead.

    Each round peels from the currently acquired set, then scores every
    available-but-unfetched check by how many *additional* nodes peeling
    would reach if it were fetched, preferring candidates that unlock
    missing data nodes.  With all data present this plan touches exactly
    the data devices; under damage it converges on a near-minimal fetch
    set at the cost of one trial decode per candidate per round.
    """
    present = placement.present_mask(available)
    decoder = PeelingDecoder(graph)
    acquired = {d for d in graph.data_nodes if present[d]}
    data = set(graph.data_nodes)

    def missing_from(have: set[int]) -> list[int]:
        return [n for n in range(graph.num_nodes) if n not in have]

    while not decoder.is_recoverable(missing_from(acquired)):
        candidates = [
            n
            for n in graph.check_nodes
            if present[n] and n not in acquired
        ]
        if not candidates:
            break  # plan cannot decode; caller sees decodable=False
        base = decoder.decode(missing_from(acquired))
        base_data = sum(
            1 for d in data if d in acquired or d not in base.residual
        )

        def gain(node: int) -> tuple[int, int, int]:
            trial = decoder.decode(missing_from(acquired | {node}))
            got_data = sum(
                1
                for d in data
                if d in acquired or d not in trial.residual
            )
            return (got_data - base_data, len(trial.steps), -node)

        acquired.add(max(candidates, key=gain))
    return _finalise("guided", graph, placement, acquired)


FALLBACK_CHAIN = (plan_guided, plan_data_first, plan_all)
