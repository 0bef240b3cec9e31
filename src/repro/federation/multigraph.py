"""Multi-graph federated archival storage (paper §5.3, Table 7).

Two (or more) sites replicate the same 48 data blocks, each protecting
them with its *own* Tornado Code graph.  Decoding couples the sites:
each site peels with its surviving local blocks, recovered data blocks
are exchanged, and peeling resumes — "restoring just one critical data
node allows the data graph to be reconstructed even when both graphs
cannot independently perform the reconstruction".  A replica is a
degree-1 check, so that loop is the peeling fixpoint of one stacked
:class:`ErasureGraph` (:attr:`FederatedSystem.graph`), and the model,
the Monte Carlo and the gateway's coupled read all decode that graph.

First-failure search follows the paper's methodology: brute force over
192+ devices is hopeless, so candidate loss patterns are *constructed
from the known failure cases* of the component graphs — the minimal bad
stopping sets that the worst-case analysis already produced.  A joint
failure needs some data node unrecoverable at every site
simultaneously, so candidates pair per-data-node critical sets across
sites; the reported number is a detected first failure, exactly as in
the paper's Table 7 ("First Failure Detected").
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from ..core.critical import minimal_bad_stopping_sets
from ..core.decoder import DecodeResult, PeelingDecoder
from ..core.graph import Constraint, ErasureGraph

__all__ = [
    "FederatedSystem",
    "federated_first_failure",
]


def _stacked_graph(graphs: Sequence[ErasureGraph]) -> ErasureGraph:
    """The whole federation as one cascaded :class:`ErasureGraph`.

    Node ``s * n + i`` is site ``s``'s node ``i``; the data nodes are
    site 0's.  Site ``s``'s replica of data block ``d`` is a degree-1
    check of site ``s - 1``'s copy (how :mod:`repro.graphs.mirror`
    expresses mirroring), one cascade level per extra site, and every
    site's own constraints follow, shifted into its node range.
    Peeling this graph to fixpoint *is* the decode-exchange-decode
    loop: the replica checks carry a data block recovered at one site
    to every other.
    """
    n = graphs[0].num_nodes
    data = graphs[0].data_nodes
    constraints: list[Constraint] = []
    levels: list[tuple[int, ...]] = []

    def add_level(base: int, cons: Iterable[Constraint]) -> None:
        """Append ``cons``, shifted up ``base`` node ids, as one level."""
        first = len(constraints)
        constraints.extend(
            Constraint(base + c.check, tuple(base + l for l in c.lefts))
            for c in cons
        )
        levels.append(tuple(range(first, len(constraints))))

    replica = [Constraint(n + d, (d,)) for d in data]  # next site's copy
    for site in range(len(graphs) - 1):
        add_level(site * n, replica)
    for site, graph in enumerate(graphs):
        for level in graph.levels:
            add_level(site * n, (graph.constraints[ci] for ci in level))
    return ErasureGraph(
        num_nodes=len(graphs) * n,
        data_nodes=data,
        constraints=tuple(constraints),
        levels=tuple(levels),
        name=" + ".join(g.name for g in graphs),
    )


class FederatedSystem:
    """Sites replicating the same data under different erasure graphs.

    All site graphs must share the data-node id convention (data nodes
    ``0..num_data-1`` are the same logical blocks at every site).
    Device ids are global: site ``s`` owns devices
    ``[s * num_nodes, (s+1) * num_nodes)``.  ``graph`` is the whole
    federation as one :class:`ErasureGraph` over those device ids (see
    :func:`_stacked_graph`); the scalar decoder, the batch kernels, the
    codec and the exact critical-set search all apply to it unchanged.
    """

    def __init__(self, graphs: Sequence[ErasureGraph]):
        if len(graphs) < 2:
            raise ValueError("federation needs at least two sites")
        first = graphs[0]
        for g in graphs[1:]:
            if g.data_nodes != first.data_nodes:
                raise ValueError("sites must share the data-node layout")
            if g.num_nodes != first.num_nodes:
                raise ValueError("sites must have equal device counts")
        self.graphs = tuple(graphs)
        self.num_sites = len(graphs)
        self.nodes_per_site = first.num_nodes
        self.data_nodes = first.data_nodes
        self.graph = _stacked_graph(self.graphs)
        self._decoder = PeelingDecoder(self.graph)

    @property
    def num_devices(self) -> int:
        return self.num_sites * self.nodes_per_site

    # ------------------------------------------------------------------

    def site_of(self, device: int) -> tuple[int, int]:
        """Map a global device id to (site, local node id)."""
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range")
        return divmod(device, self.nodes_per_site)

    def decode(self, missing_devices: Iterable[int]) -> DecodeResult:
        """Coupled decode with cross-site data-block exchange.

        One peel of the stacked :attr:`graph`.  The lost logical
        blocks are ``result.residual & set(system.data_nodes)``: site
        0's copy stays unknown exactly when every site's copy does.
        """
        return self._decoder.decode(missing_devices)

    def is_recoverable(self, missing_devices: Iterable[int]) -> bool:
        return self._decoder.is_recoverable(missing_devices)


@lru_cache(maxsize=32)
def _signature_catalog(
    graph: ErasureGraph, max_size: int
) -> dict[frozenset[int], frozenset[int]]:
    """Smallest critical set per *data signature*, within ``max_size``.

    The data signature of a critical set is the set of data nodes it
    makes unrecoverable.  Cached per (graph, bound): federated pair
    studies reuse each graph across several pairings, and the
    stopping-set enumeration is the expensive part.
    """
    data = set(graph.data_nodes)
    best: dict[frozenset[int], frozenset[int]] = {}
    for s in minimal_bad_stopping_sets(graph, max_size=max_size):
        sig = frozenset(s & data)
        if sig not in best or len(s) < len(best[sig]):
            best[sig] = s
    return best


def federated_first_failure(
    system: FederatedSystem,
    *,
    site_max_size: int = 8,
    verify_budget: int = 20_000,
) -> tuple[int, tuple[int, ...]] | None:
    """Detected first failure of a two-site federation (paper Table 7).

    As in the paper, candidates come from the component graphs' known
    failure cases rather than brute force over 192 devices: each site's
    minimal critical sets (up to ``site_max_size``) are grouped by data
    signature, and a candidate loses one critical set at each site.

    Joint recovery dynamics prune the pairing:

    * **Equal signatures** are guaranteed joint failures — each site is
      stuck on exactly the data nodes the other site also lost, so the
      exchange has nothing to offer.
    * **Overlapping signatures** may or may not fail after exchange, so
      they are verified through the coupled decoder (smallest first,
      bounded by ``verify_budget`` decodes).
    * Disjoint signatures always recover (each site's stuck data is
      supplied by the other) and are skipped.

    Returns ``(device_count, device_ids)`` for the smallest detected
    failure, or ``None`` within the bound.  Like the paper's Table 7,
    this is a *detected* first failure — an upper bound on the truth.
    """
    if system.num_sites != 2:
        raise ValueError(
            "seeded first-failure search is defined for two sites"
        )
    cat_a = _signature_catalog(system.graphs[0], site_max_size)
    cat_b = _signature_catalog(system.graphs[1], site_max_size)

    # Index signatures by data node for overlap pairing.
    by_node_b: dict[int, list[frozenset[int]]] = {}
    for sig in cat_b:
        for d in sig:
            by_node_b.setdefault(d, []).append(sig)

    seen_pairs: set[tuple[frozenset[int], frozenset[int]]] = set()
    guaranteed: list[tuple[int, frozenset[int], frozenset[int]]] = []
    to_verify: list[tuple[int, frozenset[int], frozenset[int]]] = []
    for sig_a, set_a in cat_a.items():
        partners = {
            sig_b for d in sig_a for sig_b in by_node_b.get(d, ())
        }
        for sig_b in partners:
            key = (sig_a, sig_b)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            set_b = cat_b[sig_b]
            total = len(set_a) + len(set_b)
            if sig_a == sig_b:
                guaranteed.append((total, set_a, set_b))
            else:
                to_verify.append((total, set_a, set_b))

    best_guaranteed = min(guaranteed, default=None)

    def devices_of(set_a: frozenset[int], set_b: frozenset[int]):
        n = system.nodes_per_site
        return tuple(sorted(list(set_a) + [n + x for x in set_b]))

    # Verify overlapping pairs that could beat the guaranteed bound.
    bound = best_guaranteed[0] if best_guaranteed else 1 << 30
    to_verify.sort(key=lambda t: t[0])
    checked = 0
    for total, set_a, set_b in to_verify:
        if total >= bound or checked >= verify_budget:
            break
        checked += 1
        devices = devices_of(set_a, set_b)
        if not system.is_recoverable(devices):
            return total, devices

    if best_guaranteed is not None:
        total, set_a, set_b = best_guaranteed
        return total, devices_of(set_a, set_b)
    return None
