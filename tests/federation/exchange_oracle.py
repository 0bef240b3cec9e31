"""The paper-literal decode-exchange-decode loop (§5.3), as an oracle.

This is the coupled decode exactly as the paper describes it — each
site peels its own graph with its surviving local blocks, recovered
data blocks are exchanged, peeling resumes, to fixpoint — and exactly
as ``FederatedSystem.decode`` implemented it before the federation
became one stacked :class:`~repro.core.graph.ErasureGraph`.  It lives
with the tests as the independent reference the stacked peel is
differentially checked against; nothing in ``src/`` calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.decoder import PeelingDecoder
from repro.federation import FederatedSystem


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of a coupled multi-site decode."""

    success: bool
    lost_data: frozenset[int]
    rounds: int
    recovered_per_site: tuple[int, ...]


class ExchangeOracle:
    """Per-site peeling decoders coupled by data-block exchange."""

    def __init__(self, system: FederatedSystem):
        self.system = system
        self.num_sites = system.num_sites
        self.data_nodes = system.data_nodes
        self._decoders = [PeelingDecoder(g) for g in system.graphs]

    def decode(self, missing_devices: Iterable[int]) -> ExchangeResult:
        """Coupled decode with cross-site data-block exchange.

        Iterates site-local peeling and data exchange to fixpoint; at
        most ``num_sites * num_data`` rounds, in practice two or three.
        """
        per_site_missing: list[set[int]] = [
            set() for _ in range(self.num_sites)
        ]
        for dev in missing_devices:
            site, local = self.system.site_of(dev)
            per_site_missing[site].add(local)

        known_data: set[int] = set()
        # Data nodes already online somewhere need no decoding at all.
        for site in range(self.num_sites):
            for d in self.data_nodes:
                if d not in per_site_missing[site]:
                    known_data.add(d)

        recovered_counts = [0] * self.num_sites
        rounds = 0
        while True:
            rounds += 1
            progressed = False
            for site, decoder in enumerate(self._decoders):
                # A data block recovered anywhere is available here too.
                effective_missing = {
                    m
                    for m in per_site_missing[site]
                    if m not in known_data
                }
                result = decoder.decode(effective_missing)
                # Everything not in the residual is known after peeling.
                solved_data = {
                    d
                    for d in self.data_nodes
                    if d not in known_data and d not in result.residual
                }
                if solved_data:
                    known_data.update(solved_data)
                    recovered_counts[site] += len(solved_data)
                    progressed = True
            if not progressed:
                break

        lost = frozenset(set(self.data_nodes) - known_data)
        return ExchangeResult(
            success=not lost,
            lost_data=lost,
            rounds=rounds,
            recovered_per_site=tuple(recovered_counts),
        )

    def is_recoverable(self, missing_devices: Iterable[int]) -> bool:
        return self.decode(missing_devices).success
