"""Monte Carlo failure profiles of federated systems (Table 7 extended).

The paper reports only the *detected first failure* of federated
configurations; this module extends the analysis to the full
fraction-failure curve, putting multi-site systems on the same axes as
the single-site Figures 3–6.

Vectorisation trick: the coupled two-site decode is itself a peeling
system.  Stack both sites' constraints over a 2x96-node space and add
one *equality relation* per logical data block — the block's copy at
site A, the copy at site B — because replicas of the same value let
either side recover the other.  Peeling that combined relation set to a
fixpoint is exactly the iterated decode-exchange-decode loop of
:class:`repro.federation.FederatedSystem`, so the batch peeling kernels
apply unchanged (the equivalence is asserted in the tests).
"""

from __future__ import annotations

import numpy as np

from ..core.bitdecoder import packed_random_loss_masks
from ..core.decoder import (
    BitsetBatchDecoder,
    SparseBitsetDecoder,
    make_batch_decoder_from_matrix,
)
from ..obs.seeding import SeedLike, resolve_rng
from ..sim.results import FailureProfile
from .multigraph import FederatedSystem

__all__ = ["federated_batch_decoder", "federated_profile"]


def federated_batch_decoder(
    system: FederatedSystem,
) -> BitsetBatchDecoder | SparseBitsetDecoder:
    """Batch decoder over the combined multi-site relation system.

    The kernel is the one the stacked relation matrix's node count
    selects (see :func:`repro.core.decoder.make_batch_decoder_from_matrix`).
    """
    n = system.nodes_per_site
    total = system.num_devices
    rows: list[np.ndarray] = []
    for site, graph in enumerate(system.graphs):
        base = site * n
        for con in graph.constraints:
            row = np.zeros(total, dtype=np.float32)
            for m in con.members():
                row[base + m] = 1.0
            rows.append(row)
    # Equality relations: every pair of sites sharing a data block.
    for d in system.data_nodes:
        for site_a in range(system.num_sites - 1):
            row = np.zeros(total, dtype=np.float32)
            row[site_a * n + d] = 1.0
            row[(site_a + 1) * n + d] = 1.0
            rows.append(row)
    membership = np.stack(rows)
    # Success = every logical block known somewhere; with the equality
    # relations, "site 0's copy is known" captures exactly that.
    return make_batch_decoder_from_matrix(
        membership, system.data_nodes, total
    )


def federated_profile(
    system: FederatedSystem,
    *,
    samples_per_k: int = 4_000,
    seed: SeedLike = 0,
    ks: list[int] | None = None,
    name: str | None = None,
) -> FailureProfile:
    """Sampled ``P(data loss | k devices offline)`` for a federation.

    No exact small-``k`` head is spliced in (the joint critical-set
    counting problem is open here); use
    :func:`repro.federation.federated_first_failure` for the worst-case
    boundary.
    """
    decoder = federated_batch_decoder(system)
    n = system.num_devices
    fail = np.zeros(n + 1, dtype=float)
    samples = np.zeros(n + 1, dtype=np.int64)
    fail[n] = 1.0

    rng = resolve_rng(seed)
    sample_ks = list(ks) if ks is not None else list(range(1, n))
    for k in sample_ks:
        if not 0 < k < n:
            continue
        packed = packed_random_loss_masks(n, k, samples_per_k, rng)
        ok = decoder.decode_packed(packed, samples_per_k)
        fail[k] = 1.0 - ok.mean()
        samples[k] = samples_per_k

    if ks is not None:
        known = np.union1d(np.flatnonzero(samples > 0), [0, n])
        fail = np.interp(np.arange(n + 1), known, fail[known])

    return FailureProfile(
        system_name=name
        or " + ".join(g.name for g in system.graphs),
        num_devices=n,
        num_data=len(system.data_nodes),
        fail_fraction=np.clip(fail, 0.0, 1.0),
        samples=samples,
    )
