"""Monte Carlo failure profiles of federated systems (Table 7 extended).

The paper reports only the *detected first failure* of federated
configurations; this module extends the analysis to the full
fraction-failure curve, putting multi-site systems on the same axes as
the single-site Figures 3–6.

The coupled decode is itself a peeling system: the federation is one
stacked :class:`~repro.core.graph.ErasureGraph`
(:attr:`repro.federation.FederatedSystem.graph`), so the batch peeling
kernels apply unchanged through :func:`make_batch_decoder`.
"""

from __future__ import annotations

import numpy as np

from ..core.bitdecoder import packed_random_loss_masks
from ..core.decoder import make_batch_decoder
from ..obs.seeding import SeedLike, resolve_rng
from ..sim.results import FailureProfile
from .multigraph import FederatedSystem

__all__ = ["federated_profile"]


def federated_profile(
    system: FederatedSystem,
    *,
    samples_per_k: int = 4_000,
    seed: SeedLike = 0,
    ks: list[int] | None = None,
    name: str | None = None,
) -> FailureProfile:
    """Sampled ``P(data loss | k devices offline)`` for a federation.

    No exact small-``k`` head is spliced in; use
    :func:`repro.federation.federated_first_failure` (detected) or
    :func:`repro.core.critical.minimal_bad_stopping_sets` on
    ``system.graph`` (exact) for the worst-case boundary.
    """
    decoder = make_batch_decoder(system.graph)
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
        system_name=name or system.graph.name,
        num_devices=n,
        num_data=len(system.data_nodes),
        fail_fraction=np.clip(fail, 0.0, 1.0),
        samples=samples,
    )
