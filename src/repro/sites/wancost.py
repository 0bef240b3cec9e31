"""WAN cost model for federated reads.

A federation's read path is a priced ladder.  Serving from the
object's home site moves zero wide-area bytes; falling back to a full
remote fetch moves ``size`` bytes; the coupled cross-site decode —
pulling every surviving raw block from every reachable site and
peeling the graphs jointly — moves roughly ``2 x size`` per remote
site, because each site stores data *and* check blocks.  The gateway
therefore walks the ladder cheapest-first, and this module is the
shared arithmetic: :class:`WanCostModel` prices a candidate path, and
:func:`estimate_wan_read_cost` Monte-Carlo samples the *expected* WAN
bytes per read at a given device-loss level — the analytical curve the
federation benchmarks plot next to the measured gateway counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .._checks import check_seconds
from ..core.decoder import PeelingDecoder
from ..federation.multigraph import FederatedSystem

__all__ = ["WanCostModel", "WanReadEstimate", "estimate_wan_read_cost"]


@dataclass(frozen=True)
class WanCostModel:
    """Relative prices for the three read paths.

    ``remote_byte_cost`` scales every wide-area byte; ``local`` reads
    are free by definition.  Costs are unitless (bytes by default) so
    the same model prices both byte meters and billing-style weights.
    """

    remote_byte_cost: float = 1.0

    def __post_init__(self) -> None:
        check_seconds(self.remote_byte_cost, "remote_byte_cost", zero=True)

    def local_read(self) -> float:
        return 0.0

    def remote_read(self, object_size: int) -> float:
        """Full-object fetch from one remote site."""
        return self.remote_byte_cost * object_size

    def coupled_read(self, remote_block_bytes: int) -> float:
        """Coupled decode: every surviving remote block crosses the WAN."""
        return self.remote_byte_cost * remote_block_bytes


@dataclass(frozen=True)
class WanReadEstimate:
    """Monte-Carlo estimate of WAN read cost at one loss level."""

    k: int
    samples: int
    mean_wan_bytes: float
    path_fractions: dict[str, float]  # local / remote / coupled / lost


def estimate_wan_read_cost(
    system: FederatedSystem,
    k: int,
    *,
    object_size: int,
    samples: int = 200,
    seed: int = 0,
    model: WanCostModel | None = None,
) -> WanReadEstimate:
    """Expected WAN bytes per read with ``k`` devices lost fleet-wide.

    Devices are sampled uniformly without replacement across the whole
    federation; the object is homed at site 0.  Each sample is walked
    down the gateway's ladder: local decode (0 bytes), any single
    remote site decoding alone (``size`` bytes), coupled decode (every
    surviving remote block crosses the WAN), or lost.
    """
    if not 0 <= k <= system.num_devices:
        raise ValueError(f"k must be in [0, {system.num_devices}]")
    model = model or WanCostModel()
    num_data = len(system.data_nodes)
    block_bytes = object_size / num_data if num_data else 0.0
    decoders = [PeelingDecoder(g) for g in system.graphs]
    rng = np.random.default_rng(seed)
    paths = {"local": 0, "remote": 0, "coupled": 0, "lost": 0}
    total_cost = 0.0
    for _ in range(samples):
        devices = rng.choice(system.num_devices, size=k, replace=False)
        per_site = _per_site_missing(system, devices)
        if decoders[0].decode(per_site[0]).success:
            paths["local"] += 1
            total_cost += model.local_read()
            continue
        if any(
            decoders[s].decode(per_site[s]).success
            for s in range(1, system.num_sites)
        ):
            paths["remote"] += 1
            total_cost += model.remote_read(object_size)
            continue
        if system.is_recoverable(devices):
            paths["coupled"] += 1
            surviving_remote = sum(
                system.nodes_per_site - len(per_site[s])
                for s in range(1, system.num_sites)
            )
            total_cost += model.coupled_read(
                int(round(surviving_remote * block_bytes))
            )
        else:
            paths["lost"] += 1
    return WanReadEstimate(
        k=k,
        samples=samples,
        mean_wan_bytes=total_cost / samples if samples else 0.0,
        path_fractions={
            name: count / samples if samples else 0.0
            for name, count in paths.items()
        },
    )


def _per_site_missing(
    system: FederatedSystem, devices: Iterable[int]
) -> list[set[int]]:
    per_site: list[set[int]] = [set() for _ in range(system.num_sites)]
    for dev in devices:
        site, local = system.site_of(int(dev))
        per_site[site].add(local)
    return per_site
