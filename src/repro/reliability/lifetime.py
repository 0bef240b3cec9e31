"""Lifetime simulation with repair: reliability beyond Table 5.

Table 5 assumes a year of failures with *no repair* — the conservative
setting where Tornado's deep worst case dominates.  Real archives
rebuild failed devices, so this module adds a discrete-event lifetime
simulator: devices fail as independent Poisson processes, repairs
complete after an (exponential) mean time to repair, and data is lost
the first time the failed set becomes unrecoverable.  Closed-form
Markov MTTDL approximations for mirrored pairs and RAID groups validate
the simulator in the tests.

Rates: a device AFR ``p`` corresponds to a failure rate
``lambda = -ln(1 - p)`` per year.  For rare-event configurations the
Monte Carlo estimate of P(loss) needs either many runs or an elevated
AFR; benches use elevated rates and compare *systems*, which preserves
ordering (the quantity the paper's analysis ranks).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.decoder import PeelingDecoder
from ..core.graph import ErasureGraph
from ..obs.seeding import SeedLike, resolve_rng
from .hazards import WeibullHazard, failure_rate_from_afr

__all__ = [
    "LifetimeConfig",
    "LifetimeResult",
    "failure_predicate_for_graph",
    "failure_predicate_for_groups",
    "simulate_lifetime",
    "mttdl_mirrored",
    "mttdl_raid",
]

FailurePredicate = Callable[[frozenset[int]], bool]


def failure_predicate_for_graph(graph: ErasureGraph) -> FailurePredicate:
    """Data-loss predicate from erasure-graph peeling."""
    decoder = PeelingDecoder(graph)

    def fails(failed: frozenset[int]) -> bool:
        return not decoder.is_recoverable(failed)

    return fails


def failure_predicate_for_groups(
    num_groups: int, group_size: int, tolerance: int
) -> FailurePredicate:
    """Data-loss predicate for independent MDS groups (RAID/mirror)."""

    def fails(failed: frozenset[int]) -> bool:
        per = [0] * num_groups
        for d in failed:
            per[d // group_size] += 1
            if per[d // group_size] > tolerance:
                return True
        return False

    return fails


@dataclass(frozen=True)
class LifetimeConfig:
    """Mission parameters for a lifetime simulation.

    Device lifetimes follow ``WeibullHazard.from_afr(afr,
    hazard_shape)``: shape 1.0 is the memoryless exponential model; <1
    models infant mortality (failures cluster early in each device's
    life), >1 wear-out.  The scale is always calibrated so the
    first-year failure probability of a fresh device equals ``afr``.
    """

    num_devices: int
    afr: float  # annual failure probability per device, in (0, 1)
    mttr_years: float  # mean time to repair one device
    mission_years: float = 10.0
    hazard_shape: float = 1.0

    def __post_init__(self) -> None:
        # Reject a bad afr or shape here, not inside simulate_lifetime.
        WeibullHazard.from_afr(self.afr, self.hazard_shape)


@dataclass(frozen=True)
class LifetimeResult:
    """Monte Carlo lifetime outcomes."""

    runs: int
    losses: int
    loss_times: tuple[float, ...]
    mission_years: float

    @property
    def p_loss(self) -> float:
        """Probability of data loss within the mission."""
        return self.losses / self.runs

    @property
    def mean_time_to_loss(self) -> float | None:
        """Mean loss time among runs that lost data (None if none did)."""
        if not self.loss_times:
            return None
        return float(np.mean(self.loss_times))

    def mttdl_estimate(self) -> float | None:
        """Crude MTTDL from the exponential-loss approximation.

        With loss count ``m`` over ``runs`` missions of ``T`` years and
        per-mission loss probability ``q = m/runs``, an exponential loss
        process gives ``MTTDL ~ -T / ln(1 - q)``.  None when no losses
        were observed.
        """
        if self.losses == 0:
            return None
        q = self.p_loss
        if q >= 1.0:
            return float(np.mean(self.loss_times))
        return -self.mission_years / math.log1p(-q)


def simulate_lifetime(
    fails: FailurePredicate,
    config: LifetimeConfig,
    n_runs: int = 200,
    rng: SeedLike = None,
) -> LifetimeResult:
    """Event-driven failure/repair simulation to first data loss.

    Each run walks one mission: every device carries a scheduled
    lifetime drawn from the configured hazard (exponential or Weibull,
    re-drawn when a replacement enters service), repairs complete after
    exponential MTTR, and the run stops at the first unrecoverable
    failed set (repair = full rebuild from the surviving redundancy,
    valid because the run stops the moment that becomes impossible).
    """
    rng = resolve_rng(rng if rng is not None else 0)
    n = config.num_devices
    hazard = WeibullHazard.from_afr(config.afr, config.hazard_shape)

    losses = 0
    loss_times: list[float] = []
    for _run in range(n_runs):
        failed: set[int] = set()
        # Event queues: scheduled device failures and repair completions.
        fail_q: list[tuple[float, int]] = [
            (hazard.sample_lifetime(rng), d) for d in range(n)
        ]
        heapq.heapify(fail_q)
        repair_q: list[tuple[float, int]] = []
        lost_at: float | None = None
        while True:
            t_fail = fail_q[0][0] if fail_q else math.inf
            t_repair = repair_q[0][0] if repair_q else math.inf
            t = min(t_fail, t_repair)
            if t > config.mission_years:
                break
            if t_repair <= t_fail:
                t, device = heapq.heappop(repair_q)
                failed.discard(device)
                # replacement device: fresh lifetime from now
                heapq.heappush(
                    fail_q, (t + hazard.sample_lifetime(rng), device)
                )
                continue
            t, device = heapq.heappop(fail_q)
            failed.add(device)
            if fails(frozenset(failed)):
                lost_at = t
                break
            heapq.heappush(
                repair_q,
                (t + rng.exponential(config.mttr_years), device),
            )
        if lost_at is not None:
            losses += 1
            loss_times.append(lost_at)
    return LifetimeResult(
        runs=n_runs,
        losses=losses,
        loss_times=tuple(loss_times),
        mission_years=config.mission_years,
    )


def mttdl_mirrored(
    num_pairs: int, afr: float, mttr_years: float
) -> float:
    """Markov-chain MTTDL for mirrored pairs (classic approximation).

    One pair: ``MTTF^2 / (2 MTTR)`` with ``MTTF = 1/lambda``; the system
    of ``num_pairs`` independent pairs divides by the pair count.  Valid
    for ``MTTR << MTTF``.
    """
    lam = failure_rate_from_afr(afr)
    pair = 1.0 / (2 * lam * lam * mttr_years)
    return pair / num_pairs


def mttdl_raid(
    num_groups: int,
    group_size: int,
    afr: float,
    mttr_years: float,
    tolerance: int = 1,
) -> float:
    """Markov-chain MTTDL for RAID5/6 groups (classic approximation).

    Tolerance 1 (RAID5): ``MTTF^2 / (g (g-1) MTTR)``; tolerance 2
    (RAID6): ``MTTF^3 / (g (g-1) (g-2) MTTR^2)``.  System MTTDL divides
    by the group count.
    """
    lam = failure_rate_from_afr(afr)
    g = group_size
    if tolerance == 1:
        group = 1.0 / (g * (g - 1) * lam * lam * mttr_years)
    elif tolerance == 2:
        group = 1.0 / (
            g * (g - 1) * (g - 2) * lam**3 * mttr_years**2
        )
    else:
        raise ValueError("closed form implemented for tolerance 1 and 2")
    return group / num_groups
