"""Lifetime simulation with repair: reliability beyond Table 5.

Table 5 assumes a year of failures with *no repair* — the conservative
setting where Tornado's deep worst case dominates.  Real archives
rebuild failed devices, so this module adds a discrete-event lifetime
simulator: devices fail as independent Poisson processes, repairs
complete after an (exponential) mean time to repair, and data is lost
the first time the failed set becomes unrecoverable.  It is the oracle
for :func:`repro.reliability.mttdl`'s chain, which resolves the
rare-event rates that no number of simulated missions reaches.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._checks import check_count, check_seconds
from ..core.decoder import PeelingDecoder
from ..core.graph import ErasureGraph
from ..obs.seeding import SeedLike, resolve_rng
from .hazards import WeibullHazard

__all__ = [
    "LifetimeConfig",
    "LifetimeResult",
    "failure_predicate_for_graph",
    "failure_predicate_for_groups",
    "simulate_lifetime",
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
    ``mission_years`` may be ``inf``: every run then ends in a loss.
    """

    num_devices: int
    afr: float  # annual failure probability per device, in (0, 1)
    mttr_years: float  # mean time to repair one device
    mission_years: float = 10.0
    hazard_shape: float = 1.0

    def __post_init__(self) -> None:
        # Reject a bad argument here, not inside simulate_lifetime.
        check_count(self.num_devices, "num_devices", 1)
        check_seconds(self.mttr_years, "mttr_years")
        check_seconds(self.mission_years, "mission_years")
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
    check_count(n_runs, "n_runs", 1)
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
