"""System reliability from failure profiles (paper §5.1, Table 5).

Reliability combines a *time-neutral* failure profile with a device
failure model.  With independent annual failure rate ``p`` per device,
the chance that exactly ``k`` of ``n`` devices fail in the period is the
binomial term (paper Eq. 2):

    P(k lost) = C(n, k) p^k (1-p)^(n-k)

and the system's probability of data loss (paper Eq. 3) sums the
conditional failure fractions over that distribution:

    P(fail) = sum_k P(fail | k lost) P(k lost)

The paper's headline Table 5 result — Tornado graphs at ~1e-9 to ~6e-10
versus 4.8e-2 for RAID5 and 4.8e-3 for mirroring at AFR 1% — follows
directly because the sum is dominated by the first-failure term, and
Tornado's first failure sits at 5 lost devices where
``P(exactly 5 fail)`` is already tiny.

With repair, :func:`mttdl` runs the same profile through a birth–death
chain over the number of failed devices and returns the mean time to
data loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Sequence

import numpy as np

from .._checks import check_seconds
from ..sim.results import FailureProfile
from .hazards import failure_rate_from_afr

__all__ = [
    "binomial_loss_pmf",
    "system_failure_probability",
    "ReliabilityEntry",
    "reliability_table",
    "afr_sweep",
    "mttdl",
]

DEFAULT_AFR = 0.01  # the paper's conservative 1% annual failure rate


def binomial_loss_pmf(num_devices: int, afr: float) -> np.ndarray:
    """P(exactly k devices lost) for k = 0..num_devices (paper Eq. 2)."""
    if not 0 <= afr <= 1:
        raise ValueError("annual failure rate must be within [0, 1]")
    if afr == 0:
        pmf = np.zeros(num_devices + 1)
        pmf[0] = 1.0
        return pmf
    if afr == 1:
        pmf = np.zeros(num_devices + 1)
        pmf[-1] = 1.0
        return pmf
    ks = np.arange(num_devices + 1)
    log_comb = np.array(
        [np.log(float(comb(num_devices, int(k)))) for k in ks]
    )
    log_p = ks * np.log(afr)
    log_q = (num_devices - ks) * np.log1p(-afr)
    return np.exp(log_comb + log_p + log_q)


def system_failure_probability(
    profile: FailureProfile, afr: float = DEFAULT_AFR
) -> float:
    """P(data loss within the period) for one system (paper Eq. 3)."""
    pmf = binomial_loss_pmf(profile.num_devices, afr)
    return float(np.dot(pmf, profile.fail_fraction))


def mttdl(profile: FailureProfile, afr: float, mttr_years: float) -> float:
    """Mean time to data loss in years, with repair.

    A birth–death chain over the number ``k`` of failed devices, the
    lifetime simulator's model: failures at rate ``lambda (n - k)``,
    independent repairs at ``k / mttr_years``.  A step to ``k + 1``
    loses data with probability ``(f(k+1) - f(k)) / (1 - f(k))`` over
    the running maximum ``f`` of the profile (failure is monotone in
    the erased set; a sampled profile need not be).  Taking a surviving
    failed set to be a uniform one is exact where all look alike (RAID5,
    mirroring), close for RAID6, and errs low for a Tornado graph.

    Forward elimination writes the expected time to loss from ``k`` as
    ``T(k) = x(k) + y(k) T(k + 1)`` and carries ``1 - y(k)`` as ``z``:
    every term stays positive, so 1e18-year answers keep the digits a
    dense solve loses.  A curve that never fails gives ``inf``.
    """
    lam = failure_rate_from_afr(afr)
    mu = 1.0 / check_seconds(mttr_years, "mttr_years")
    n = profile.num_devices
    f = np.maximum.accumulate(profile.fail_fraction).tolist()
    if f[-1] == 0:
        return inf
    if f[0] == 1:
        return 0.0
    f.append(f[-1])  # from k = n no failure arrives
    xs, ys = [], []
    x = z = 0.0  # x(k - 1) and 1 - y(k - 1)
    for k in range(n + 1):
        up, down, head = lam * (n - k), mu * k, 1.0 - f[k]
        out = up + down * z
        x = (1.0 + down * x) / out
        z = (up * (f[k + 1] - f[k]) / head + down * z) / out
        xs.append(x)
        ys.append(up * (1.0 - f[k + 1]) / head / out)
        if f[k + 1] == 1:
            break
    t = 0.0
    for x, y in zip(reversed(xs), reversed(ys)):
        t = x + y * t
    return t


@dataclass(frozen=True)
class ReliabilityEntry:
    """One Table 5 row: capacity split and annual failure probability."""

    system_name: str
    data_devices: int
    parity_devices: int
    p_fail: float

    def __str__(self) -> str:
        return (
            f"{self.system_name:<28} data={self.data_devices:>3} "
            f"parity={self.parity_devices:>3} P(fail)={self.p_fail:.4g}"
        )


def reliability_table(
    profiles: Sequence[FailureProfile], afr: float = DEFAULT_AFR
) -> list[ReliabilityEntry]:
    """Reliability entries for a set of systems, best last (Table 5)."""
    entries = [
        ReliabilityEntry(
            system_name=p.system_name,
            data_devices=p.num_data,
            parity_devices=p.num_devices - p.num_data,
            p_fail=system_failure_probability(p, afr),
        )
        for p in profiles
    ]
    return sorted(entries, key=lambda e: -e.p_fail)


def afr_sweep(
    profile: FailureProfile, afrs: Sequence[float]
) -> list[tuple[float, float]]:
    """(afr, P(fail)) pairs — sensitivity of Table 5 to the device AFR."""
    return [
        (afr, system_failure_probability(profile, afr)) for afr in afrs
    ]
