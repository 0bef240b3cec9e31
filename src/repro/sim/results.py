"""Failure profiles: the paper's central measurement object.

A :class:`FailureProfile` stores ``P(reconstruction fails | k devices
offline)`` for every ``k`` — the quantity plotted in the paper's
Figures 3–6 — together with how each point was obtained (exact count or
Monte Carlo sample size).  From it derive every scalar the paper's
tables report:

* **first failure** — smallest ``k`` with nonzero failure probability
  (Tables 1–4 "First Failure");
* **average number of nodes capable of reconstructing** — the expected
  online-node threshold (Tables 1–4 "Average to Reconstruct"), computed
  as ``E[T] = sum_o (1 - S(o))`` where ``S(o)`` is the monotonised
  success probability with ``o`` nodes online;
* **nodes for 50% reconstruction** and the resulting **overhead**
  (Table 6).

Profiles serialise to JSON so expensive simulations can be cached and
reused by the benchmark harness.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["FailureProfile"]


@dataclass(frozen=True)
class FailureProfile:
    """``P(fail | k offline)`` for ``k = 0..num_devices``.

    ``samples[k]`` is the Monte Carlo sample count behind point ``k``;
    0 = exact: an analytic formula, the head (complete enumeration /
    inclusion–exclusion count) or the tail (counting bound: more than
    ``num_devices - num_data`` offline always fails).
    """

    system_name: str
    num_devices: int
    num_data: int
    fail_fraction: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        ff = np.asarray(self.fail_fraction, dtype=float)
        ss = np.asarray(self.samples, dtype=np.int64)
        n = self.num_devices
        if ff.shape != (n + 1,) or ss.shape != (n + 1,):
            raise ValueError(
                f"profile arrays must have length num_devices+1={n + 1}"
            )
        if ((ff < 0) | (ff > 1)).any():
            raise ValueError("failure fractions must lie in [0, 1]")
        object.__setattr__(self, "fail_fraction", ff)
        object.__setattr__(self, "samples", ss)

    @property
    def coverage(self) -> np.ndarray:
        """All True: no sweep leaves a cell unmeasured.  Read only by
        ``perf/sweeps.py``, which checks it."""
        return np.ones(self.num_devices + 1, dtype=bool)

    # ------------------------------------------------------------------
    # Scalar metrics (paper tables)
    # ------------------------------------------------------------------

    def first_failure(self) -> int | None:
        """Smallest k with nonzero observed failure probability."""
        nz = np.flatnonzero(self.fail_fraction > 0)
        return int(nz[0]) if nz.size else None

    def success_by_online(self) -> np.ndarray:
        """Monotone success probability ``S(o)`` for o = 0..num_devices.

        ``S(o) = 1 - P(fail | num_devices - o offline)``, forced
        non-decreasing (losing fewer devices can only help; Monte Carlo
        noise can violate this by epsilons).
        """
        s = 1.0 - self.fail_fraction[::-1]
        return np.maximum.accumulate(s)

    def average_nodes_to_reconstruct(self) -> float:
        """Expected minimum online-node count for success (Tables 1–4).

        Treats ``S(o)`` as the CDF of the online threshold ``T`` and
        returns ``E[T] = sum_{o=0}^{n-1} (1 - S(o))``.
        """
        s = self.success_by_online()
        return float(np.sum(1.0 - s[:-1]))

    def average_overhead(self) -> float:
        """Average threshold relative to the data-node count."""
        return self.average_nodes_to_reconstruct() / self.num_data

    def average_nodes_capable(
        self,
        ks: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> float:
        """Mean online count among successful battery cases (Tables 1–4).

        The paper's "average number of nodes capable of reconstructing
        the data" averages, over its Monte Carlo battery, the online-node
        count of the test cases that succeeded.  The battery sampled
        ``k = 5..48`` offline devices with sample counts growing from
        ~10M to ~34M; the default reproduces that design (linear weight
        ramp over ``k = 5 .. num_devices/2``).  Note this is *not* the
        reconstruction overhead (§4 caveat in the paper) — it counts
        cases where fewer nodes would also have sufficed.
        """
        n = self.num_devices
        if ks is None:
            ks = np.arange(5, n // 2 + 1)
        ks = np.asarray(ks, dtype=int)
        if weights is None:
            # Paper §3: 10M cases at the smallest k rising to 34M at the
            # largest; only the relative ramp matters here.
            weights = np.linspace(10.0, 34.0, len(ks))
        weights = np.asarray(weights, dtype=float)
        success = 1.0 - self.fail_fraction[ks]
        mass = weights * success
        if mass.sum() <= 0:
            return float(n)
        online = n - ks
        return float(np.dot(mass, online) / mass.sum())

    def average_capable_overhead(self) -> float:
        """:meth:`average_nodes_capable` relative to the data count."""
        return self.average_nodes_capable() / self.num_data

    def nodes_for_success_probability(self, p: float = 0.5) -> int:
        """Smallest online count with success probability >= ``p``.

        Table 6's "nodes required for 50% probability reconstruction".
        """
        if not 0 < p <= 1:
            raise ValueError("p must be in (0, 1]")
        s = self.success_by_online()
        idx = np.flatnonzero(s >= p)
        if idx.size == 0:  # pragma: no cover - all-online always succeeds
            return self.num_devices
        return int(idx[0])

    def overhead_at_probability(self, p: float = 0.5) -> float:
        """Table 6 overhead: 50%-threshold node count over data count."""
        return self.nodes_for_success_probability(p) / self.num_data

    def confidence_interval(
        self, k: int, z: float = 1.96
    ) -> tuple[float, float]:
        """Wilson score interval for the failure fraction at ``k``.

        Exact entries (``samples[k] == 0``) return a zero-width interval.
        The default ``z`` gives 95% coverage.  Useful for judging whether
        two systems' curves are statistically separated at a point — the
        paper's 10M+ samples made this moot; at laptop budgets it is not.
        """
        n = int(self.samples[k])
        p = float(self.fail_fraction[k])
        if n == 0:
            return (p, p)
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = (
            z
            * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
            / denom
        )
        return (max(0.0, centre - half), min(1.0, centre + half))

    # ------------------------------------------------------------------
    # Composition and persistence
    # ------------------------------------------------------------------

    def with_exact_head(
        self, exact: Mapping[int, float]
    ) -> "FailureProfile":
        """Overwrite small-k entries with exact values.

        Monte Carlo cannot resolve probabilities around 1e-7 (the
        adjusted graphs' k=5 tail), so profiles combine sampled bulk
        with exact inclusion–exclusion counts for small ``k``.
        """
        ff = self.fail_fraction.copy()
        ss = self.samples.copy()
        for k, v in exact.items():
            ff[k] = v
            ss[k] = 0
        return FailureProfile(
            system_name=self.system_name,
            num_devices=self.num_devices,
            num_data=self.num_data,
            fail_fraction=ff,
            samples=ss,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "system_name": self.system_name,
                "num_devices": self.num_devices,
                "num_data": self.num_data,
                "fail_fraction": self.fail_fraction.tolist(),
                "samples": self.samples.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FailureProfile":
        """A saved profile; an older file's ``coverage`` mask must be
        all True (a False cell was interpolated, not measured)."""
        obj = json.loads(text)
        if not all(obj.get("coverage", ())):
            raise ValueError("profile has interpolated cells (coverage)")
        return cls(
            system_name=obj["system_name"],
            num_devices=int(obj["num_devices"]),
            num_data=int(obj["num_data"]),
            fail_fraction=np.asarray(obj["fail_fraction"], dtype=float),
            samples=np.asarray(obj["samples"], dtype=np.int64),
        )

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FailureProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @classmethod
    def from_analytic(cls, system) -> "FailureProfile":
        """Exact profile from a :class:`repro.raid.AnalyticSystem`."""
        table = system.profile()
        return cls(
            system_name=system.name,
            num_devices=system.num_devices,
            num_data=system.num_data_devices,
            fail_fraction=table,
            samples=np.zeros(system.num_devices + 1, dtype=np.int64),
        )
