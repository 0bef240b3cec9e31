"""Per-device hazard curves beyond the memoryless AFR model.

The paper's reliability analysis (and :mod:`repro.reliability.model`)
treats devices as exchangeable Bernoulli trials at a constant annual
failure rate.  Real archival fleets are heterogeneous: field studies
consistently show *infant mortality* (elevated failure rates in a
device's first months), *wear-out* (rates climbing after the design
life), and *correlated batch defects* (a bad manufacturing lot failing
together).  This module is the one device-failure process: the
mission simulator, the lifetime simulator and the federation chaos
campaign all draw from it.

* :class:`WeibullHazard` — the standard parametric family.  Shape 1 is
  the exponential (memoryless, AFR-equivalent) model and the default
  everywhere; shape < 1 models infant mortality; shape > 1 wear-out.
  The scale may be calibrated from an AFR so that a fresh device's
  first-year failure probability matches the binomial model exactly
  (:func:`calibrated_scale`).
* :class:`BathtubHazard` — the superposition of an infant-mortality
  Weibull and a wear-out Weibull (competing risks: the device fails
  when either process fires first), which is the classic bathtub curve.
* :class:`FleetHazards` — a fleet-level wrapper: per-device hazard
  assignment, infant-mortality boosts for *replacement* devices (a
  rebuilt drive re-enters the infant region), correlated batch
  defects (a seeded subset of devices carries a hazard multiplier),
  and the stepped draw (:meth:`FleetHazards.failures`) under
  :func:`repro.storage.run_mission` and ``repro sites chaos``.

All time units are years.  Hazards expose the cumulative hazard
``H(t)`` (so step failure probabilities are exact survival-function
ratios, ``p = 1 - exp(-(H(t1) - H(t0)))``) plus lifetime sampling for
the event-driven simulator in :mod:`repro.reliability.lifetime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .._checks import check_count, check_seconds
from ..obs.seeding import SeedLike, resolve_rng

__all__ = [
    "BathtubHazard",
    "FleetHazards",
    "WeibullHazard",
    "calibrated_scale",
    "failure_rate_from_afr",
    "step_failure_probability",
]


def failure_rate_from_afr(afr: float) -> float:
    """Poisson rate (per device-year) matching an annual failure prob."""
    if not 0.0 < check_seconds(afr, "afr") < 1.0:
        raise ValueError("afr must be in (0, 1)")
    return -math.log1p(-afr)


def calibrated_scale(afr: float, shape: float) -> float:
    """Weibull scale with ``P(lifetime <= 1 year) = afr``.

    At shape 1 this is the memoryless binomial-AFR model: a mission
    stepping this curve draws the same failures as independent
    per-step Bernoulli trials at ``1 - (1 - afr) ** (1 / steps)``.
    """
    check_seconds(shape, "shape")
    return 1.0 / failure_rate_from_afr(afr) ** (1.0 / shape)


@dataclass(frozen=True)
class WeibullHazard:
    """Weibull hazard: ``H(t) = (t / scale) ** shape``."""

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_seconds(self.shape, "shape")
        check_seconds(self.scale, "scale")

    @classmethod
    def from_afr(cls, afr: float, shape: float = 1.0) -> "WeibullHazard":
        """The Weibull whose first-year failure probability is ``afr``."""
        return cls(shape=shape, scale=calibrated_scale(afr, shape))

    def cumulative(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return (t / self.scale) ** self.shape

    def annual_failure_probability(self, year: int = 0) -> float:
        """P(fail in year ``year`` | survived to its start)."""
        check_count(year, "year")
        return step_failure_probability(self, float(year), float(year + 1))

    def sample_lifetime(self, rng: SeedLike = None) -> float:
        rng = resolve_rng(rng if rng is not None else 0)
        return float(self.scale * rng.weibull(self.shape))


@dataclass(frozen=True)
class BathtubHazard:
    """Competing-risk superposition of infant mortality and wear-out.

    ``H(t) = H_infant(t) + H_wearout(t)``: the device dies when the
    first of the two processes fires, which is exactly hazard addition.
    The infant component should have shape < 1 (front-loaded), the
    wear-out component shape > 1 (back-loaded); between them the rate
    bottoms out — the bathtub's flat floor.
    """

    infant: WeibullHazard = field(
        default_factory=lambda: WeibullHazard(shape=0.5, scale=20.0)
    )
    wearout: WeibullHazard = field(
        default_factory=lambda: WeibullHazard(shape=4.0, scale=8.0)
    )

    def cumulative(self, t: float) -> float:
        return self.infant.cumulative(t) + self.wearout.cumulative(t)

    def annual_failure_probability(self, year: int = 0) -> float:
        check_count(year, "year")
        return step_failure_probability(self, float(year), float(year + 1))

    def sample_lifetime(self, rng: SeedLike = None) -> float:
        rng = resolve_rng(rng if rng is not None else 0)
        return min(
            self.infant.sample_lifetime(rng),
            self.wearout.sample_lifetime(rng),
        )


def step_failure_probability(hazard, t0: float, t1: float) -> float:
    """P(fail in ``(t0, t1]`` | survived to ``t0``) for any hazard.

    Exact survival-function ratio, so chaining steps reproduces the
    hazard's lifetime distribution with no discretisation drift.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return 1.0 - math.exp(-(hazard.cumulative(t1) - hazard.cumulative(t0)))


class FleetHazards:
    """Per-device hazard state for a heterogeneous, aging fleet.

    Parameters
    ----------
    num_devices:
        Fleet size; device ids are ``0..num_devices-1``.
    hazard:
        The base hazard every device ages under (anything exposing
        ``cumulative(t)``).
    infant_mortality:
        Probability that a *replacement* device is an infant-mortality
        unit: its hazard gains an extra front-loaded Weibull component
        (shape 0.5, first-year failure probability
        ``infant_first_year``) for its early life.  Fresh fleet members
        are assumed burned in; replacements arrive straight from the
        factory, which is where the infant region bites.
    infant_first_year:
        First-year failure probability of the infant component.
    batch_defect_rate:
        Fraction of devices carrying a correlated manufacturing defect.
        Defective devices are drawn as contiguous *batches* of
        ``batch_size`` ids (a bad lot racks consecutive slots), and
        each defective device's cumulative hazard is multiplied by
        ``defect_multiplier``.
    seed:
        Seeds batch placement and infant draws; the same seed
        reproduces the same heterogeneity run-to-run.
    """

    def __init__(
        self,
        num_devices: int,
        hazard,
        *,
        infant_mortality: float = 0.0,
        infant_first_year: float = 0.10,
        batch_defect_rate: float = 0.0,
        batch_size: int = 12,
        defect_multiplier: float = 8.0,
        seed: SeedLike = 0,
    ):
        check_count(num_devices, "num_devices", 1)
        if not 0.0 <= infant_mortality <= 1.0:
            raise ValueError("infant_mortality must lie in [0, 1]")
        if not 0.0 <= batch_defect_rate <= 1.0:
            raise ValueError("batch_defect_rate must lie in [0, 1]")
        check_count(batch_size, "batch_size", 1)
        if not defect_multiplier >= 1.0:
            raise ValueError(
                f"defect_multiplier {defect_multiplier} is below 1"
            )
        self.num_devices = num_devices
        self.hazard = hazard
        self.infant_mortality = infant_mortality
        self.infant_hazard = WeibullHazard.from_afr(
            infant_first_year, shape=0.5
        )
        self.defect_multiplier = defect_multiplier
        self._rng = resolve_rng(seed)
        # Age bookkeeping: service-entry time per device (years).
        self._entered = np.zeros(num_devices, dtype=float)
        self._infant = np.zeros(num_devices, dtype=bool)
        self.replacements = 0
        self.infant_replacements = 0
        # Correlated batch defects: whole contiguous batches flagged.
        self.defective = np.zeros(num_devices, dtype=bool)
        if batch_defect_rate > 0.0:
            batches = max(1, num_devices // batch_size)
            want = batch_defect_rate * num_devices
            flagged = 0
            order = self._rng.permutation(batches)
            for b in order:
                if flagged >= want:
                    break
                lo = b * batch_size
                hi = min(lo + batch_size, num_devices)
                self.defective[lo:hi] = True
                flagged += hi - lo

    # ------------------------------------------------------------------

    def _cumulative(self, device: int, t: float) -> float:
        """Device-local cumulative hazard at fleet time ``t``."""
        age = max(0.0, t - self._entered[device])
        h = self.hazard.cumulative(age)
        if self._infant[device]:
            h += self.infant_hazard.cumulative(age)
        if self.defective[device]:
            h *= self.defect_multiplier
        return h

    def step_probability(
        self, device: int, t0: float, t1: float
    ) -> float:
        """P(device fails in ``(t0, t1]`` | alive at ``t0``)."""
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range")
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        delta = self._cumulative(device, t1) - self._cumulative(
            device, t0
        )
        return 1.0 - math.exp(-max(0.0, delta))

    def failures(
        self,
        t0: float,
        t1: float,
        devices: Iterable[int],
        rng: np.random.Generator,
    ) -> list[int]:
        """The candidate devices that fail in ``(t0, t1]``.

        Draws exactly one uniform per candidate, in the order given; a
        device fails when its draw is below its step probability.  The
        draw count never depends on the curve, so a stream shared with
        other fault processes advances the same way under every hazard.
        """
        return [
            d
            for d in devices
            if float(rng.random()) < self.step_probability(d, t0, t1)
        ]

    def replace(self, device: int, t: float) -> bool:
        """A replacement enters service at fleet time ``t``.

        Resets the device's age, clears any batch defect (the new unit
        comes from a different lot), and draws whether the replacement
        is an infant-mortality unit.  Returns that infant verdict.
        """
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range")
        self._entered[device] = t
        self.defective[device] = False
        self.replacements += 1
        is_infant = (
            self.infant_mortality > 0.0
            and float(self._rng.random()) < self.infant_mortality
        )
        self._infant[device] = is_infant
        if is_infant:
            self.infant_replacements += 1
        return is_infant

    def age_of(self, device: int, t: float) -> float:
        """Service age (years) of a device at fleet time ``t``."""
        return max(0.0, t - float(self._entered[device]))

    def summary(self) -> dict:
        """Fleet heterogeneity facts for reports and manifests."""
        return {
            "num_devices": self.num_devices,
            "infant_mortality": self.infant_mortality,
            "defective_devices": int(self.defective.sum()),
            "defect_multiplier": self.defect_multiplier,
            "replacements": self.replacements,
            "infant_replacements": self.infant_replacements,
        }
