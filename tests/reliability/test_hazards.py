"""Tests for the per-device hazard-curve machinery."""

import numpy as np
import pytest

from repro.reliability import (
    BathtubHazard,
    FleetHazards,
    WeibullHazard,
    calibrated_scale,
    failure_rate_from_afr,
    step_failure_probability,
)


class TestWeibullHazard:
    def test_shape_one_is_memoryless(self):
        h = WeibullHazard.from_afr(0.04, shape=1.0)
        # Every year looks the same when the hazard is exponential.
        probs = [h.annual_failure_probability(y) for y in range(5)]
        assert all(p == pytest.approx(0.04) for p in probs)

    def test_calibration_matches_afr_for_any_shape(self):
        for shape in (0.5, 1.0, 2.0, 4.0):
            h = WeibullHazard.from_afr(0.08, shape=shape)
            assert h.annual_failure_probability(0) == pytest.approx(0.08)

    def test_calibration_matches_lifetime_config_convention(self):
        afr, shape = 0.04, 2.0
        assert calibrated_scale(afr, shape) == pytest.approx(
            1.0 / failure_rate_from_afr(afr) ** (1.0 / shape)
        )

    def test_wearout_rises_infant_falls(self):
        wearout = WeibullHazard.from_afr(0.02, shape=3.0)
        infant = WeibullHazard.from_afr(0.02, shape=0.5)
        assert wearout.annual_failure_probability(
            6
        ) > wearout.annual_failure_probability(0)
        assert infant.annual_failure_probability(
            6
        ) < infant.annual_failure_probability(0)

    def test_chained_steps_reproduce_lifetime_distribution(self):
        # Survival through 12 monthly steps must equal survival
        # through one year: the step probabilities are exact
        # survival-function ratios, not rate approximations.
        h = WeibullHazard.from_afr(0.3, shape=2.5)
        survive = 1.0
        for m in range(12):
            survive *= 1.0 - step_failure_probability(
                h, m / 12, (m + 1) / 12
            )
        assert 1.0 - survive == pytest.approx(0.3)

    def test_sampled_lifetimes_match_first_year_probability(self):
        h = WeibullHazard.from_afr(0.25, shape=1.5)
        rng = np.random.default_rng(7)
        draws = [h.sample_lifetime(rng) for _ in range(4000)]
        frac = sum(1 for t in draws if t <= 1.0) / len(draws)
        assert frac == pytest.approx(0.25, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeibullHazard(shape=0.0)
        with pytest.raises(ValueError):
            WeibullHazard(scale=-1.0)
        with pytest.raises(ValueError):
            calibrated_scale(1.5, 1.0)


class TestBathtubHazard:
    def test_bathtub_profile(self):
        h = BathtubHazard(
            infant=WeibullHazard.from_afr(0.10, shape=0.5),
            wearout=WeibullHazard(shape=4.0, scale=8.0),
        )
        annual = [h.annual_failure_probability(y) for y in range(10)]
        floor = min(annual)
        # High at both ends, lower in the middle: the bathtub.
        assert annual[0] > floor
        assert annual[9] > floor
        assert 0 < annual.index(floor) < 9

    def test_cumulative_is_component_sum(self):
        h = BathtubHazard()
        t = 3.7
        assert h.cumulative(t) == pytest.approx(
            h.infant.cumulative(t) + h.wearout.cumulative(t)
        )

    def test_sample_is_min_of_competing_risks(self):
        h = BathtubHazard()
        a = h.sample_lifetime(np.random.default_rng(3))
        i = h.infant.sample_lifetime(np.random.default_rng(3))
        w = h.wearout.sample_lifetime(np.random.default_rng(3))
        # Not an exact identity (the fleet rng advances between the
        # two component draws), but the sample must be bounded by the
        # same-seed first component draw.
        assert a <= max(i, w)
        assert a > 0


class TestFleetHazards:
    def _fleet(self, **kwargs):
        defaults = dict(
            infant_mortality=0.5,
            batch_defect_rate=0.25,
            batch_size=8,
            defect_multiplier=6.0,
            seed=11,
        )
        defaults.update(kwargs)
        return FleetHazards(
            48, WeibullHazard.from_afr(0.04, shape=2.0), **defaults
        )

    def test_batch_defects_are_contiguous_and_sized(self):
        fleet = self._fleet()
        flagged = np.flatnonzero(fleet.defective)
        assert len(flagged) >= 0.25 * 48
        # Contiguity: the flagged set is a union of whole batches.
        for d in flagged:
            lo = (d // 8) * 8
            assert fleet.defective[lo : lo + 8].all()

    def test_defective_devices_fail_more(self):
        fleet = self._fleet()
        sick = int(np.flatnonzero(fleet.defective)[0])
        well = int(np.flatnonzero(~fleet.defective)[0])
        assert fleet.step_probability(sick, 1.0, 1.5) > (
            fleet.step_probability(well, 1.0, 1.5)
        )

    def test_same_seed_same_fleet(self):
        a, b = self._fleet(), self._fleet()
        assert (a.defective == b.defective).all()
        for d in range(48):
            assert a.step_probability(d, 2.0, 2.5) == (
                b.step_probability(d, 2.0, 2.5)
            )

    def test_replacement_resets_age_and_clears_defect(self):
        fleet = self._fleet(infant_mortality=0.0)
        sick = int(np.flatnonzero(fleet.defective)[0])
        aged_p = fleet.step_probability(sick, 5.0, 5.5)
        fleet.replace(sick, 5.0)
        fresh_p = fleet.step_probability(sick, 5.0, 5.5)
        assert not fleet.defective[sick]
        assert fleet.age_of(sick, 5.0) == 0.0
        assert fresh_p < aged_p

    def test_infant_replacements_carry_extra_hazard(self):
        always = self._fleet(
            infant_mortality=1.0, batch_defect_rate=0.0
        )
        never = self._fleet(
            infant_mortality=0.0, batch_defect_rate=0.0
        )
        assert always.replace(3, 2.0) is True
        assert never.replace(3, 2.0) is False
        assert always.step_probability(3, 2.0, 2.5) > (
            never.step_probability(3, 2.0, 2.5)
        )
        assert always.summary()["infant_replacements"] == 1

    def test_failures_draw_one_uniform_per_candidate_in_order(self):
        fleet = self._fleet(infant_mortality=0.0)
        candidates = [40, 3, 17, 3, 0, 29]
        t0, t1 = 4.0, 6.0
        got_rng = np.random.default_rng(21)
        failed = fleet.failures(t0, t1, candidates, got_rng)
        want_rng = np.random.default_rng(21)
        draws = [float(want_rng.random()) for _ in candidates]
        assert failed == [
            d
            for d, u in zip(candidates, draws)
            if u < fleet.step_probability(d, t0, t1)
        ]
        assert 0 < len(failed) < len(candidates)
        # Exactly one draw each: both streams now stand at one place.
        assert got_rng.random() == want_rng.random()

    def test_failures_see_a_replacement_at_age_zero(self):
        fleet = FleetHazards(4, WeibullHazard(shape=4.0, scale=2.0))
        # At 3-4 years the wear-out curve all but guarantees failure.
        aged = fleet.step_probability(1, 3.0, 4.0)
        fleet.replace(1, 3.0)
        assert fleet.age_of(1, 3.0) == 0.0
        fresh = fleet.step_probability(1, 3.0, 4.0)
        assert fresh < 0.1 < 0.9 < aged
        rng = np.random.default_rng(0)
        failed = [fleet.failures(3.0, 4.0, [0, 1], rng) for _ in range(50)]
        assert all(0 in f for f in failed)
        assert sum(1 in f for f in failed) < 15

    def test_failures_statistics(self):
        fleet = FleetHazards(2000, WeibullHazard.from_afr(0.1))
        failed = fleet.failures(
            0.0, 1.0, range(2000), np.random.default_rng(0)
        )
        assert 130 < len(failed) < 270  # ~200 expected

    def test_step_probability_validation(self):
        fleet = self._fleet()
        with pytest.raises(ValueError):
            fleet.step_probability(99, 0.0, 1.0)
        with pytest.raises(ValueError):
            fleet.step_probability(0, 2.0, 1.0)

    def test_constructor_validation(self):
        h = WeibullHazard()
        with pytest.raises(ValueError):
            FleetHazards(0, h)
        with pytest.raises(ValueError):
            FleetHazards(4, h, infant_mortality=1.5)
        with pytest.raises(ValueError):
            FleetHazards(4, h, defect_multiplier=0.5)
