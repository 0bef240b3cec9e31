"""Tests for the lifetime (failure + repair) simulator."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.graphs import mirrored_graph
from repro.reliability import (
    LifetimeConfig,
    WeibullHazard,
    failure_rate_from_afr,
    failure_predicate_for_graph,
    failure_predicate_for_groups,
    simulate_lifetime,
)


class TestPredicates:
    def test_group_predicate_raid5(self):
        fails = failure_predicate_for_groups(2, 4, 1)
        assert not fails(frozenset({0, 4}))  # one per group
        assert fails(frozenset({0, 1}))  # two in group 0

    def test_group_predicate_raid6(self):
        fails = failure_predicate_for_groups(2, 4, 2)
        assert not fails(frozenset({0, 1}))
        assert fails(frozenset({0, 1, 2}))

    def test_graph_predicate_matches_decoder(self):
        g = mirrored_graph(4)
        fails = failure_predicate_for_graph(g)
        assert not fails(frozenset({0, 5}))
        assert fails(frozenset({0, 4}))


class TestConfig:
    def test_failure_rate_matches_afr(self):
        # P(fail within a year) = 1 - exp(-lambda) = afr
        lam = failure_rate_from_afr(0.01)
        assert 1 - math.exp(-lam) == pytest.approx(0.01)

    def test_rejects_bad_afr(self):
        for afr in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="afr"):
                LifetimeConfig(num_devices=10, afr=afr, mttr_years=0.01)


class TestSimulation:
    def test_no_loss_when_tolerance_huge(self):
        fails = failure_predicate_for_groups(1, 10, 10)
        cfg = LifetimeConfig(num_devices=10, afr=0.5, mttr_years=0.1)
        result = simulate_lifetime(
            fails, cfg, n_runs=30, rng=np.random.default_rng(0)
        )
        assert result.p_loss == 0.0
        assert result.mean_time_to_loss is None

    def test_certain_loss_with_zero_tolerance(self):
        fails = failure_predicate_for_groups(1, 10, 0)
        cfg = LifetimeConfig(
            num_devices=10, afr=0.9, mttr_years=0.1, mission_years=10
        )
        result = simulate_lifetime(
            fails, cfg, n_runs=30, rng=np.random.default_rng(0)
        )
        assert result.p_loss == 1.0
        assert result.mean_time_to_loss is not None

    def test_loss_times_within_mission(self):
        fails = failure_predicate_for_groups(4, 2, 1)
        cfg = LifetimeConfig(
            num_devices=8, afr=0.5, mttr_years=0.2, mission_years=5
        )
        result = simulate_lifetime(
            fails, cfg, n_runs=50, rng=np.random.default_rng(0)
        )
        assert all(0 < t <= 5 for t in result.loss_times)
        assert result.losses == len(result.loss_times)

    def test_deterministic_under_rng(self):
        fails = failure_predicate_for_groups(4, 2, 1)
        cfg = LifetimeConfig(num_devices=8, afr=0.4, mttr_years=0.1)
        r1 = simulate_lifetime(
            fails, cfg, n_runs=40, rng=np.random.default_rng(9)
        )
        r2 = simulate_lifetime(
            fails, cfg, n_runs=40, rng=np.random.default_rng(9)
        )
        assert r1.loss_times == r2.loss_times

    @pytest.mark.parametrize(
        "shape, losses, digest",
        [
            (0.7, 3, "014a3c418e731b4d"),
            (1.0, 5, "9317cd812a92b7dc"),
            (3.0, 58, "2e816403637ccbcd"),
        ],
    )
    def test_pinned_results(self, shape, losses, digest):
        """Lifetimes come from ``WeibullHazard.from_afr``; these values
        were pinned from the exponential/Weibull sampler it replaced."""
        fails = failure_predicate_for_groups(8, 4, 1)
        cfg = LifetimeConfig(
            num_devices=32,
            afr=0.05,
            mttr_years=0.05,
            mission_years=5,
            hazard_shape=shape,
        )
        result = simulate_lifetime(
            fails, cfg, n_runs=60, rng=np.random.default_rng(5)
        )
        assert result.losses == losses
        text = json.dumps(list(result.loss_times))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_repair_reduces_loss(self):
        """Faster repair must not increase loss probability."""
        fails = failure_predicate_for_groups(24, 2, 1)
        slow = LifetimeConfig(
            num_devices=48, afr=0.3, mttr_years=0.5, mission_years=5
        )
        fast = LifetimeConfig(
            num_devices=48, afr=0.3, mttr_years=0.02, mission_years=5
        )
        p_slow = simulate_lifetime(
            fails, slow, n_runs=60, rng=np.random.default_rng(3)
        ).p_loss
        p_fast = simulate_lifetime(
            fails, fast, n_runs=60, rng=np.random.default_rng(3)
        ).p_loss
        assert p_fast <= p_slow


class TestWeibullHazard:
    def test_scale_calibrated_to_afr(self):
        """P(lifetime <= 1 yr) must equal the AFR for any shape."""
        for shape in (0.7, 1.0, 2.0):
            hazard = WeibullHazard.from_afr(0.2, shape)
            rng = np.random.default_rng(0)
            draws = np.array(
                [hazard.sample_lifetime(rng) for _ in range(30_000)]
            )
            assert (draws <= 1.0).mean() == pytest.approx(0.2, abs=0.01)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            LifetimeConfig(
                num_devices=1, afr=0.1, mttr_years=0.1, hazard_shape=0.0
            )

    def test_wearout_hurts_multi_year_missions(self):
        """With lifetimes calibrated to the same *first-year* AFR,
        wear-out (shape > 1) concentrates failures mid-mission and must
        not improve on the exponential model over several years, while a
        decreasing hazard (shape < 1) leaves long-lived survivors and
        must not be worse than exponential."""
        fails = failure_predicate_for_groups(24, 2, 1)
        base = dict(
            num_devices=48, afr=0.3, mttr_years=0.15, mission_years=3
        )

        def p_loss(shape):
            cfg = LifetimeConfig(**base, hazard_shape=shape)
            return simulate_lifetime(
                fails, cfg, n_runs=150, rng=np.random.default_rng(0)
            ).p_loss

        p_infant, p_exp, p_wearout = p_loss(0.5), p_loss(1.0), p_loss(2.0)
        assert p_wearout >= p_exp - 0.05
        assert p_infant <= p_exp + 0.05
