"""Tests for ``mttdl``, the birth–death chain over a failure curve.

``simulate_lifetime`` is the oracle at elevated rates, where every
mission ends in a loss; the retired Markov closed forms are the oracle
in the rare-event limit, where the two models agree.
"""

import math

import numpy as np
import pytest

from repro.raid import (
    mirrored_system,
    raid5_system,
    raid6_system,
    striped_system,
)
from repro.reliability import (
    LifetimeConfig,
    failure_predicate_for_graph,
    failure_predicate_for_groups,
    failure_rate_from_afr,
    mttdl,
    simulate_lifetime,
)
from repro.sim import FailureProfile, profile_graph

DAY = 1 / 365

ANALYTIC = {
    "raid5": (raid5_system, (8, 12, 1)),
    "raid6": (raid6_system, (8, 12, 2)),
    "mirror": (mirrored_system, (48, 2, 1)),
}


@pytest.fixture(scope="module")
def graph3_profile(graph3):
    return profile_graph(graph3, samples_per_k=1000, seed=0)


def curve(name, fail_fraction):
    n = len(fail_fraction) - 1
    return FailureProfile(name, n, 1, np.asarray(fail_fraction, float),
                          np.zeros(n + 1, np.int64))


def dense_mttdl(profile, afr, mttr):
    """The same chain by one dense solve: exact only where the rates
    keep the system well conditioned."""
    lam, mu, n = failure_rate_from_afr(afr), 1 / mttr, profile.num_devices
    f = np.maximum.accumulate(profile.fail_fraction)
    live = [k for k in range(n + 1) if f[k] < 1]
    a = np.zeros((len(live), len(live)))
    for i, k in enumerate(live):
        up, down = lam * (n - k), mu * k
        a[i, i] = up + down
        if i > 0:
            a[i, i - 1] = -down
        if i + 1 < len(live):
            a[i, i + 1] = -up * (1 - f[k + 1]) / (1 - f[k])
    return np.linalg.solve(a, np.ones(len(live)))[0]


def simulated(fails, afr, mttr, runs):
    """Mean time to loss and its standard error over missions that all
    end in a loss."""
    cfg = LifetimeConfig(num_devices=96, afr=afr, mttr_years=mttr,
                         mission_years=math.inf)
    result = simulate_lifetime(fails, cfg, n_runs=runs,
                               rng=np.random.default_rng(0))
    assert result.losses == runs
    spread = np.std(result.loss_times, ddof=1) / math.sqrt(runs)
    return result.mean_time_to_loss, spread


class TestAgainstTheSimulator:
    @pytest.mark.parametrize("name", ANALYTIC)
    def test_raid_and_mirror_within_two_sigma(self, name):
        system, groups = ANALYTIC[name]
        chain = mttdl(FailureProfile.from_analytic(system()), 0.3, 0.1)
        mean, spread = simulated(
            failure_predicate_for_groups(*groups), 0.3, 0.1, runs=300
        )
        assert abs(chain - mean) <= 2 * spread

    def test_tornado_errs_low_by_at_most_15_percent(
        self, graph3, graph3_profile
    ):
        # The uniform-subset step errs low by 4-7 % here (pooled runs),
        # so the chain need not sit within 2 sigma of the simulator.
        chain = mttdl(graph3_profile, 0.5, 1.0)
        mean, spread = simulated(
            failure_predicate_for_graph(graph3), 0.5, 1.0, runs=200
        )
        assert 0.85 * (mean + 2 * spread) <= chain <= mean + 2 * spread


class TestRareEventLimit:
    @pytest.mark.parametrize(
        "name, exponent",
        [("raid5", 1), ("raid6", 2), ("mirror", 1), ("graph3", 4)],
    )
    def test_scales_as_mttr_to_one_less_than_first_failure(
        self, name, exponent, graph3_profile
    ):
        profile = (
            graph3_profile if name == "graph3"
            else FailureProfile.from_analytic(ANALYTIC[name][0]())
        )
        assert profile.first_failure() - 1 == exponent
        ratio = mttdl(profile, 0.01, DAY) / mttdl(profile, 0.01, 3 * DAY)
        assert ratio == pytest.approx(3**exponent, rel=0.01)

    @pytest.mark.parametrize(
        "system, years", [(raid5_system, 3422), (mirrored_system, 37640)]
    )
    def test_raid5_and_mirror_meet_the_closed_forms(self, system, years):
        # MTTF^2 / (g (g - 1) MTTR) per group, over the group count.
        profile = FailureProfile.from_analytic(system())
        assert mttdl(profile, 0.01, DAY) == pytest.approx(years, rel=0.01)

    def test_graph3_at_a_one_day_mttr(self, graph3_profile):
        # A dense solve of the same chain reads 1.57e16 y here.
        assert mttdl(graph3_profile, 0.01, DAY) == pytest.approx(
            6.92e18, rel=0.01
        )


class TestTheChain:
    def test_one_mirrored_pair(self):
        lam, mu = failure_rate_from_afr(0.2), 1 / 0.5
        expect = (3 * lam + mu) / (2 * lam * lam)
        assert mttdl(curve("pair", [0, 0, 1]), 0.2, 0.5) == pytest.approx(
            expect, rel=1e-12
        )

    def test_striping_loses_data_at_the_first_failure(self):
        profile = FailureProfile.from_analytic(striped_system())
        lam = failure_rate_from_afr(0.01)
        assert mttdl(profile, 0.01, DAY) == pytest.approx(1 / (96 * lam))

    @pytest.mark.parametrize("afr, mttr", [(0.3, 0.1), (0.5, 1.0)])
    def test_a_dense_solve_agrees_where_it_is_well_conditioned(
        self, afr, mttr, graph3_profile
    ):
        for profile in (
            FailureProfile.from_analytic(raid6_system()), graph3_profile
        ):
            assert mttdl(profile, afr, mttr) == pytest.approx(
                dense_mttdl(profile, afr, mttr), rel=1e-9
            )

    def test_a_non_monotone_curve_runs_on_its_running_maximum(self):
        # A sampled cell can hit where the next misses: P(fail | 10) > 0
        # beside P(fail | 11) = 0.  Losing an eleventh device cannot
        # undo a loss, so the dip is filled, not read as a negative
        # step probability.
        dipped = [0.0] * 5 + [1e-6, 1e-5, 1e-4, 1e-4, 1e-4, 2.5e-4, 0.0]
        dipped += [3e-4, 1e-3, 1e-2, 0.1, 1.0]
        filled = np.maximum.accumulate(dipped)
        assert filled[11] == 2.5e-4
        got = mttdl(curve("dipped", dipped), 0.05, 0.1)
        assert got == mttdl(curve("filled", filled), 0.05, 0.1)
        no_hit = dipped[:10] + [1e-4] + dipped[11:]
        assert 0 < got < mttdl(curve("no-hit", no_hit), 0.05, 0.1)

    def test_faster_repair_and_more_tolerance_help(self):
        for system in (raid5_system, raid6_system, mirrored_system):
            profile = FailureProfile.from_analytic(system())
            assert mttdl(profile, 0.01, DAY) > mttdl(profile, 0.01, 30 * DAY)
        raid5, raid6 = (
            FailureProfile.from_analytic(s()) for s in (raid5_system,
                                                       raid6_system)
        )
        assert mttdl(raid6, 0.01, DAY) > mttdl(raid5, 0.01, DAY)

    def test_a_curve_that_never_fails_never_loses(self):
        assert mttdl(curve("never", [0.0] * 9), 0.5, 1.0) == math.inf
