"""Tests for failure-profile metrics."""

import json

import numpy as np
import pytest

from repro.raid import mirrored_system
from repro.sim import FailureProfile


def make_profile(fail, num_data=4, name="toy"):
    fail = np.asarray(fail, dtype=float)
    return FailureProfile(
        system_name=name,
        num_devices=len(fail) - 1,
        num_data=num_data,
        fail_fraction=fail,
        samples=np.zeros(len(fail), dtype=np.int64),
    )


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FailureProfile(
                system_name="x",
                num_devices=4,
                num_data=2,
                fail_fraction=np.zeros(4),
                samples=np.zeros(4, dtype=np.int64),
            )

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            make_profile([0, 0.5, 1.5, 1, 1, 1, 1, 1, 1])


class TestMetrics:
    def test_first_failure(self):
        p = make_profile([0, 0, 0.25, 1, 1, 1, 1, 1, 1])
        assert p.first_failure() == 2

    def test_first_failure_none(self):
        p = make_profile([0] * 8 + [1])
        assert p.first_failure() == 8

    def test_success_by_online_monotone(self):
        # Noisy profile: success curve must still be non-decreasing.
        p = make_profile([0, 0.1, 0.05, 0.5, 0.4, 1, 1, 1, 1])
        s = p.success_by_online()
        assert (np.diff(s) >= 0).all()
        assert s[-1] == 1.0

    def test_average_threshold_step_profile(self):
        # Fails iff more than 2 of 8 devices offline: threshold = 6.
        fail = [0, 0, 0, 1, 1, 1, 1, 1, 1]
        p = make_profile(fail)
        assert p.average_nodes_to_reconstruct() == pytest.approx(6.0)
        assert p.average_overhead() == pytest.approx(1.5)

    def test_nodes_for_probability_step(self):
        fail = [0, 0, 0, 1, 1, 1, 1, 1, 1]
        p = make_profile(fail)
        assert p.nodes_for_success_probability(0.5) == 6
        assert p.nodes_for_success_probability(1.0) == 6
        assert p.overhead_at_probability() == pytest.approx(1.5)

    def test_rejects_bad_probability(self):
        p = make_profile([0] * 8 + [1])
        with pytest.raises(ValueError):
            p.nodes_for_success_probability(0.0)

    def test_average_nodes_capable_all_success(self):
        """With success everywhere, it's the weighted mean of online."""
        n = 96
        fail = np.zeros(n + 1)
        fail[-1] = 1.0
        p = FailureProfile(
            system_name="x",
            num_devices=n,
            num_data=48,
            fail_fraction=fail,
            samples=np.zeros(n + 1, dtype=np.int64),
        )
        ks = np.arange(5, 49)
        w = np.linspace(10, 34, len(ks))
        expect = np.dot(w, 96 - ks) / w.sum()
        assert p.average_nodes_capable() == pytest.approx(expect)

    def test_average_nodes_capable_no_success_returns_n(self):
        n = 96
        fail = np.ones(n + 1)
        fail[0] = 0.0
        p = FailureProfile(
            system_name="x",
            num_devices=n,
            num_data=48,
            fail_fraction=fail,
            samples=np.zeros(n + 1, dtype=np.int64),
        )
        assert p.average_nodes_capable() == 96.0

    def test_mirrored_capable_between_extremes(self):
        p = FailureProfile.from_analytic(mirrored_system(48))
        val = p.average_nodes_capable()
        assert 75 <= val <= 92  # paper-era mirrored values sit high


class TestPersistence:
    def test_json_roundtrip(self):
        p = make_profile([0, 0, 0.25, 1, 1, 1, 1, 1, 1])
        p2 = FailureProfile.from_json(p.to_json())
        np.testing.assert_array_equal(p2.fail_fraction, p.fail_fraction)
        assert p2.system_name == p.system_name
        assert p2.num_data == p.num_data

    def test_a_saved_coverage_mask_loads_only_when_all_true(self):
        """Older files carry a ``coverage`` key: all True loads, a False
        entry (an interpolated cell) is refused, and no profile writes
        or keeps one."""
        p = make_profile([0, 0, 0.25, 1, 1, 1, 1, 1, 1])
        obj = json.loads(p.to_json())
        assert "coverage" not in obj
        obj["coverage"] = [True] * 9
        p2 = FailureProfile.from_json(json.dumps(obj))
        assert p2.to_json() == p.to_json()
        assert p2.coverage.all()
        obj["coverage"] = [True, False, True, True, False] + [True] * 4
        with pytest.raises(ValueError, match="interpolated"):
            FailureProfile.from_json(json.dumps(obj))
        with pytest.raises(TypeError, match="coverage"):
            FailureProfile(
                system_name="toy", num_devices=1, num_data=1,
                fail_fraction=[0, 1], samples=[0, 0], coverage=[True, True],
            )

    def test_file_roundtrip(self, tmp_path):
        p = make_profile([0, 0, 0.25, 1, 1, 1, 1, 1, 1])
        path = tmp_path / "prof.json"
        p.save(path)
        p2 = FailureProfile.load(path)
        np.testing.assert_array_equal(p2.fail_fraction, p.fail_fraction)

    def test_with_exact_head(self):
        p = make_profile([0, 0.5, 0.5, 1, 1, 1, 1, 1, 1])
        p2 = p.with_exact_head({1: 0.0, 2: 0.125})
        assert p2.fail_fraction[1] == 0.0
        assert p2.fail_fraction[2] == 0.125
        assert p2.samples[1] == 0
        # original untouched
        assert p.fail_fraction[1] == 0.5

    def test_from_analytic(self):
        sys = mirrored_system(4)
        p = FailureProfile.from_analytic(sys)
        assert p.num_devices == 8
        assert p.first_failure() == 2
        assert (p.samples == 0).all()


class TestConfidenceInterval:
    def test_exact_entry_zero_width(self):
        p = make_profile([0, 0, 0.25, 1, 1, 1, 1, 1, 1])
        lo, hi = p.confidence_interval(2)
        assert lo == hi == 0.25

    def test_sampled_entry_brackets_estimate(self):
        import numpy as np

        prof = FailureProfile(
            system_name="x",
            num_devices=8,
            num_data=4,
            fail_fraction=np.array([0, 0, 0.3, 1, 1, 1, 1, 1, 1.0]),
            samples=np.array([0, 0, 1000, 0, 0, 0, 0, 0, 0]),
        )
        lo, hi = prof.confidence_interval(2)
        assert lo < 0.3 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_width_shrinks_with_samples(self):
        import numpy as np

        def width(n):
            prof = FailureProfile(
                system_name="x",
                num_devices=8,
                num_data=4,
                fail_fraction=np.array([0, 0, 0.3, 1, 1, 1, 1, 1, 1.0]),
                samples=np.array([0, 0, n, 0, 0, 0, 0, 0, 0]),
            )
            lo, hi = prof.confidence_interval(2)
            return hi - lo

        assert width(10_000) < width(100)

    def test_extreme_fractions_stay_in_bounds(self):
        import numpy as np

        prof = FailureProfile(
            system_name="x",
            num_devices=8,
            num_data=4,
            fail_fraction=np.array([0, 0, 0.0, 1, 1, 1, 1, 1, 1.0]),
            samples=np.array([0, 0, 50, 0, 0, 0, 0, 0, 0]),
        )
        lo, hi = prof.confidence_interval(2)
        assert lo == 0.0
        assert hi > 0.0  # zero observed failures is not proof of zero
