"""Tests for the archival mission simulator."""

import numpy as np
import pytest

from repro.storage import (
    DeviceArray,
    MissionConfig,
    StripeMonitor,
    TornadoArchive,
    run_mission,
)


@pytest.fixture
def loaded_archive(graph3):
    archive = TornadoArchive(graph3, DeviceArray(96), block_size=64)
    archive.put("alpha", bytes(range(256)) * 20)
    archive.put("beta", b"payload" * 500)
    return archive


class TestMissionConfig:
    def test_step_probability_compounds_to_afr(self):
        fleet = MissionConfig(afr=0.04, steps_per_year=52).fleet(
            1, np.random.default_rng(0)
        )
        survive = 1.0
        for step in range(52):
            survive *= 1 - fleet.step_probability(
                0, step / 52, (step + 1) / 52
            )
        assert 1 - survive == pytest.approx(0.04)

    def test_default_fleet_is_the_binomial_model(self):
        """Weibull shape 1 steps at the per-step Bernoulli probability
        of the AFR, to the last bit or so, at any device age."""
        fleet = MissionConfig(afr=0.05).fleet(4, np.random.default_rng(0))
        binomial = 1 - (1 - 0.05) ** (1 / 52)
        for step in (0, 1, 51, 207):
            p = fleet.step_probability(2, step / 52, (step + 1) / 52)
            assert p == pytest.approx(binomial, rel=1e-12)

    def test_zero_afr_never_fails(self):
        fleet = MissionConfig(afr=0.0).fleet(8, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        assert fleet.failures(0.0, 10.0, range(8), rng) == []

    def test_validation(self):
        for bad in (
            dict(afr=1.0),
            dict(afr=-0.1),
            dict(hazard="tub"),
            dict(hazard_shape=0.0),
            dict(hazard_scale=-1.0),
            dict(infant_mortality=1.5),
            dict(batch_defect_rate=-0.1),
        ):
            with pytest.raises(ValueError):
                MissionConfig(**bad)

    def test_num_steps(self):
        assert MissionConfig(years=2, steps_per_year=10).num_steps == 20


class TestRunMission:
    def test_calm_mission_survives(self, loaded_archive):
        cfg = MissionConfig(years=1, afr=0.01)
        report = run_mission(
            loaded_archive, cfg, np.random.default_rng(0)
        )
        assert report.survived
        assert report.min_margin >= 0
        assert loaded_archive.get("alpha")  # archive still intact

    def test_one_scan_per_step(self, loaded_archive, monkeypatch):
        """The repair cycle reuses the step's scan instead of its own."""
        scans = []
        scan = StripeMonitor.scan

        def counted(monitor):
            scans.append(None)
            return scan(monitor)

        monkeypatch.setattr(StripeMonitor, "scan", counted)
        cfg = MissionConfig(years=1, steps_per_year=12, afr=0.3)
        report = run_mission(loaded_archive, cfg, np.random.default_rng(4))
        assert report.survived
        assert len(scans) == cfg.num_steps

    def test_stormy_mission_logs_events(self, loaded_archive):
        cfg = MissionConfig(years=3, afr=0.15, replacement_lag_steps=1)
        report = run_mission(
            loaded_archive, cfg, np.random.default_rng(1)
        )
        kinds = {e.kind for e in report.events}
        assert "failure" in kinds
        assert report.device_failures > 0
        if report.survived:
            assert "repair" in kinds or report.blocks_repaired == 0

    def test_catastrophic_rates_eventually_lose(self, loaded_archive):
        """With near-certain weekly failures and slow replacement the
        mission must record a loss (and stop at it)."""
        cfg = MissionConfig(
            years=2,
            steps_per_year=12,
            afr=0.9999,
            replacement_lag_steps=50,
        )
        report = run_mission(
            loaded_archive, cfg, np.random.default_rng(2)
        )
        assert not report.survived
        assert report.events[-1].kind == "loss"

    def test_repairs_accumulate(self, loaded_archive):
        cfg = MissionConfig(
            years=4, afr=0.2, replacement_lag_steps=1, repair_margin=3
        )
        report = run_mission(
            loaded_archive, cfg, np.random.default_rng(3)
        )
        if report.survived:
            assert report.blocks_repaired > 0

    def test_describe_mentions_outcome(self, loaded_archive):
        cfg = MissionConfig(years=0.5, afr=0.01)
        report = run_mission(
            loaded_archive, cfg, np.random.default_rng(0)
        )
        text = report.describe()
        assert "outcome:" in text
        assert "device failures" in text

    def test_deterministic(self, graph3):
        def fresh():
            archive = TornadoArchive(
                graph3, DeviceArray(96), block_size=32
            )
            archive.put("x", bytes(2000))
            return archive

        cfg = MissionConfig(years=2, afr=0.1)
        r1 = run_mission(fresh(), cfg, np.random.default_rng(5))
        r2 = run_mission(fresh(), cfg, np.random.default_rng(5))
        assert [
            (e.step, e.kind, e.detail) for e in r1.events
        ] == [(e.step, e.kind, e.detail) for e in r2.events]


class TestHazardClock:
    def test_weekly_mission_fails_at_the_afr(self, graph3):
        """A weekly 4-year mission on a Weibull curve at AFR 0.05 fails
        about 96 * 4 * 0.05 devices: the curve ages on the mission's own
        52-step year, not a clock of its own."""
        cfg = MissionConfig(
            years=4, afr=0.05, hazard="weibull", hazard_shape=1.0
        )
        counts = []
        for seed in range(6):
            archive = TornadoArchive(graph3, DeviceArray(96), block_size=32)
            archive.put("x", bytes(2000))
            report = run_mission(archive, cfg, np.random.default_rng(seed))
            counts.append(report.device_failures)
        expected = 96 * 4 * 0.05
        sigma = (expected / len(counts)) ** 0.5
        assert abs(np.mean(counts) - expected) <= 3 * sigma
