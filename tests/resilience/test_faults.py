"""Tests for fault plans and the injection engine."""

import numpy as np
import pytest

from repro.resilience import (
    DrawerOutages,
    FaultInjector,
    FaultPlan,
    LatentErrors,
    ReplacementJitter,
    SilentCorruption,
    TransientOutages,
)
from repro.storage import (
    DeviceArray,
    DeviceState,
    MissionConfig,
    TornadoArchive,
    run_mission,
)


@pytest.fixture
def archive(small_tornado):
    archive = TornadoArchive(small_tornado, DeviceArray(32), block_size=64)
    archive.put("doc", bytes(range(256)) * 8)
    return archive


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            faults=(
                TransientOutages(rate=0.02, mean_outage_steps=3.0),
                DrawerOutages(rate=0.001, mode="fail"),
                LatentErrors(rate=0.01),
                SilentCorruption(rate=0.01),
                ReplacementJitter(max_extra_steps=4),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = FaultPlan(faults=(TransientOutages(),))
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "gremlins"}]})

    def test_hazard_kind_rejected(self):
        """Device hazards are mission configuration, not a plan fault:
        a plan naming kind ``hazard`` fails on load."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "hazard", "afr": 0.02}]})

    def test_site_blackout_kind_rejected(self):
        """No layer consumes whole-site blackouts from a plan: naming one
        is an error on load, not a spec silently skipped."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "site_blackout", "rate": 0.05}]}
            )

    def test_fault_classes_deduplicated_in_order(self):
        plan = FaultPlan(
            faults=(
                LatentErrors(rate=0.1),
                TransientOutages(),
                LatentErrors(rate=0.2),
            )
        )
        assert plan.fault_classes == ("latent", "transient")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TransientOutages(rate=1.5)
        with pytest.raises(ValueError):
            TransientOutages(mean_outage_steps=0.5)
        with pytest.raises(ValueError):
            DrawerOutages(mode="explode")
        with pytest.raises(ValueError):
            ReplacementJitter(max_extra_steps=-1)


class TestTransientInjection:
    def test_outage_and_recovery(self, archive):
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    TransientOutages(rate=1.0, mean_outage_steps=1.0),
                )
            )
        )
        rng = np.random.default_rng(0)
        events = injector.inject(0, archive, rng)
        assert len(archive.devices.unavailable_ids) == 32
        assert all(e.kind == "fault" for e in events)
        # mean 1.0 forces every geometric draw to exactly one step
        events = injector.inject(1, archive, rng)
        recoveries = [e for e in events if e.kind == "recovery"]
        assert len(archive.devices.unavailable_ids) == 32  # re-hit
        assert len(recoveries) == 32
        assert injector.counts["recovery"] == 32

    def test_zero_rate_is_inert(self, archive):
        injector = FaultInjector(
            FaultPlan(faults=(TransientOutages(rate=0.0),))
        )
        events = injector.inject(0, archive, np.random.default_rng(0))
        assert events == []
        assert archive.devices.unavailable_ids == []


class TestDrawerInjection:
    def test_fail_mode_destroys_whole_drawer(self, archive):
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    DrawerOutages(rate=1.0, drawer_size=12, mode="fail"),
                )
            )
        )
        injector.inject(0, archive, np.random.default_rng(0))
        # 32 devices = drawers [0..11], [12..23], [24..31]
        assert all(
            archive.devices[d].state is DeviceState.FAILED
            for d in range(32)
        )
        assert injector.counts["drawer"] == 3

    def test_transient_mode_interrupts_correlated_group(self, archive):
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    DrawerOutages(
                        rate=1.0, drawer_size=12, mode="transient"
                    ),
                )
            )
        )
        injector.inject(0, archive, np.random.default_rng(0))
        assert set(archive.devices.unavailable_ids) == set(range(32))


class TestBlockLevelInjection:
    def test_latent_errors_drop_blocks(self, archive):
        before = sum(len(d.blocks) for d in archive.devices.devices)
        injector = FaultInjector(
            FaultPlan(faults=(LatentErrors(rate=1.0),))
        )
        events = injector.inject(0, archive, np.random.default_rng(0))
        after = sum(len(d.blocks) for d in archive.devices.devices)
        assert before - after == len(events)
        assert injector.counts["latent"] == len(events)
        assert len(events) > 0

    def test_corruption_flips_bytes_in_place(self, archive):
        snapshot = {
            d.device_id: dict(d.blocks)
            for d in archive.devices.devices
        }
        injector = FaultInjector(
            FaultPlan(faults=(SilentCorruption(rate=1.0),))
        )
        events = injector.inject(0, archive, np.random.default_rng(0))
        assert len(events) > 0
        changed = 0
        for d in archive.devices.devices:
            assert set(d.blocks) == set(snapshot[d.device_id])  # no loss
            for key, raw in d.blocks.items():
                if raw != snapshot[d.device_id][key]:
                    changed += 1
        assert changed == len(events)

    def test_replacement_jitter_bounded(self, archive):
        injector = FaultInjector(
            FaultPlan(faults=(ReplacementJitter(max_extra_steps=3),))
        )
        rng = np.random.default_rng(0)
        draws = [injector.replacement_extra(rng) for _ in range(200)]
        assert min(draws) >= 0
        assert max(draws) <= 3
        assert injector.counts["replacement_jitter"] == sum(
            1 for d in draws if d > 0
        )


class TestReproducibility:
    def test_same_seed_same_faults(self, small_tornado):
        plan = FaultPlan(
            faults=(
                TransientOutages(rate=0.3),
                LatentErrors(rate=0.2),
                SilentCorruption(rate=0.2),
            )
        )

        def run():
            archive = TornadoArchive(
                small_tornado, DeviceArray(32), block_size=64
            )
            archive.put("doc", bytes(range(256)) * 8)
            injector = FaultInjector(plan)
            rng = np.random.default_rng(123)
            log = []
            for step in range(5):
                log.extend(
                    (e.step, e.kind, e.detail)
                    for e in injector.inject(step, archive, rng)
                )
            return log, dict(injector.counts)

        assert run() == run()


class TestDeviceHazardInjection:
    """Device failures are the mission's own hazard fleet, configured on
    :class:`MissionConfig`; no plan spec draws them."""

    @staticmethod
    def _mission(small_tornado, seed, **hazard):
        # No objects: nothing can be lost, so the mission runs its
        # full length and every failure draw is observable.
        archive = TornadoArchive(small_tornado, DeviceArray(32), block_size=64)
        config = MissionConfig(
            steps_per_year=4, replacement_lag_steps=1, **hazard
        )
        return run_mission(archive, config, np.random.default_rng(seed))

    def test_wearout_failures_accumulate_with_age(self, small_tornado):
        report = self._mission(
            small_tornado, 5, years=6, afr=0.02, hazard_shape=4.0
        )
        failures = [e.step for e in report.events if e.kind == "failure"]
        early = sum(1 for step in failures if step < 8)
        late = len(failures) - early
        assert report.device_failures == early + late
        # Shape 4 wear-out: the old fleet fails much harder than the
        # young one.
        assert late > early

    def test_replacement_draws_infant_mortality(self, small_tornado):
        report = self._mission(
            small_tornado, 1, years=3, afr=0.5, infant_mortality=1.0
        )
        rebuilt = [e for e in report.events if e.kind == "replacement"]
        infants = [e for e in rebuilt if "infant-mortality" in e.detail]
        assert infants
        assert infants == rebuilt

    def test_hazard_runs_are_reproducible(self, small_tornado):
        hazard = dict(
            years=2.5,
            afr=0.3,
            hazard="bathtub",
            hazard_shape=4.0,
            infant_mortality=0.5,
            batch_defect_rate=0.2,
        )

        def run():
            report = self._mission(small_tornado, 77, **hazard)
            return [(e.step, e.kind, e.detail) for e in report.events]

        assert run() == run()
