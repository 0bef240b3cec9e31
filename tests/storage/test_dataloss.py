"""Data-loss and degraded-read paths through the storage stack.

Exercises the unhappy paths end-to-end: missions that genuinely lose
data, repair cycles facing more failures than the code can absorb, and
``archive.get`` against needed devices in each bad state (STANDBY spins
up, UNAVAILABLE retries, FAILED falls through to loss).
"""

import numpy as np
import pytest

from repro.obs.registry import capture
from repro.resilience import (
    DrawerOutages,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.storage import (
    DataLossError,
    DeviceArray,
    DeviceState,
    MissionConfig,
    StripeMonitor,
    TornadoArchive,
    TransientUnavailableError,
    run_mission,
)

PAYLOAD = bytes(range(256)) * 8


@pytest.fixture
def archive(small_tornado):
    archive = TornadoArchive(small_tornado, DeviceArray(32), block_size=64)
    archive.put("doc", PAYLOAD)
    return archive


class TestMissionLoss:
    def test_destructive_injector_forces_data_loss(self, archive):
        """A drawer-destroying storm the monitor cannot outrun must end
        the mission in a recorded loss, not an exception."""
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    DrawerOutages(rate=1.0, drawer_size=12, mode="fail"),
                )
            )
        )
        config = MissionConfig(
            years=1.0,
            steps_per_year=12,
            afr=0.0,
            replacement_lag_steps=50,
        )
        report = run_mission(
            archive,
            config,
            np.random.default_rng(0),
            injector=injector,
        )
        assert not report.survived
        assert "doc" in report.lost_objects
        assert report.events[-1].kind == "loss"

    def test_loss_stops_the_mission_early(self, archive):
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    DrawerOutages(rate=1.0, drawer_size=12, mode="fail"),
                )
            )
        )
        config = MissionConfig(
            years=10.0, afr=0.0, replacement_lag_steps=50
        )
        report = run_mission(
            archive,
            config,
            np.random.default_rng(0),
            injector=injector,
        )
        loss_steps = [e.step for e in report.events if e.kind == "loss"]
        assert loss_steps and loss_steps[0] < config.num_steps - 1


class TestOverwhelmedRepair:
    def test_repair_cycle_raises_when_margin_exceeded(self, archive):
        """More simultaneous failures than the stripe can absorb must
        surface as DataLossError from the repair cycle."""
        archive.devices.fail(range(20))  # 12 survivors < 16 data blocks
        monitor = StripeMonitor(archive, repair_margin=2)
        with pytest.raises(DataLossError):
            monitor.repair_cycle()

    def test_repair_cycle_skips_transient_unavailability(self, archive):
        """The same outage pattern, but transient: the cycle defers the
        object instead of declaring loss."""
        archive.devices.interrupt(range(20))
        monitor = StripeMonitor(archive, repair_margin=2)
        repaired = monitor.repair_cycle()  # must not raise
        assert "doc" not in repaired
        archive.devices.restore(range(20))
        assert archive.get("doc") == PAYLOAD

    def test_repair_cycle_recovers_within_margin(self, archive):
        archive.devices.fail([0, 1])
        monitor = StripeMonitor(archive, repair_margin=3)
        for d in (0, 1):
            archive.devices[d].rebuild()
        repaired = monitor.repair_cycle()
        assert repaired.get("doc", 0) > 0
        assert archive.get("doc") == PAYLOAD


class TestGetDeviceStates:
    def test_standby_devices_serve_after_spin_up(self, archive):
        for d in archive.devices.devices:
            d.spin_down()
        assert all(
            d.state is DeviceState.STANDBY
            for d in archive.devices.devices
        )
        assert archive.get("doc") == PAYLOAD
        assert any(d.spin_ups > 0 for d in archive.devices.devices)

    def test_failed_devices_raise_data_loss(self, archive):
        archive.devices.fail(range(20))
        with pytest.raises(DataLossError):
            archive.get("doc")

    def test_unavailable_devices_raise_transient(self, archive):
        archive.devices.interrupt(range(20))
        with pytest.raises(TransientUnavailableError) as excinfo:
            archive.get("doc")
        assert excinfo.value.device_ids  # names the culprits

    def test_retry_rides_out_the_outage(self, archive):
        archive.devices.interrupt(range(20))

        def recover(_delay):
            archive.devices.restore(range(20))

        retry = RetryPolicy(
            max_attempts=2, jitter=0.0, seed=0, sleep=recover
        )
        assert archive.get("doc", retry=retry) == PAYLOAD

    def test_retry_exhaustion_still_transient(self, archive):
        archive.devices.interrupt(range(20))
        retry = RetryPolicy(
            max_attempts=1, jitter=0.0, seed=0, sleep=lambda _d: None
        )
        with pytest.raises(TransientUnavailableError):
            archive.get("doc", retry=retry)
        # the data is intact once the devices return
        archive.devices.restore(range(20))
        assert archive.get("doc") == PAYLOAD

    def test_mixed_failed_and_unavailable_prefers_transient(self, archive):
        """While any needed device may still come back, the archive
        must not declare permanent loss."""
        archive.devices.fail(range(10))
        archive.devices.interrupt(range(10, 20))
        with pytest.raises(TransientUnavailableError):
            archive.get("doc")


class TestPlanFallback:
    def test_fallback_with_recovering_availability(self, archive):
        """Every strategy of the chain fails while the devices are dark;
        the policy backs off, the hook brings them back, and the next
        walk of the chain decodes."""
        archive.devices.interrupt(range(20))
        slept = []

        def recover(delay):
            slept.append(delay)
            archive.devices.restore(range(20))

        retry = RetryPolicy(
            max_attempts=2, jitter=0.0, seed=0, sleep=recover
        )
        with capture() as registry:
            assert archive.get("doc", retry=retry) == PAYLOAD
        counters = registry.snapshot()["counters"]
        assert slept == retry.delays()[:1]
        assert counters["resilience.reads.degraded"] == 1
        assert counters["resilience.reads.retries"] == 1
        assert counters["resilience.reads.recovered"] == 1
