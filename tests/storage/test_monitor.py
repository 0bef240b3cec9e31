"""Tests for proactive stripe monitoring."""

import pytest

from repro.storage import DeviceArray, StripeMonitor, TornadoArchive


@pytest.fixture
def archive(graph3):
    return TornadoArchive(graph3, DeviceArray(96), block_size=64)


PAYLOAD = bytes(range(256)) * 40


class TestScan:
    def test_healthy_archive_full_margin(self, archive):
        archive.put("obj", PAYLOAD)
        monitor = StripeMonitor(archive)
        report = monitor.scan()
        assert report.stripes
        # Graph 3's first failure is 5: margin 4 with nothing missing.
        assert all(s.margin == 4 for s in report.stripes)
        assert report.at_risk == ()

    def test_margin_decreases_with_failures(self, archive, rng):
        archive.put("obj", PAYLOAD)
        archive.devices.fail_random(3, rng)
        monitor = StripeMonitor(archive)
        report = monitor.scan()
        assert all(s.margin == 1 for s in report.stripes)
        assert all(s.at_risk for s in report.stripes)

    def test_lost_flag_beyond_first_failure(self, archive, rng):
        archive.put("obj", PAYLOAD)
        archive.devices.fail_random(5, rng)
        monitor = StripeMonitor(archive)
        worst = monitor.scan().worst()
        assert worst is not None
        assert worst.margin == -1
        assert worst.lost

    def test_describe(self, archive):
        archive.put("obj", PAYLOAD)
        text = StripeMonitor(archive).scan().describe()
        assert "stripes monitored" in text

    def test_empty_archive(self, archive):
        report = StripeMonitor(archive).scan()
        assert report.stripes == ()
        assert report.worst() is None


class TestRepairCycle:
    def test_repairs_only_endangered(self, archive, rng):
        archive.put("obj", PAYLOAD)
        monitor = StripeMonitor(archive, repair_margin=1)
        # Healthy: nothing to do.
        assert monitor.repair_cycle() == {}
        # Damage to the threshold, rebuild devices, expect repair.
        archive.devices.fail_random(3, rng)
        archive.devices.rebuild_all()
        repaired = monitor.repair_cycle()
        assert repaired.get("obj", 0) > 0
        assert all(s.margin == 4 for s in monitor.scan().stripes)

    def test_threshold_respected(self, archive, rng):
        archive.put("obj", PAYLOAD)
        monitor = StripeMonitor(archive, repair_margin=0)
        archive.devices.fail_random(2, rng)  # margin 2: above threshold 0
        archive.devices.rebuild_all()
        assert monitor.repair_cycle() == {}

    def test_rejects_negative_margin(self, archive):
        with pytest.raises(ValueError):
            StripeMonitor(archive, repair_margin=-1)

    def test_endangered_stripes_are_what_a_cycle_repairs(self, archive, rng):
        archive.put("obj", PAYLOAD)
        archive.put("other", PAYLOAD[:100])
        monitor = StripeMonitor(archive, repair_margin=1)
        archive.devices.fail_random(3, rng)
        archive.devices.rebuild_all()
        report = monitor.scan()
        endangered = report.endangered(1)
        assert endangered and all(
            s.margin <= 1 and s.missing_blocks for s in endangered
        )
        assert report.endangered(0) == ()
        assert monitor.queue_depth() == len(endangered)
        repaired = monitor.repair_cycle(report)
        assert set(repaired) == {s.object_name for s in endangered}
        assert monitor.queue_depth() == 0
