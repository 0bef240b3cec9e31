"""Tests for simulated devices and failure injection."""

import numpy as np
import pytest

from repro.storage import Device, DeviceArray, DeviceState


class TestDevice:
    def test_write_read_roundtrip(self):
        d = Device(device_id=0)
        d.write_block("a", b"hello")
        assert d.read_block("a") == b"hello"
        assert d.reads == 1
        assert d.writes == 1

    def test_missing_block_keyerror(self):
        d = Device(device_id=0)
        with pytest.raises(KeyError):
            d.read_block("missing")

    def test_failed_device_raises_io(self):
        d = Device(device_id=0)
        d.write_block("a", b"x")
        d.fail()
        with pytest.raises(IOError):
            d.read_block("a")
        with pytest.raises(IOError):
            d.write_block("b", b"y")

    def test_failure_destroys_contents(self):
        d = Device(device_id=0)
        d.write_block("a", b"x")
        d.fail()
        d.rebuild()
        with pytest.raises(KeyError):
            d.read_block("a")

    def test_spin_up_counter(self):
        d = Device(device_id=0)
        d.write_block("a", b"x")
        d.spin_down()
        assert d.state is DeviceState.STANDBY
        d.read_block("a")
        assert d.state is DeviceState.ONLINE
        assert d.spin_ups == 1

    def test_spin_down_is_idempotent_for_failed(self):
        d = Device(device_id=0)
        d.fail()
        d.spin_down()  # no state change
        assert d.state is DeviceState.FAILED

    def test_available_property(self):
        d = Device(device_id=0)
        assert d.available
        d.spin_down()
        assert d.available
        d.fail()
        assert not d.available


class TestDeviceArray:
    def test_length_and_indexing(self):
        arr = DeviceArray(8)
        assert len(arr) == 8
        assert arr[3].device_id == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeviceArray(0)

    def test_available_mask(self):
        arr = DeviceArray(4)
        arr.fail([1, 3])
        np.testing.assert_array_equal(
            arr.available_mask, [True, False, True, False]
        )
        assert arr.failed_ids == [1, 3]

    def test_fail_random_exact_count(self, rng):
        arr = DeviceArray(20)
        failed = arr.fail_random(5, rng)
        assert len(failed) == 5
        assert len(arr.failed_ids) == 5

    def test_fail_random_only_alive(self, rng):
        arr = DeviceArray(5)
        arr.fail([0, 1, 2])
        failed = arr.fail_random(2, rng)
        assert set(failed) == {3, 4}
        with pytest.raises(ValueError):
            arr.fail_random(1, rng)

    def test_rebuild_all(self):
        arr = DeviceArray(4)
        arr.fail([0, 2])
        arr.rebuild_all()
        assert arr.failed_ids == []

    def test_spin_down_all_and_counters(self):
        arr = DeviceArray(3)
        arr[0].write_block("k", b"v")
        arr.spin_down_all()
        arr[0].read_block("k")
        assert arr.total_spin_ups() == 1
        assert arr.total_reads() == 1
