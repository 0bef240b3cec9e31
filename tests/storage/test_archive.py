"""Tests for the transactional archive."""

import pytest

from repro.storage import DataLossError, DeviceArray, TornadoArchive


@pytest.fixture
def archive(small_tornado):
    return TornadoArchive(
        small_tornado, DeviceArray(40), block_size=64
    )


PAYLOAD = b"The quick brown fox jumps over the lazy dog. " * 30


class TestPutGet:
    def test_roundtrip(self, archive):
        archive.put("obj", PAYLOAD)
        assert archive.get("obj") == PAYLOAD

    def test_manifest_bookkeeping(self, archive):
        manifest = archive.put("obj", PAYLOAD)
        assert manifest.size == len(PAYLOAD)
        assert len(manifest.stripes) >= 1
        assert "obj" in archive.objects

    def test_multi_object_storage(self, archive):
        archive.put("a", b"first object")
        archive.put("b", b"second object")
        assert archive.get("a") == b"first object"
        assert archive.get("b") == b"second object"

    def test_unknown_object(self, archive):
        with pytest.raises(KeyError):
            archive.get("ghost")

    def test_overwrite_replaces(self, archive):
        archive.put("obj", b"v1")
        archive.put("obj", b"v2")
        assert archive.get("obj") == b"v2"

    def test_empty_object(self, archive):
        archive.put("empty", b"")
        assert archive.get("empty") == b""

    def test_pool_too_small_rejected(self, small_tornado):
        with pytest.raises(ValueError):
            TornadoArchive(small_tornado, DeviceArray(10))


class TestFailureTolerance:
    def test_survives_first_failure_minus_one(self, archive, rng):
        archive.put("obj", PAYLOAD)
        archive.devices.fail_random(2, rng)
        assert archive.get("obj") == PAYLOAD

    def test_data_loss_raises(self, archive):
        archive.put("obj", PAYLOAD)
        # kill every device: certainly unrecoverable
        archive.devices.fail(range(len(archive.devices)))
        with pytest.raises((DataLossError, IOError)):
            archive.get("obj")

    def test_data_loss_error_carries_context(self, small_tornado):
        archive = TornadoArchive(
            small_tornado, DeviceArray(32), block_size=32
        )
        archive.put("obj", b"x" * 100)
        record = archive.objects["obj"].stripes[0]
        # fail exactly the devices of the stripe's data nodes plus all
        # checks: guaranteed loss
        archive.devices.fail(record.placement.device_of)
        with pytest.raises(DataLossError) as exc:
            archive.get("obj")
        assert exc.value.object_name == "obj"


class TestDelete:
    def test_delete_removes_blocks(self, archive):
        archive.put("obj", PAYLOAD)
        archive.delete("obj")
        assert "obj" not in archive.objects
        total_blocks = sum(
            len(d.blocks) for d in archive.devices.devices
        )
        assert total_blocks == 0

    def test_overwrite_discards_the_replaced_blocks(self, archive):
        first = archive.put("obj", PAYLOAD)
        second = archive.put("obj", PAYLOAD[::-1])
        held = {
            key for d in archive.devices.devices for key in d.blocks
        }
        stripe_blocks = len(first.stripes) * archive.graph.num_nodes
        assert len(held) == stripe_blocks
        assert all(
            key.rsplit("/", 2)[1]
            in {str(r.index) for r in second.stripes}
            for key in held
        )
        assert archive.get("obj") == PAYLOAD[::-1]
        archive.delete("obj")
        assert sum(len(d.blocks) for d in archive.devices.devices) == 0

    def test_delete_unknown(self, archive):
        with pytest.raises(KeyError):
            archive.delete("ghost")


class TestRepair:
    def test_missing_blocks_empty_when_healthy(self, archive):
        archive.put("obj", PAYLOAD)
        missing = archive.missing_blocks("obj")
        assert all(not v for v in missing.values())

    def test_repair_after_rebuild(self, archive, rng):
        archive.put("obj", PAYLOAD)
        archive.devices.fail_random(3, rng)
        archive.devices.rebuild_all()
        missing_before = archive.missing_blocks("obj")
        assert any(v for v in missing_before.values())
        repaired = archive.repair("obj")
        assert repaired > 0
        missing_after = archive.missing_blocks("obj")
        assert all(not v for v in missing_after.values())
        assert archive.get("obj") == PAYLOAD

    def test_repair_noop_when_healthy(self, archive):
        archive.put("obj", PAYLOAD)
        assert archive.repair("obj") == 0
