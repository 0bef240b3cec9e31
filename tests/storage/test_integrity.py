"""Tests for silent-corruption detection and scrubbing."""

import pytest

from repro.storage import DataLossError, DeviceArray, TornadoArchive
from repro.storage.integrity import (
    IntegrityScanner,
    corrupt_block,
)

PAYLOAD = bytes(range(256)) * 30


@pytest.fixture
def setup(small_tornado):
    archive = TornadoArchive(
        small_tornado, DeviceArray(40), block_size=64
    )
    archive.put("obj", PAYLOAD)
    scanner = IntegrityScanner(archive)
    scanner.register("obj")
    return archive, scanner


class TestVerify:
    def test_clean_after_put(self, setup):
        archive, scanner = setup
        report = scanner.verify("obj")
        assert report.clean
        assert report.blocks_checked > 0

    def test_detects_single_flip(self, setup):
        archive, scanner = setup
        corrupt_block(archive, "obj", stripe_index=0, node=5)
        report = scanner.verify("obj")
        assert not report.clean
        assert len(report.corrupt) == 1
        bad = report.corrupt[0]
        assert (bad.stripe_index, bad.node) == (0, 5)

    def test_failed_devices_are_not_corruption(self, setup, rng):
        archive, scanner = setup
        archive.devices.fail_random(3, rng)
        report = scanner.verify("obj")
        assert report.clean  # erasures are a different failure mode

    def test_undetectable_without_registration(self, small_tornado):
        archive = TornadoArchive(
            small_tornado, DeviceArray(40), block_size=64
        )
        archive.put("obj", PAYLOAD)
        scanner = IntegrityScanner(archive)  # no register()
        corrupt_block(archive, "obj", 0, 3)
        assert scanner.verify("obj").blocks_checked == 0


class TestScrub:
    def test_scrub_noop_when_clean(self, setup):
        _, scanner = setup
        assert scanner.scrub("obj") == 0

    def test_scrub_repairs_corruption(self, setup):
        archive, scanner = setup
        corrupt_block(archive, "obj", 0, 2)
        corrupt_block(archive, "obj", 0, 17)
        assert scanner.scrub("obj") == 2
        assert scanner.verify("obj").clean
        assert archive.get("obj") == PAYLOAD

    def test_scrubbed_data_matches_original_not_corruption(self, setup):
        """The rewritten block must carry the original content."""
        archive, scanner = setup
        record = archive.objects["obj"].stripes[0]
        from repro.storage.blockstore import block_key

        key = block_key("obj", 0, 2)
        dev = archive.devices[record.placement.device_of[2]]
        original = dev.blocks[key]
        corrupt_block(archive, "obj", 0, 2)
        assert dev.blocks[key] != original
        scanner.scrub("obj")
        assert dev.blocks[key] == original

    def test_scrub_with_concurrent_failures(self, setup, rng):
        archive, scanner = setup
        archive.devices.fail_random(2, rng)
        healthy_nodes = [
            n
            for n, d in enumerate(
                archive.objects["obj"].stripes[0].placement.device_of
            )
            if archive.devices.available_mask[d]
        ]
        corrupt_block(archive, "obj", 0, healthy_nodes[0])
        assert scanner.scrub("obj") == 1
        assert archive.get("obj") == PAYLOAD

    def test_scrub_beyond_tolerance_raises(self, setup):
        """Mass corruption exceeding the code's tolerance surfaces as
        data loss, not silent acceptance."""
        archive, scanner = setup
        record = archive.objects["obj"].stripes[0]
        for node in range(archive.graph.num_nodes):
            corrupt_block(archive, "obj", 0, node)
        with pytest.raises(DataLossError):
            scanner.scrub("obj")
