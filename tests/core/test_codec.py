"""Tests for the real-data XOR codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DecodeFailure,
    PeelingDecoder,
    TornadoCodec,
    tornado_graph,
)
from repro.graphs import mirrored_graph


@pytest.fixture
def codec(small_tornado):
    return TornadoCodec(small_tornado, block_size=32)


def random_data(codec, rng):
    return rng.integers(
        0, 256, (codec.graph.num_data, codec.block_size), dtype=np.uint8
    )


class TestEncodeBlocks:
    def test_data_rows_preserved(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        np.testing.assert_array_equal(
            blocks[list(codec.graph.data_nodes)], data
        )

    def test_every_constraint_satisfied(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        for con in codec.graph.constraints:
            expect = np.bitwise_xor.reduce(blocks[list(con.lefts)], axis=0)
            np.testing.assert_array_equal(blocks[con.check], expect)

    def test_shape_validation(self, codec):
        with pytest.raises(ValueError):
            codec.encode_blocks(np.zeros((3, 32), dtype=np.uint8))

    def test_rejects_bad_block_size(self, small_tornado):
        with pytest.raises(ValueError):
            TornadoCodec(small_tornado, block_size=0)


class TestDecodeBlocks:
    def test_roundtrip_no_loss(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        np.testing.assert_array_equal(
            codec.decode_blocks(blocks, present), data
        )

    def test_roundtrip_with_losses(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        present[[0, 5, 20, 30]] = False
        np.testing.assert_array_equal(
            codec.decode_blocks(blocks, present), data
        )

    def test_absent_rows_ignored_even_if_corrupt(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        corrupted = blocks.copy()
        corrupted[7] ^= 0xFF  # garbage in a lost block
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        present[7] = False
        np.testing.assert_array_equal(
            codec.decode_blocks(corrupted, present), data
        )

    def test_unrecoverable_raises_decode_failure(self, rng):
        g = mirrored_graph(4)
        codec = TornadoCodec(g, block_size=8)
        data = rng.integers(0, 256, (4, 8), dtype=np.uint8)
        blocks = codec.encode_blocks(data)
        present = np.ones(8, dtype=bool)
        present[[0, 4]] = False  # whole mirror pair
        with pytest.raises(DecodeFailure) as exc:
            codec.decode_blocks(blocks, present)
        assert 0 in exc.value.residual

    def test_mask_shape_validation(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        with pytest.raises(ValueError):
            codec.decode_blocks(blocks, np.ones(5, dtype=bool))

    def test_input_blocks_not_mutated(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        snapshot = blocks.copy()
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        present[[1, 2]] = False
        codec.decode_blocks(blocks, present)
        np.testing.assert_array_equal(blocks, snapshot)


class TestReplaySchedule:
    """The all-rows replay repair takes its lost blocks from."""

    @staticmethod
    def masks(graph):
        n = graph.num_nodes
        yield from ([i] for i in range(n))
        yield from itertools.combinations(range(n), 2)
        # One member of a strided placement lost, every anchor: what
        # repair sees when a whole node is gone.
        for members in (3, 4, 5):
            for lost in range(members):
                for anchor in range(members):
                    yield [
                        j for j in range(n) if (anchor + j) % members == lost
                    ]
        seeded = np.random.default_rng(19)
        for _ in range(200):  # first_failure - 1 = 4 scattered losses
            yield seeded.choice(n, 4, replace=False)

    def test_lost_rows_equal_a_fresh_encode(self, graph3, rng):
        codec = TornadoCodec(graph3, block_size=8)
        decoder = PeelingDecoder(graph3)
        full = codec.encode_blocks(random_data(codec, rng))
        cases = 0
        for missing in self.masks(graph3):
            plan = decoder.decode(missing)
            # Peeling runs to a fixpoint: once the data is back, every
            # lost check is solved as well.
            assert plan.success and not plan.residual, missing
            present = np.ones(graph3.num_nodes, dtype=bool)
            present[list(missing)] = False
            damaged = full.copy()
            damaged[~present] = 0xFF  # absent rows must not be read
            replayed = codec.replay_schedule(damaged, present, plan.steps)
            assert np.array_equal(replayed, full), missing
            cases += 1
        assert cases == 96 + 96 * 95 // 2 + 3 * 3 + 4 * 4 + 5 * 5 + 200

    def test_data_rows_are_what_decode_returns(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        present[[0, 5, 20, 30]] = False
        steps = PeelingDecoder(codec.graph).decode([0, 5, 20, 30]).steps
        stripe = codec.replay_schedule(blocks, present, steps)
        np.testing.assert_array_equal(
            stripe[list(codec.graph.data_nodes)],
            codec.decode_blocks_with_schedule(blocks, present, steps),
        )
        np.testing.assert_array_equal(stripe, blocks)


class TestPayloadAPI:
    def test_capacity(self, codec):
        assert codec.stripe_capacity == 16 * 32

    def test_single_stripe_roundtrip(self, codec):
        payload = b"archival object payload" * 3
        stripes = codec.encode_payload(payload)
        assert len(stripes) == 1
        assert codec.decode_payload(stripes) == payload

    def test_multi_stripe_roundtrip(self, codec):
        payload = bytes(range(256)) * 9  # > one stripe
        stripes = codec.encode_payload(payload)
        assert len(stripes) > 1
        assert codec.decode_payload(stripes) == payload

    def test_empty_payload(self, codec):
        stripes = codec.encode_payload(b"")
        assert len(stripes) == 1
        assert codec.decode_payload(stripes) == b""

    def test_degraded_multi_stripe_roundtrip(self, codec, rng):
        payload = bytes(rng.integers(0, 256, 2000, dtype=np.uint8))
        stripes = codec.encode_payload(payload)
        masks = []
        for _ in stripes:
            mask = np.ones(codec.graph.num_nodes, dtype=bool)
            lost = rng.choice(codec.graph.num_nodes, 3, replace=False)
            mask[lost] = False
            masks.append(mask)
        assert codec.decode_payload(stripes, masks) == payload

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=3000))
    def test_payload_roundtrip_property(self, payload):
        codec = TornadoCodec(tornado_graph(16, seed=3), block_size=32)
        assert codec.decode_payload(codec.encode_payload(payload)) == payload
