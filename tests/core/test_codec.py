"""Tests for the real-data XOR codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockRun,
    DecodeFailure,
    MLDecoder,
    PeelingDecoder,
    PlanCache,
    TornadoCodec,
    stripe_rows,
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

    @pytest.mark.parametrize(
        "block_size", [1.5, 32.0, True, np.float64(32)],
        ids=["fraction", "whole-float", "bool", "np.float64"],
    )
    def test_rejects_non_integer_block_size(self, small_tornado, block_size):
        with pytest.raises(TypeError):
            TornadoCodec(small_tornado, block_size=block_size)

    def test_numpy_integer_block_size(self, small_tornado, rng):
        codec = TornadoCodec(small_tornado, block_size=np.int64(32))
        assert codec.block_size == 32 and type(codec.block_size) is int
        data = random_data(codec, rng)
        np.testing.assert_array_equal(
            codec.encode_blocks(data),
            TornadoCodec(small_tornado, block_size=32).encode_blocks(data),
        )


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


class TestRecover:
    """One stripe recovery: every row, through whichever cache."""

    def test_every_row_equals_a_fresh_encode(self, graph3, rng):
        codec = TornadoCodec(graph3, block_size=8)
        full = codec.encode_blocks(random_data(codec, rng))
        for missing in TestReplaySchedule.masks(graph3):
            present = np.ones(graph3.num_nodes, dtype=bool)
            present[list(missing)] = False
            damaged = full.copy()
            damaged[~present] = 0xFF  # absent rows must not be read
            assert np.array_equal(codec.recover(damaged, present), full)

    def test_a_stuck_row_is_a_decode_failure(self, rng):
        g = mirrored_graph(4)
        codec = TornadoCodec(g, block_size=8)
        full = codec.encode_blocks(random_data(codec, rng))
        present = np.ones(8, dtype=bool)
        present[[0, 4, 5]] = False  # a whole pair, and a recoverable copy
        with pytest.raises(DecodeFailure) as exc:
            codec.recover(full, present)
        # one convention: the stuck data nodes, not the whole residual
        assert exc.value.residual == frozenset({0})
        with pytest.raises(DecodeFailure) as exc:
            codec.decode_blocks(full, present)
        assert exc.value.residual == frozenset({0})

    @staticmethod
    def outcome(codec, blocks, present):
        try:
            return codec.decode_blocks(blocks, present).tobytes()
        except DecodeFailure as exc:
            return exc.residual

    def test_the_cache_handed_in_selects_nothing(self, graph3, rng):
        shared = PlanCache()
        other_owner = TornadoCodec(graph3, 8, shared)
        codecs = [
            TornadoCodec(graph3, 8, shared),
            TornadoCodec(graph3, 8),
            TornadoCodec(graph3, 8, PlanCache(capacity=0)),
        ]
        ml = MLDecoder(graph3)
        data = random_data(codecs[0], rng)
        full = codecs[0].encode_blocks(data)
        masks = list(TestReplaySchedule.masks(graph3))[96 + 96 * 95 // 2 :]
        seeded = np.random.default_rng(23)
        for k in (8, 24, 34, 40, 48):  # past first failure: some stick
            masks += [seeded.choice(96, k, replace=False) for _ in range(60)]
        decoded = stuck = 0
        for missing in masks:
            present = np.ones(96, dtype=bool)
            present[list(missing)] = False
            want = self.outcome(other_owner, full, present)
            for codec in codecs:
                assert self.outcome(codec, full, present) == want
            if isinstance(want, bytes):
                assert want == data.tobytes()
                assert ml.decode_blocks(full, present).tobytes() == want
                decoded += 1
            else:
                assert want and want <= set(graph3.data_nodes)
                stuck += 1
        assert decoded > 300 and stuck > 50
        assert shared.hits >= len(masks)  # the second owner re-plans nothing
        assert codecs[2].plans.stats()["size"] == 0

    def test_nothing_absent_is_no_lookup_and_no_replay(self, codec, rng):
        data = random_data(codec, rng)
        blocks = codec.encode_blocks(data)
        present = np.ones(codec.graph.num_nodes, dtype=bool)
        np.testing.assert_array_equal(
            codec.decode_blocks(blocks, present), data
        )
        assert codec.plans.stats()["misses"] == 0


def landed(rows, run, count=4, size=4):
    blocks = np.zeros((count, size), dtype=np.uint8)
    present = np.zeros(count, dtype=bool)
    refused = stripe_rows(blocks, present, rows, run)
    return blocks, present, refused


class TestStripeRows:
    def test_lands_the_run_in_its_rows(self):
        blocks, present, refused = landed([2, 0], BlockRun.of([b"wxyz", b"abcd"]))
        assert refused == 0
        assert present.tolist() == [True, False, True, False]
        assert blocks[0].tobytes() == b"abcd"
        assert blocks[2].tobytes() == b"wxyz"
        assert not blocks[[1, 3]].any()

    def test_an_empty_run_lands_nothing(self):
        blocks, present, refused = landed([], BlockRun())
        assert refused == 0 and not present.any() and not blocks.any()

    def test_refuses_what_is_not_a_block_of_the_stripe(self):
        run = BlockRun.of([b"good", b"sho", b"toolong", b"nega", b"past", b""])
        blocks, present, refused = landed([1, 2, 3, -1, 4, 0], run)
        assert refused == 5
        assert present.tolist() == [False, True, False, False]
        assert blocks[1].tobytes() == b"good"
        assert not blocks[[0, 2, 3]].any()

    @pytest.mark.parametrize(
        "rows, run, refused",
        [
            ([0, 1], BlockRun.of([b"aaaa"] * 3), 3),  # a block too many
            ([0, 1], BlockRun.of([b"aaaa"]), 2),  # a block too few
            ([0, 1], BlockRun((4, 5), b"a" * 8), 2),  # sizes past the run
            ([0, 1], BlockRun((4, 3), b"a" * 8), 2),  # sizes short of it
            ([], BlockRun((), b"a"), 0),  # bytes no block claims: none lost
        ],
    )
    def test_a_run_that_does_not_add_up_lands_nothing(self, rows, run, refused):
        blocks, present, got = landed(rows, run)
        assert got == refused
        assert not present.any() and not blocks.any()

    def test_a_repeated_row_takes_the_later_block(self):
        blocks, present, refused = landed([0, 0], BlockRun.of([b"cccc", b"dddd"]))
        assert refused == 0 and present.tolist() == [True, False, False, False]
        assert blocks[0].tobytes() == b"dddd"

    def test_a_run_splits_into_its_blocks(self):
        run = BlockRun.of([b"ab", b"", memoryview(b"cde")])
        assert run == BlockRun((2, 0, 3), b"abcde")
        assert run.split(3) == [b"ab", b"", b"cde"]
        for count, bad in ((2, run), (3, BlockRun((2, 0, 4), b"abcde"))):
            with pytest.raises(ValueError, match="is not"):
                bad.split(count)


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
