"""Cross-engine decode agreement, packing helpers, engine selection.

The two batch kernels (:mod:`repro.core.bitdecoder`,
:mod:`repro.core.sparse`) must be indistinguishable from each other
and from the scalar :class:`PeelingDecoder` on every erasure pattern;
the scalar decoder is the differential-testing oracle, and where the
input is a raw relation matrix no graph expresses, a plain-Python
fixpoint in this file is.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.decoder as decoder_module
from repro.core import (
    DECODE_ENGINES,
    BitsetBatchDecoder,
    MLDecoder,
    PeelingDecoder,
    SparseBitsetDecoder,
    make_batch_decoder,
    pack_cases,
    packed_random_loss_masks,
    resolve_engine,
    tornado_graph,
    unpack_cases,
)
from repro.core.bitdecoder import missing_sets_to_unknown
from repro.core.lossmasks import boolean_loss_masks


def random_small_graphs():
    """~50 random small cascades spanning sizes and degree mixes."""
    graphs = []
    for num_data in (8, 12, 16, 24):
        for seed in range(13):
            graphs.append(
                tornado_graph(
                    num_data, seed=seed, min_final_lefts=num_data // 2
                )
            )
    return graphs[:50]


def scalar_success(graph, masks):
    """One scalar peel per row: the oracle for the batch kernels."""
    scalar = PeelingDecoder(graph)
    return np.array(
        [scalar.is_recoverable(np.flatnonzero(row)) for row in masks],
        dtype=bool,
    )


class TestEngineAgreement:
    def test_property_four_way_agreement(self):
        """Scalar, bitset, sparse agree case for case on ~50 graphs, and
        the ML decoder recovers whatever peeling recovers."""
        rng = np.random.default_rng(2024)
        for graph in random_small_graphs():
            n = graph.num_nodes
            bitset = BitsetBatchDecoder(graph)
            sparse = SparseBitsetDecoder(graph)
            ml = MLDecoder(graph)
            k = int(rng.integers(1, n))
            masks = boolean_loss_masks(n, k, 64, rng)
            # Edge rows: none lost, all lost.
            masks[0] = False
            masks[1] = True
            ok_scalar = scalar_success(graph, masks)
            assert np.array_equal(
                ok_scalar, bitset.decode_batch(masks)
            ), graph.name
            assert np.array_equal(
                ok_scalar, sparse.decode_batch(masks)
            ), graph.name
            assert ok_scalar[0] and not ok_scalar[1]
            for row in np.flatnonzero(ok_scalar):
                assert ml.is_recoverable(
                    np.flatnonzero(masks[row])
                ), (graph.name, row)

    def test_duplicate_nodes_in_missing_sets(self, small_tornado):
        sets = [[0, 0, 1], [3, 3, 3], [], [5, 4, 5, 4]]
        scalar = PeelingDecoder(small_tornado)
        want = np.array([scalar.is_recoverable(ms) for ms in sets])
        bit = BitsetBatchDecoder(small_tornado).decode_missing_sets(sets)
        sp = SparseBitsetDecoder(small_tornado).decode_missing_sets(sets)
        assert np.array_equal(want, bit)
        assert np.array_equal(want, sp)
        assert want[2]  # nothing lost

    def test_empty_batch(self, small_tornado):
        for engine in DECODE_ENGINES:
            dec = make_batch_decoder(small_tornado, engine)
            out = dec.decode_batch(
                np.zeros((0, small_tornado.num_nodes), dtype=bool)
            )
            assert out.shape == (0,)

    def test_shape_validation(self, small_tornado):
        for engine in DECODE_ENGINES:
            dec = make_batch_decoder(small_tornado, engine)
            with pytest.raises(ValueError):
                dec.decode_batch(np.zeros((4, 7), dtype=bool))

    def test_decode_packed_trims_pad_lanes(self, graph3):
        rng = np.random.default_rng(9)
        bit = BitsetBatchDecoder(graph3)
        sp = SparseBitsetDecoder(graph3)
        for batch in (1, 63, 64, 65, 130):
            masks = boolean_loss_masks(graph3.num_nodes, 30, batch, rng)
            expected = scalar_success(graph3, masks)
            out = bit.decode_packed(pack_cases(masks), batch)
            assert out.shape == (batch,)
            assert np.array_equal(out, expected)
            out_sp = sp.decode_packed(pack_cases(masks), batch)
            assert out_sp.shape == (batch,)
            assert np.array_equal(out_sp, expected)


class TestPackingHelpers:
    def test_pack_unpack_roundtrip(self, rng):
        for batch in (1, 2, 63, 64, 65, 200):
            masks = rng.random((batch, 17)) < 0.3
            packed = pack_cases(masks)
            assert packed.shape == (17, (batch + 63) // 64)
            assert np.array_equal(unpack_cases(packed, batch), masks)

    def test_packed_generator_matches_bool_generator(self):
        """Same seed → identical masks and identical downstream state."""
        for k in (1, 5, 42, 96):
            r1 = np.random.default_rng(77)
            r2 = np.random.default_rng(77)
            packed = packed_random_loss_masks(96, k, 300, r1)
            masks = boolean_loss_masks(96, k, 300, r2)
            assert np.array_equal(packed, pack_cases(masks)), k
            # The generators consumed identical draws.
            assert r1.random() == r2.random()

    def test_packed_generator_exact_k(self):
        rng = np.random.default_rng(3)
        packed = packed_random_loss_masks(40, 7, 130, rng)
        masks = unpack_cases(packed, 130)
        assert (masks.sum(axis=1) == 7).all()

    def test_packed_generator_k_zero(self):
        rng = np.random.default_rng(3)
        packed = packed_random_loss_masks(40, 0, 100, rng)
        assert packed.shape == (40, 2)
        assert not packed.any()

    def test_missing_sets_to_unknown_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            missing_sets_to_unknown([[0, 99]], 10)
        with pytest.raises(ValueError):
            missing_sets_to_unknown([[-1]], 10)


class TestEngineSelection:
    def test_default_is_bitset(self, monkeypatch):
        assert resolve_engine() == "bitset"
        assert resolve_engine("auto") == "bitset"
        assert resolve_engine(None) == "bitset"
        # The retired override variable changes nothing.
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "sparse")
        assert resolve_engine("auto") == "bitset"
        assert resolve_engine("auto", num_nodes=96) == "bitset"

    def test_unknown_engine_rejected(self):
        for name in ("gpu", "matmul"):
            with pytest.raises(ValueError, match="unknown decode engine"):
                resolve_engine(name)
            with pytest.raises(ValueError, match="unknown decode engine"):
                resolve_engine(name, num_nodes=96)

    def test_make_batch_decoder_classes(self, small_tornado, monkeypatch):
        assert isinstance(
            make_batch_decoder(small_tornado), BitsetBatchDecoder
        )
        assert isinstance(
            make_batch_decoder(small_tornado, "sparse"),
            SparseBitsetDecoder,
        )
        with pytest.raises(ValueError, match="unknown decode engine"):
            make_batch_decoder(small_tornado, "matmul")
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "sparse")
        assert isinstance(
            make_batch_decoder(small_tornado), BitsetBatchDecoder
        )

    def test_engine_attribute(self, small_tornado):
        assert DECODE_ENGINES == ("bitset", "sparse")
        for engine in DECODE_ENGINES:
            assert make_batch_decoder(small_tornado, engine).engine == engine

    def test_auto_picks_sparse_above_cutoff(
        self, monkeypatch, small_tornado
    ):
        """The size heuristic flips exactly at _SPARSE_AUTO_MIN_NODES."""
        n = small_tornado.num_nodes  # 32
        monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", n + 1)
        assert resolve_engine("auto", num_nodes=n) == "bitset"
        assert isinstance(
            make_batch_decoder(small_tornado), BitsetBatchDecoder
        )
        monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", n)
        assert resolve_engine("auto", num_nodes=n) == "sparse"
        assert isinstance(
            make_batch_decoder(small_tornado), SparseBitsetDecoder
        )
        # Without a size hint, auto keeps the bitset default.
        assert resolve_engine("auto") == "bitset"
        # The retired override variable does not beat the size rule.
        monkeypatch.setenv("REPRO_DECODE_ENGINE", "bitset")
        assert resolve_engine("auto", num_nodes=n) == "sparse"

    def test_decode_packed_is_each_kernels_own_attribute(self):
        """One shared body, bound in each kernel's own namespace (the
        benchmark's layer hooks patch it per class)."""
        bit = BitsetBatchDecoder.__dict__["decode_packed"]
        sp = SparseBitsetDecoder.__dict__["decode_packed"]
        assert bit is sp
        for name in ("decode_batch", "decode_missing_sets"):
            assert getattr(BitsetBatchDecoder, name) is getattr(
                SparseBitsetDecoder, name
            )


class TestEngineMetrics:
    def test_per_engine_case_counters(self, small_tornado):
        from repro.obs import MetricsRegistry, capture

        masks = np.zeros((10, small_tornado.num_nodes), dtype=bool)
        with capture(MetricsRegistry()) as reg:
            BitsetBatchDecoder(small_tornado).decode_batch(masks)
            SparseBitsetDecoder(small_tornado).decode_batch(masks)
        counters = reg.snapshot()["counters"]
        assert counters["decoder.cases.bitset"] == 10
        assert counters["decoder.cases.sparse"] == 10
        assert counters["decoder.cases"] == 20
