"""Sparse CSR engine: CsrGraph, chunked peeling, masks, JIT kernel.

Cross-engine *agreement* lives in test_engines.py; this file covers
what is unique to the sparse path — the CSR graph container and its
vectorised generator, chunked plane sweeps, the bounded-memory mask
generator, the plain-Python/numba kernel equivalence, and the CsrGraph
routing rules in make_batch_decoder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitsetBatchDecoder,
    CsrGraph,
    SparseBitsetDecoder,
    make_batch_decoder,
    pack_cases,
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    tornado_csr_graph,
    tornado_graph,
    unpack_cases,
)
from repro.core import sparse as sparse_module


@pytest.fixture(scope="module")
def csr16k():
    """One mid-size CSR cascade shared across the module."""
    return tornado_csr_graph(1 << 12, seed=11)


class TestCsrGraph:
    def test_from_graph_round_trip(self, small_tornado):
        csr = CsrGraph.from_graph(small_tornado)
        back = csr.to_graph()
        assert back.num_nodes == small_tornado.num_nodes
        assert back.data_nodes == small_tornado.data_nodes
        assert [c.members() for c in back.constraints] == [
            c.members() for c in small_tornado.constraints
        ]

    def test_constraint_members_match_graph(self, small_tornado):
        csr = CsrGraph.from_graph(small_tornado)
        assert csr.constraint_members() == [
            c.members() for c in small_tornado.constraints
        ]

    def test_generator_shape_invariants(self, csr16k):
        g = csr16k
        assert g.num_data == 1 << 12
        assert g.num_nodes == g.num_data + g.num_constraints
        lens = np.diff(g.con_indptr)
        # Every constraint has a check plus at least two lefts.
        assert (lens >= 3).all()
        # The check (first member) of constraint i is a non-data node.
        checks = np.asarray(g.con_nodes)[np.asarray(g.con_indptr[:-1])]
        assert (checks >= g.num_data).all()
        assert np.array_equal(np.sort(checks), np.unique(checks))
        # Members are valid node ids.
        assert np.asarray(g.con_nodes).min() >= 0
        assert np.asarray(g.con_nodes).max() < g.num_nodes

    def test_generator_deterministic(self):
        a = tornado_csr_graph(1 << 8, seed=4)
        b = tornado_csr_graph(1 << 8, seed=4)
        c = tornado_csr_graph(1 << 8, seed=5)
        assert np.array_equal(a.con_nodes, b.con_nodes)
        assert np.array_equal(a.con_indptr, b.con_indptr)
        assert not np.array_equal(a.con_nodes, c.con_nodes)

    def test_zero_loss_always_decodes(self, csr16k):
        dec = SparseBitsetDecoder(csr16k)
        packed = np.zeros((csr16k.num_nodes, 2), dtype=np.uint64)
        assert dec.decode_packed(packed, 128).all()

    def test_full_loss_never_decodes(self, csr16k):
        dec = SparseBitsetDecoder(csr16k)
        packed = np.full(
            (csr16k.num_nodes, 1), ~np.uint64(0), dtype=np.uint64
        )
        assert not dec.decode_packed(packed, 64).any()


class TestCsrRouting:
    def test_make_batch_decoder_accepts_csr(self, csr16k, small_tornado):
        dec = make_batch_decoder(csr16k, engine="sparse")
        assert isinstance(dec, SparseBitsetDecoder)
        # A CsrGraph gets the sparse kernel at any size, not only from
        # the auto cutoff up.
        small = make_batch_decoder(CsrGraph.from_graph(small_tornado))
        assert isinstance(small, SparseBitsetDecoder)

    def test_non_sparse_engine_refuses_csr(self, csr16k):
        with pytest.raises(ValueError, match="CsrGraph"):
            make_batch_decoder(csr16k, engine="bitset")
        with pytest.raises(ValueError, match="unknown decode engine"):
            make_batch_decoder(csr16k, engine="matmul")

    def test_csr_equivalent_to_object_graph(self, small_tornado):
        csr = CsrGraph.from_graph(small_tornado)
        rng = np.random.default_rng(0)
        masks = packed_random_loss_masks(
            small_tornado.num_nodes, 9, 512, rng
        )
        via_csr = SparseBitsetDecoder(csr).decode_packed(masks, 512)
        via_obj = SparseBitsetDecoder(small_tornado).decode_packed(
            masks, 512
        )
        via_bit = BitsetBatchDecoder(small_tornado).decode_packed(
            masks, 512
        )
        assert np.array_equal(via_csr, via_obj)
        assert np.array_equal(via_csr, via_bit)


class TestChunking:
    def test_tiny_chunk_matches_default(self, csr16k):
        """Chunked plane sweeps are invisible in the results."""
        rng = np.random.default_rng(3)
        masks = packed_sparse_loss_masks(
            csr16k.num_nodes, csr16k.num_nodes // 6, 256, rng
        )
        full = SparseBitsetDecoder(csr16k).decode_packed(masks, 256)
        tiny = SparseBitsetDecoder(csr16k, chunk=7).decode_packed(
            masks, 256
        )
        assert np.array_equal(full, tiny)

    def test_zero_copy_from_csr_readonly(self, csr16k):
        """A CsrGraph built on read-only arrays decodes through
        SparseBitsetDecoder(graph), which adopts them without a copy."""
        arrays = {}
        for name in ("con_nodes", "con_indptr", "data_nodes"):
            arr = np.asarray(getattr(csr16k, name)).copy()
            arr.flags.writeable = False
            arrays[name] = arr
        graph = CsrGraph(num_nodes=csr16k.num_nodes, **arrays)
        dec = SparseBitsetDecoder(graph)
        assert np.shares_memory(dec._con_nodes, arrays["con_nodes"])
        rng = np.random.default_rng(1)
        masks = packed_sparse_loss_masks(
            csr16k.num_nodes, csr16k.num_nodes // 8, 128, rng
        )
        ref = SparseBitsetDecoder(csr16k).decode_packed(masks, 128)
        assert np.array_equal(dec.decode_packed(masks, 128), ref)


class TestSparseMaskGenerator:
    def test_exact_k_per_case(self):
        rng = np.random.default_rng(7)
        for n, k, batch in ((100, 13, 130), (9000, 411, 200),
                            (16384, 1, 65)):
            packed = packed_sparse_loss_masks(n, k, batch, rng)
            masks = unpack_cases(packed, batch)
            assert (masks.sum(axis=1) == k).all(), (n, k)
            # Pad lanes beyond the batch stay zero.
            w = packed.shape[1]
            assert not unpack_cases(packed, w * 64)[batch:].any()

    def test_k_zero_and_k_n(self):
        rng = np.random.default_rng(7)
        assert not packed_sparse_loss_masks(50, 0, 64, rng).any()
        full = packed_sparse_loss_masks(50, 50, 64, rng)
        assert unpack_cases(full, 64).all()

    def test_rejects_out_of_range_k(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            packed_sparse_loss_masks(10, 11, 64, rng)

    def test_deterministic(self):
        a = packed_sparse_loss_masks(
            9001, 900, 192, np.random.default_rng(5)
        )
        b = packed_sparse_loss_masks(
            9001, 900, 192, np.random.default_rng(5)
        )
        assert np.array_equal(a, b)

    def test_marginals_roughly_uniform(self):
        """Each node is lost with probability ~k/n across cases."""
        n, k, batch = 600, 60, 4096
        packed = packed_sparse_loss_masks(
            n, k, batch, np.random.default_rng(2)
        )
        counts = unpack_cases(packed, batch).sum(axis=0)
        expect = batch * k / n
        sigma = (batch * (k / n) * (1 - k / n)) ** 0.5
        assert abs(counts.mean() - expect) < 0.5
        assert (np.abs(counts - expect) < 6 * sigma).all()


class TestPlaneKernel:
    def test_python_kernel_matches_numpy_sweep(self, small_tornado):
        """The JIT source, run as plain Python, is the same function.

        This is the differential oracle promised in the module
        docstring: numba only compiles `_plane_kernel`, so verifying
        the uncompiled function against the NumPy sweep covers the JIT
        path's algorithm whether or not numba is installed.
        """
        dec = SparseBitsetDecoder(small_tornado)
        rng = np.random.default_rng(0)
        ua = rng.integers(
            0, 1 << 62, size=(small_tornado.num_nodes, 5),
            dtype=np.uint64,
        )
        rows = np.arange(dec._num_cons, dtype=np.intp)
        rl = dec._lens[rows]
        once_np = np.empty((rows.size, 5), dtype=np.uint64)
        twice_np = np.empty_like(once_np)
        dec._planes_numpy(ua, rows, rl, once_np, twice_np)
        once_py = np.empty_like(once_np)
        twice_py = np.empty_like(once_np)
        sparse_module._plane_kernel(
            ua, dec._con_nodes, dec._base[rows], rl, once_py, twice_py
        )
        assert np.array_equal(once_np, once_py)
        assert np.array_equal(twice_np, twice_py)

    def test_jit_opt_out_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_JIT", "0")
        assert sparse_module._detect_jit() is None

    def test_jit_flag_reported(self):
        # Auto-detection: enabled iff numba imported and compiled.
        try:
            import numba  # noqa: F401
            has_numba = True
        except ImportError:
            has_numba = False
        if not has_numba:
            assert sparse_module.jit_enabled() is False

    def test_forced_jit_decode_matches_numpy(self, small_tornado):
        """jit=True/False give identical decodes (numba or not)."""
        rng = np.random.default_rng(4)
        masks = packed_random_loss_masks(
            small_tornado.num_nodes, 8, 256, rng
        )
        a = SparseBitsetDecoder(small_tornado, jit=False).decode_packed(
            masks, 256
        )
        b = SparseBitsetDecoder(small_tornado, jit=True).decode_packed(
            masks, 256
        )
        assert np.array_equal(a, b)


class TestLargeGraphSmoke:
    def test_2e17_node_decode(self):
        """A 2^17-node cascade decodes a packed batch within memory."""
        graph = tornado_csr_graph(1 << 16, seed=9)
        assert graph.num_nodes == 1 << 17
        dec = SparseBitsetDecoder(graph)
        rng = np.random.default_rng(0)
        k = graph.num_nodes // 20
        masks = packed_sparse_loss_masks(graph.num_nodes, k, 128, rng)
        ok = dec.decode_packed(masks, 128)
        # 5% loss on a rate-1/2 cascade overwhelmingly decodes.
        assert ok.mean() > 0.9

    def test_spot_check_against_bitset(self):
        """One 2^13-node graph: sparse vs bitset, bit for bit."""
        graph = tornado_csr_graph(1 << 12, seed=2)
        obj = graph.to_graph()
        rng = np.random.default_rng(1)
        masks = packed_random_loss_masks(
            graph.num_nodes, graph.num_nodes // 4, 256, rng
        )
        sp = SparseBitsetDecoder(graph).decode_packed(masks, 256)
        bit = BitsetBatchDecoder(obj).decode_packed(masks, 256)
        assert np.array_equal(sp, bit)
        assert 0 < sp.sum() < 256  # mixed outcomes: a real spot check


def test_pack_cases_consistency(small_tornado):
    """Sanity: sparse decode_batch goes through pack_cases unchanged."""
    rng = np.random.default_rng(8)
    masks = rng.random((100, small_tornado.num_nodes)) < 0.2
    dec = SparseBitsetDecoder(small_tornado)
    assert np.array_equal(
        dec.decode_batch(masks),
        dec.decode_packed(pack_cases(masks), 100),
    )
