"""Sparse CSR engine: CsrGraph, chunked peeling, masks, constructor.

Cross-engine *agreement* lives in test_engines.py; this file covers
what is unique to the sparse path — the CSR graph container, its level
metadata and its vectorised generator, chunked blocks, the
bounded-memory mask generator, the constructor's keywords, and the
CsrGraph routing rules in make_batch_decoder.
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
from repro.core.graph import Constraint, ErasureGraph


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

    @pytest.mark.parametrize("ranges", [
        ((0, 5),),  # leaves constraints out of every level
        ((0, 2048), (2049, 4096)),  # a gap
        ((0, 2048), (2047, 4096)),  # an overlap
        ((2048, 4096), (0, 2048)),  # descending
        ((0, 0), (0, 4096)),  # an empty level
        ((0, 4097),),  # past the last constraint
    ])
    def test_level_ranges_must_cover_the_constraints_in_order(
        self, csr16k, ranges
    ):
        assert csr16k.num_constraints == 4096
        with pytest.raises(ValueError, match="level_ranges"):
            CsrGraph(
                num_nodes=csr16k.num_nodes, data_nodes=csr16k.data_nodes,
                con_nodes=csr16k.con_nodes, con_indptr=csr16k.con_indptr,
                level_ranges=ranges,
            )

    def test_from_graph_drops_levels_that_are_not_index_runs(self):
        """Levels ``((0, 2), (1,))`` used to become the overlapping
        ranges ``((0, 3), (1, 2))``, which ``to_graph`` then rejected."""
        graph = ErasureGraph(
            num_nodes=5, data_nodes=(0, 1),
            constraints=(
                Constraint(check=2, lefts=(0, 1)),
                Constraint(check=3, lefts=(0,)),
                Constraint(check=4, lefts=(1,)),
            ),
            levels=((0, 2), (1,)),
        )
        csr = CsrGraph.from_graph(graph)
        assert csr.level_ranges == ()
        assert csr.to_graph().constraints == graph.constraints

    def test_from_graph_keeps_cascade_levels(self, small_tornado):
        csr = CsrGraph.from_graph(small_tornado)
        assert csr.level_ranges
        assert csr.to_graph().levels == small_tornado.levels

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

    @pytest.mark.parametrize(
        "chunk, error",
        [(0, ValueError), (-5, ValueError), (2.7, TypeError),
         ("8", TypeError), (None, TypeError)],
        ids=["0", "-5", "2.7", "8", "None"],
    )
    def test_rejects_a_chunk_that_is_not_a_positive_integer(
        self, small_tornado, chunk, error
    ):
        """``chunk=0``, ``-5`` and ``2.7`` used to become 1, 1 and 2."""
        with pytest.raises(error, match="chunk"):
            SparseBitsetDecoder(small_tornado, chunk=chunk)

    def test_accepts_numpy_integer_chunks(self, small_tornado):
        dec = SparseBitsetDecoder(small_tornado, chunk=np.int64(3))
        assert dec._chunk == 3

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
    """The compiled plane kernel is gone; what is left of its surface."""

    def test_jit_flag_reported(self):
        """There is no compiled kernel to report."""
        assert sparse_module.jit_enabled() is False

    @pytest.mark.parametrize("jit", [True, 1, "yes"])
    def test_jit_true_raises_before_any_build(self, monkeypatch, jit):
        def no_build(*args, **kwargs):
            raise AssertionError("built a CSR view before rejecting jit")

        monkeypatch.setattr(CsrGraph, "from_graph", no_build)
        with pytest.raises(ValueError, match="jit"):
            SparseBitsetDecoder(tornado_graph(16, seed=3), jit=jit)

    @pytest.mark.parametrize("jit", [None, False, 0, np.False_])
    def test_jit_none_and_false_decode_alike(self, small_tornado, jit):
        masks = packed_random_loss_masks(
            small_tornado.num_nodes, 8, 256, np.random.default_rng(4)
        )
        assert np.array_equal(
            SparseBitsetDecoder(small_tornado, jit=jit).decode_packed(masks),
            SparseBitsetDecoder(small_tornado).decode_packed(masks),
        )


    def test_bitset_kernel_takes_no_keywords(self, small_tornado):
        """``jit`` and ``chunk`` are the sparse kernel's alone."""
        for keyword in ({"jit": None}, {"chunk": 7}):
            with pytest.raises(TypeError):
                BitsetBatchDecoder(small_tornado, **keyword)


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
