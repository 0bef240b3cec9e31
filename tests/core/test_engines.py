"""Cross-engine decode agreement, packing helpers, engine selection.

The two batch kernels (:mod:`repro.core.bitdecoder`,
:mod:`repro.core.sparse`) must be indistinguishable from each other
and from the scalar :class:`PeelingDecoder` on every erasure pattern;
the scalar decoder is the differential-testing oracle, and where the
input is a raw relation matrix no graph expresses, a plain-Python
fixpoint in this file is.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.decoder as decoder_module
import repro.core.lossmasks as lossmasks
from repro.core import (
    DECODE_ENGINES,
    BitsetBatchDecoder,
    CsrGraph,
    MLDecoder,
    PeelingDecoder,
    SparseBitsetDecoder,
    make_batch_decoder,
    pack_cases,
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    resolve_engine,
    tornado_csr_graph,
    tornado_graph,
    unpack_cases,
)
from repro.core.bitdecoder import DEFAULT_CHUNK, missing_sets_to_unknown
from repro.core.lossmasks import boolean_loss_masks
from repro.graphs import regular_graph, tornado_catalog_graph
from repro.obs import MetricsRegistry, capture
from repro.obs.trace import Tracer, trace_capture
from repro.sim import profile_graph

KERNELS = {"bitset": BitsetBatchDecoder, "sparse": SparseBitsetDecoder}


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

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_decode_packed_rejects_non_integer_words(
        self, small_tornado, engine, dtype
    ):
        """A float matrix of 0.5 used to cast to all-zero words and read
        as "nothing lost": every case succeeded."""
        dec = KERNELS[engine](small_tornado)
        words = np.full((small_tornado.num_nodes, 2), 0.5).astype(dtype)
        with pytest.raises(TypeError, match="integers"):
            dec.decode_packed(words, 128)
        # Integer words of any width are still words.
        lost = np.full((small_tornado.num_nodes, 2), -1, dtype=np.int64)
        assert not dec.decode_packed(lost, 128).any()

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    @pytest.mark.parametrize("batch", [100.0, np.float64(100), "100"])
    def test_decode_packed_rejects_a_non_integer_batch_before_peeling(
        self, small_tornado, monkeypatch, engine, batch
    ):
        """``batch=100.0`` used to peel the whole call, then fail in
        the lane slice with numpy's message."""
        dec = KERNELS[engine](small_tornado)
        packed = packed_random_loss_masks(
            small_tornado.num_nodes, 5, 128, np.random.default_rng(1)
        )
        want = dec.decode_packed(packed, 100)
        assert np.array_equal(dec.decode_packed(packed, np.int64(100)), want)

        def never(u):
            raise AssertionError("peeled a rejected call")

        monkeypatch.setattr(dec, "_peel", never)
        with capture(MetricsRegistry()) as reg:
            with pytest.raises(TypeError, match="batch must be an integer"):
                dec.decode_packed(packed, batch)
        assert reg.snapshot()["counters"] == {}

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    @pytest.mark.parametrize(
        "sets",
        [[[1.7]], [[0, 2.0]], [[np.float64(3)]], [np.array([True, False])]],
    )
    def test_non_integer_node_ids_are_rejected(
        self, small_tornado, engine, sets
    ):
        """``[[1.7]]`` used to truncate to node 1 and answer for the
        wrong pattern; a boolean mask row read as nodes 1 and 0."""
        with pytest.raises(TypeError, match="node ids must be integers"):
            KERNELS[engine](small_tornado).decode_missing_sets(sets)


class TestPackingHelpers:
    def test_pack_unpack_roundtrip(self, rng):
        for batch in (1, 2, 63, 64, 65, 200):
            masks = rng.random((batch, 17)) < 0.3
            packed = pack_cases(masks)
            assert packed.shape == (17, (batch + 63) // 64)
            assert np.array_equal(unpack_cases(packed, batch), masks)

    def test_unpack_cases_rejects_a_batch_the_words_do_not_hold(self):
        """``batch=100`` on one word used to return 64 rows, and
        ``batch=-1`` 63."""
        packed = np.zeros((5, 1), dtype=np.uint64)
        for batch in (100, 65, -1):
            fit = "batch must be >= 0" if batch < 0 else "does not fit 1 words"
            with pytest.raises(ValueError, match=fit):
                unpack_cases(packed, batch)
        assert unpack_cases(packed, 0).shape == (0, 5)
        assert unpack_cases(packed, 64).shape == (64, 5)

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
        with pytest.raises(TypeError, match="node ids must be integers"):
            missing_sets_to_unknown([[1.7]], 10)
        ids = [[np.int64(1), 3], [np.uint8(2)]]
        assert missing_sets_to_unknown(ids, 4).tolist() == [
            [False, True, False, True], [False, False, True, False]
        ]


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


@pytest.fixture(scope="module")
def csr8k():
    """An 8 192-node cascade: wide enough to cross the real range floor."""
    return tornado_csr_graph(1 << 12, seed=11)


def _decode_on(cpus, decoder, packed, batch):
    """``decoder.decode_packed(packed, batch)`` as if the process had
    ``cpus`` CPUs: its result and ``decoder.*`` counters, how often the
    kernel's entry point ran, and the thread and width of each range."""
    peel = decoder._peel
    kernel = type(decoder)
    entry = kernel.decode_packed
    ranges, entered = [], []

    def spy(u):
        ranges.append((threading.current_thread(), u.shape[1]))
        return peel(u)

    def counted(self, *args):
        entered.append(threading.current_thread())
        return entry(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lossmasks, "_cpu_count", lambda: cpus)
        mp.setattr(decoder, "_peel", spy)
        mp.setattr(kernel, "decode_packed", counted)
        with capture(MetricsRegistry()) as reg:
            ok = decoder.decode_packed(packed, batch)
    assert entered == [threading.current_thread()]
    return ok, reg.snapshot()["counters"], ranges


def _decoder_for(engine, graph):
    return KERNELS[engine](graph.to_graph() if engine == "bitset" else graph)


class TestKernelRanges:
    """Word ranges peeled on helper threads are the one-range decode."""

    def _check(self, decoder, packed, batch, cpus, ranges):
        want, want_counters, alone = _decode_on(1, decoder, packed, batch)
        got, counters, peeled = _decode_on(cpus, decoder, packed, batch)
        assert len(alone) == 1 and alone[0][0] is threading.current_thread()
        assert len(peeled) == ranges
        threads = {thread for thread, _ in peeled}
        assert len(threads) == ranges, "no helper thread peeled a range"
        widths = [width for _, width in peeled]
        assert sum(widths) == packed.shape[1]
        assert max(widths) - min(widths) <= 1
        assert np.array_equal(got, want)
        # decoder.rounds is the maximum over ranges: the one-range count.
        assert counters == want_counters
        assert counters["decoder.batches"] == 1
        assert counters["decoder.cases"] == batch

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    @pytest.mark.parametrize(
        "words,ranges", [(7, 1), (15, 1), (16, 2), (25, 3), (33, 4), (64, 4)]
    )
    def test_forced_ranges(self, graph3, monkeypatch, engine, words, ranges):
        """A floor of 8 words per range at N = 96 and four CPUs: 1 to 4
        ranges, uneven at odd widths, batches off the word boundary."""
        monkeypatch.setattr(KERNELS[engine], "_range_floor", 8 * graph3.num_nodes)
        decoder = KERNELS[engine](graph3)
        batch = words * 64 - 37
        for k in (8, 30, 60):
            packed = packed_random_loss_masks(
                graph3.num_nodes, k, batch, np.random.default_rng(words + k)
            )
            self._check(decoder, packed, batch, 4, ranges)

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    @pytest.mark.parametrize("words,cpus,ranges", [(31, 4, 1), (32, 4, 2),
                                                   (49, 2, 2), (49, 3, 3)])
    def test_real_floor(self, csr8k, engine, words, cpus, ranges):
        """At the shipped floors an 8 192-node call splits from 32 words
        on the sparse kernel (N * W = 2 * its floor), never into more
        ranges than CPUs.  The bitset kernel has no floor: it peels
        every call in one range, on the caller."""
        assert csr8k.num_nodes * 32 == 2 * SparseBitsetDecoder._range_floor
        if engine == "bitset":
            assert BitsetBatchDecoder._range_floor is None
            ranges = 1
        decoder = _decoder_for(engine, csr8k)
        batch = words * 64 - 5
        packed = packed_sparse_loss_masks(
            csr8k.num_nodes, csr8k.num_nodes // 6, batch,
            np.random.default_rng(words),
        )
        self._check(decoder, packed, batch, cpus, ranges)

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    def test_ranges_with_nothing_lost(self, graph3, monkeypatch, engine):
        """Ranges 0 and 2 of 4 lose nothing and peel zero rounds; the
        call's rounds come from the others."""
        monkeypatch.setattr(KERNELS[engine], "_range_floor", 8 * graph3.num_nodes)
        decoder = KERNELS[engine](graph3)
        packed = packed_random_loss_masks(
            graph3.num_nodes, 40, 40 * 64, np.random.default_rng(3)
        )
        packed[:, 0:10] = 0
        packed[:, 20:30] = 0
        self._check(decoder, packed, 40 * 64, 4, 4)
        ok, counters, _ = _decode_on(4, decoder, packed, 40 * 64)
        assert ok[:640].all() and ok[1280:1920].all()
        assert counters["decoder.rounds"] > 0

    @pytest.mark.parametrize("engine", ["bitset", "sparse"])
    def test_a_helpers_exception_reaches_the_caller(
        self, graph3, monkeypatch, engine
    ):
        monkeypatch.setattr(KERNELS[engine], "_range_floor", graph3.num_nodes)
        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 3)
        decoder = KERNELS[engine](graph3)
        caller = threading.get_ident()
        peel = decoder._peel

        def fail_off_the_caller(u):
            if threading.get_ident() != caller:
                raise RuntimeError("helper failed")
            return peel(u)

        monkeypatch.setattr(decoder, "_peel", fail_off_the_caller)
        packed = packed_random_loss_masks(
            graph3.num_nodes, 30, 9 * 64, np.random.default_rng(1)
        )
        alive = threading.active_count()
        with capture(MetricsRegistry()) as reg:
            with pytest.raises(RuntimeError, match="helper failed"):
                decoder.decode_packed(packed)
        assert threading.active_count() == alive  # every helper joined
        assert reg.snapshot()["counters"] == {}  # a failed call records nothing

    def test_counters_land_in_the_scope_once_per_call(
        self, graph3, monkeypatch
    ):
        monkeypatch.setattr(
            BitsetBatchDecoder, "_range_floor", graph3.num_nodes
        )
        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 4)
        decoder = BitsetBatchDecoder(graph3)
        packed = packed_random_loss_masks(
            graph3.num_nodes, 30, 1000, np.random.default_rng(2)
        )
        with capture(MetricsRegistry()) as reg:
            for _ in range(3):
                decoder.decode_packed(packed, 1000)
        decoder.decode_packed(packed, 1000)  # outside the scope
        snapshot = reg.snapshot()
        assert snapshot["counters"]["decoder.batches"] == 3
        assert snapshot["counters"]["decoder.cases"] == 3000
        assert snapshot["counters"]["decoder.cases.bitset"] == 3000
        for name in ("batch_size", "peel_rounds", "decode_seconds"):
            assert snapshot["histograms"][f"decoder.{name}"]["count"] == 3

    def test_pool_after_an_in_process_sparse_sweep(
        self, small_tornado, monkeypatch
    ):
        """An in-process sweep whose kernel peels on helper threads, then
        a pool forked from the same process: the helpers were joined, so
        the pool's cells run, to the one-range profile and span IDs.  A
        hung cell would time out and be counted."""
        sweep = dict(
            samples_per_k=9000, exact_upto=2, ks=[8, 12, 16], seed=4,
            engine="sparse",
        )

        def traced(**extra):
            with trace_capture(Tracer(seed=3)) as t:
                profile = profile_graph(small_tornado, **sweep, **extra)
            spans = {
                (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
                for r in t.records
            }
            return profile, spans

        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 1)
        one_range, one_range_spans = traced()
        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 2)
        monkeypatch.setattr(
            SparseBitsetDecoder, "_range_floor", small_tornado.num_nodes
        )
        threads = set()
        peel = SparseBitsetDecoder._peel

        def spy(self, u):
            threads.add(threading.current_thread())
            return peel(self, u)

        monkeypatch.setattr(SparseBitsetDecoder, "_peel", spy)
        in_process, in_process_spans = traced()
        # One decode per cell, each on the caller and a helper of its own.
        assert len(threads) == 1 + 3, "the kernel peeled on one thread"
        with capture(MetricsRegistry()) as reg:
            pooled, pooled_spans = traced(n_jobs=2, cell_timeout=60)
        assert "profile.cell_timeouts" not in reg.snapshot()["counters"]
        assert pooled.to_json() == in_process.to_json() == one_range.to_json()
        assert pooled_spans == in_process_spans == one_range_spans


# Graphs of the block-schedule properties: the three catalog cascades,
# the smallest cascade, one single-level graph, one CSR cascade and one
# CSR graph without level metadata.
PEEL_GRAPHS = {
    "graph1": lambda: tornado_catalog_graph(1),
    "graph2": lambda: tornado_catalog_graph(2),
    "graph3": lambda: tornado_catalog_graph(3),
    "small_tornado": lambda: tornado_graph(16, seed=3, min_final_lefts=6),
    "regular": lambda: regular_graph(48, 3, seed=1),
    "tornado_csr": lambda: tornado_csr_graph(48, seed=2),
    "csr_no_levels": lambda: dataclasses.replace(
        tornado_csr_graph(48, seed=4), level_ranges=()
    ),
}


@functools.cache
def _peel_graph(name):
    return PEEL_GRAPHS[name]()


def _peel_with(decoder, packed, batch, serial_words):
    """The peeled words and the success vector with the crossover at
    ``serial_words`` (0: every iteration a serial sweep)."""
    decoder._serial_words = serial_words
    try:
        u = np.array(packed, dtype=np.uint64)
        decoder._peel(u)
        return u, decoder.decode_packed(packed, batch)
    finally:
        del decoder._serial_words


class _DrawnBlocks(SparseBitsetDecoder):
    """The shared fixpoint walking a given block list at every width."""

    def __init__(self, graph, blocks, chunk):
        self._drawn = blocks
        super().__init__(graph, chunk=chunk)

    def _partitions(self, csr):
        return self._drawn, self._drawn


def _erasure_graph(graph):
    """The scalar oracle's graph: a CSR cascade's constraints, each its
    own level (a CSR graph without levels would be one level, which
    ``ErasureGraph`` rejects for a cascade)."""
    if not isinstance(graph, CsrGraph):
        return graph
    c = graph.num_constraints
    levels = tuple((i, i + 1) for i in range(c))
    return dataclasses.replace(graph, level_ranges=levels).to_graph()


class TestPeelBodies:
    """Every block schedule reaches the same fixpoint: the largest
    stopping set inside each erasure."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PEEL_GRAPHS)),
        k_share=st.floats(0.0, 1.0),
        words=st.integers(1, 2 * BitsetBatchDecoder._serial_words),
        pad=st.integers(0, 63),
        zero=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_all_serial_and_all_parallel_equal_the_shipped_peel(
        self, name, k_share, words, pad, zero, seed
    ):
        """Random ``k`` and widths on both sides of the crossover, with
        pad lanes and all-zero words.  A case whose data are known may
        stop with parity bits unpeeled, and sweeps reach that point
        sooner than rounds; so the data rows, and every row of the cases
        that fail, are compared."""
        graph = _peel_graph(name)
        n = graph.num_nodes
        batch = max(1, words * 64 - pad)
        packed = packed_random_loss_masks(
            n, round(k_share * n), batch, np.random.default_rng(seed)
        )
        packed[:, [int(z * words) for z in zero]] = 0
        decoder = BitsetBatchDecoder(graph)
        shipped = BitsetBatchDecoder._serial_words
        want_u, want_ok = _peel_with(decoder, packed, batch, shipped)
        data = list(graph.data_nodes)
        failing = np.bitwise_or.reduce(want_u[data], axis=0)
        for serial_words in (0, words + 1):
            u, ok = _peel_with(decoder, packed, batch, serial_words)
            assert np.array_equal(u[data], want_u[data]), serial_words
            assert np.array_equal(u & failing, want_u & failing)
            assert np.array_equal(ok, want_ok), serial_words

    def test_serial_body_matches_the_scalar_oracle(self):
        """Every iteration a serial sweep, on ~50 random cascades."""
        rng = np.random.default_rng(35)
        for graph in random_small_graphs():
            n = graph.num_nodes
            masks = boolean_loss_masks(n, int(rng.integers(1, n)), 100, rng)
            decoder = BitsetBatchDecoder(graph)
            decoder._serial_words = 0
            assert np.array_equal(
                decoder.decode_batch(masks), scalar_success(graph, masks)
            ), graph.name

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PEEL_GRAPHS)),
        k_share=st.floats(0.0, 1.0),
        words=st.integers(1, 2 * BitsetBatchDecoder._serial_words),
        pad=st.integers(0, 63),
        zero=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6),
        cuts=st.floats(0.0, 1.0),
        chunk_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_block_schedule_equals_the_scalar_and_shipped_peels(
        self, name, k_share, words, pad, zero, cuts, chunk_share, seed
    ):
        """A random partition of the constraints into blocks, in a random
        order, split at a random ``chunk`` from 1 to C, against the
        scalar decoder on sampled cases and against both kernels'
        shipped runs on every case.  Data rows, and every row of the
        failing cases, are compared (a case whose data are known may
        stop with parity bits unpeeled)."""
        graph = _peel_graph(name)
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        batch = max(1, words * 64 - pad)
        packed = packed_random_loss_masks(n, round(k_share * n), batch, rng)
        packed[:, [int(z * words) for z in zero]] = 0
        c = len(_erasure_graph(graph).constraints)
        order = rng.permutation(c)
        bounds = np.sort(rng.choice(np.arange(1, c), round(cuts * (c - 1)),
                                    replace=False))
        blocks = np.split(order, bounds)
        chunk = 1 + round(chunk_share * (c - 1))
        u, ok = _peel_with(_DrawnBlocks(graph, blocks, chunk), packed, batch, 0)

        data = list(graph.data_nodes)
        failing = np.bitwise_or.reduce(u[data], axis=0)
        for kernel in (BitsetBatchDecoder, SparseBitsetDecoder):
            want_u, want_ok = _peel_with(
                kernel(graph), packed, batch, kernel._serial_words
            )
            assert np.array_equal(u[data], want_u[data]), kernel.engine
            assert np.array_equal(u & failing, want_u & failing)
            assert np.array_equal(ok, want_ok), kernel.engine

        scalar = PeelingDecoder(_erasure_graph(graph))
        unknown = unpack_cases(packed, batch)
        residual = unpack_cases(u, batch)
        for case in rng.choice(batch, min(batch, 48), replace=False):
            result = scalar.decode(np.flatnonzero(unknown[case]))
            assert result.success == ok[case]
            if not result.success:
                assert set(np.flatnonzero(residual[case])) == result.residual

    def test_level_sweeps_match_the_scalar_oracle(self):
        """The sparse kernel's shipped schedule, one block per cascade
        level in reverse order, on ~50 random cascades, at chunks that
        split the levels and at the default."""
        rng = np.random.default_rng(36)
        for graph in random_small_graphs():
            n = graph.num_nodes
            masks = boolean_loss_masks(n, int(rng.integers(1, n)), 100, rng)
            want = scalar_success(graph, masks)
            for chunk in (1, 3, DEFAULT_CHUNK):
                decoder = SparseBitsetDecoder(graph, chunk=chunk)
                assert np.array_equal(decoder.decode_batch(masks), want), (
                    graph.name, chunk
                )

    @pytest.mark.parametrize("name", sorted(PEEL_GRAPHS))
    def test_serial_order_is_a_permutation_of_the_constraints(self, name):
        """A serial sweep peels every constraint once, in reverse order."""
        decoder = BitsetBatchDecoder(_peel_graph(name))
        order = [int(c) for block in decoder._wide for c in block.cons]
        assert order == list(reversed(range(decoder._num_cons)))

    @pytest.mark.parametrize(
        "kernel, chunk",
        [(BitsetBatchDecoder, None)]
        + [(SparseBitsetDecoder, chunk) for chunk in (1, 5, DEFAULT_CHUNK)],
    )
    @pytest.mark.parametrize("name", sorted(PEEL_GRAPHS))
    def test_block_lists_partition_the_constraints(self, kernel, chunk, name):
        """The bitset kernel at its class ``_chunk``; the sparse kernel
        also at chunks that split its levels."""
        if chunk is None:
            decoder, chunk = kernel(_peel_graph(name)), kernel._chunk
        else:
            decoder = kernel(_peel_graph(name), chunk=chunk)
        for blocks in (decoder._wide, decoder._narrow):
            cons = np.concatenate([block.cons for block in blocks])
            assert np.array_equal(np.sort(cons), np.arange(decoder._num_cons))
            assert all(0 < block.cons.size <= chunk for block in blocks)

    def test_sparse_blocks_follow_the_levels_in_reverse(self):
        graph = _peel_graph("tornado_csr")
        decoder = SparseBitsetDecoder(graph)
        assert [
            (int(block.cons.min()), int(block.cons.max()) + 1)
            for block in decoder._wide
        ] == list(reversed(graph.level_ranges))
        flat = SparseBitsetDecoder(_peel_graph("csr_no_levels"))
        assert len(flat._wide) == 1

    @pytest.mark.parametrize("words", [100, 1536])
    def test_bitset_peels_each_call_once_on_the_caller(
        self, graph3, monkeypatch, words
    ):
        """At the shipped constants and four CPUs: one ``_peel`` over
        every word, on the caller's thread, and no thread started."""
        decoder = BitsetBatchDecoder(graph3)
        packed = packed_random_loss_masks(
            graph3.num_nodes, 20, words * 64, np.random.default_rng(words)
        )

        def no_thread(*args, **kwargs):
            raise AssertionError("the bitset kernel started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        ok, counters, peeled = _decode_on(4, decoder, packed, None)
        assert peeled == [(threading.current_thread(), words)]
        assert counters["decoder.batches"] == 1
        assert ok.shape == (words * 64,)
