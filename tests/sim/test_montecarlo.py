"""Tests for Monte Carlo estimation — including the paper's own
simulator-vs-theory verification (§3, Eq. 1)."""

import hashlib
import re

import numpy as np
import pytest

import repro.core.lossmasks as lossmasks
from repro.core import (
    BitsetBatchDecoder,
    CsrGraph,
    ErasureGraph,
    PeelingDecoder,
    SparseBitsetDecoder,
    make_batch_decoder,
    tornado_csr_graph,
)
from repro.core.lossmasks import boolean_loss_masks
from repro.graphs import catalog_96_node_systems, mirrored_graph, striped_graph
from repro.obs import MetricsRegistry, capture
from repro.raid import mirrored_system
from repro.sim import profile_graph, sample_fail_fraction


class TestLossMasks:
    def test_exact_k_per_row(self, rng):
        masks = boolean_loss_masks(96, 7, 500, rng)
        assert masks.shape == (500, 96)
        np.testing.assert_array_equal(masks.sum(axis=1), 7)

    def test_uniformity_over_positions(self, rng):
        masks = boolean_loss_masks(10, 3, 20_000, rng)
        freq = masks.mean(axis=0)
        np.testing.assert_allclose(freq, 0.3, atol=0.02)


class TestSampleFailFraction:
    def test_zero_loss_never_fails(self, small_tornado, rng):
        assert sample_fail_fraction(small_tornado, 0, 100, rng) == 0.0

    def test_total_loss_always_fails(self, small_tornado, rng):
        frac = sample_fail_fraction(
            small_tornado, small_tornado.num_nodes, 50, rng
        )
        assert frac == 1.0

    def test_rejects_oversized_k(self, small_tornado, rng):
        with pytest.raises(ValueError):
            sample_fail_fraction(small_tornado, 99, 10, rng)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_non_positive_sample_count(self, small_tornado, n_samples):
        """No samples is no estimate: not -0.0, not ZeroDivisionError."""
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sample_fail_fraction(small_tornado, 30, n_samples, 1)

    @pytest.mark.parametrize("k", [7.5, 7.0])
    def test_rejects_a_non_integer_k_before_drawing(self, small_tornado, k):
        """Was an IndexError from deep inside numpy."""
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match=f"k must be an integer, got {k}"):
            sample_fail_fraction(small_tornado, k, 64, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n_samples", [True, 2.5], ids=["bool", "2.5"])
    def test_rejects_a_non_integer_sample_count_before_drawing(
        self, small_tornado, n_samples
    ):
        """``True`` was an estimate from one case."""
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(
            TypeError, match=f"n_samples must be an integer, got {n_samples}"
        ):
            sample_fail_fraction(small_tornado, 10, n_samples, rng)
        assert rng.bit_generator.state == before

    def test_accepts_a_numpy_integer_k(self, small_tornado):
        assert sample_fail_fraction(
            small_tornado, np.int64(7), 300, 4
        ) == sample_fail_fraction(small_tornado, 7, 300, 4)

    def test_reuses_supplied_decoder(self, small_tornado):
        decoder = BitsetBatchDecoder(small_tornado)
        frac = sample_fail_fraction(
            small_tornado, 10, 500, rng=4, decoder=decoder
        )
        assert 0.0 < frac < 1.0

        class ScalarOnly:
            """Offers only ``decode_batch``: fed the same masks unpacked."""

            def decode_batch(self, masks):
                scalar = PeelingDecoder(small_tornado)
                return np.array(
                    [
                        scalar.is_recoverable(np.flatnonzero(row))
                        for row in masks
                    ]
                )

        assert frac == sample_fail_fraction(
            small_tornado, 10, 500, rng=4, decoder=ScalarOnly()
        )

    def test_mirror_estimates_match_theory(self):
        """The paper's verification: sampled mirrored values vs Eq. 1."""
        g = mirrored_graph(48)
        theory = mirrored_system(48).profile()
        rng = np.random.default_rng(0)
        for k in (5, 10, 20, 40):
            est = sample_fail_fraction(g, k, 20_000, rng)
            # 20k samples: ~1% absolute tolerance around the truth
            assert est == pytest.approx(theory[k], abs=0.015)


class TestProfileGraph:
    def test_exact_head_is_exact(self, graph3):
        prof = profile_graph(graph3, samples_per_k=200, seed=0)
        # Adjusted catalog graph: zero failures below k=5, tiny at 5.
        assert (prof.fail_fraction[:5] == 0).all()
        assert 0 < prof.fail_fraction[5] < 1e-5
        assert (prof.samples[:7] == 0).all()

    def test_endpoints(self, small_tornado):
        prof = profile_graph(small_tornado, samples_per_k=100, seed=0)
        assert prof.fail_fraction[0] == 0.0
        assert prof.fail_fraction[-1] == 1.0

    def test_mirrored_uses_disjoint_fast_path(self):
        prof = profile_graph(mirrored_graph(48), samples_per_k=50, seed=0)
        theory = mirrored_system(48).profile()
        np.testing.assert_allclose(
            prof.fail_fraction[:7], theory[:7], rtol=1e-12
        )

    def test_striped_falls_back_gracefully(self):
        """Striped graphs trip the counting budget; sampling covers it."""
        prof = profile_graph(striped_graph(96), samples_per_k=50, seed=0)
        assert prof.fail_fraction[0] == 0.0
        # any loss is fatal; sampled and exact entries must agree
        assert (prof.fail_fraction[1:] == 1.0).all()

    def test_sparse_k_grid_interpolates(self, small_tornado):
        prof = profile_graph(
            small_tornado,
            samples_per_k=200,
            seed=0,
            ks=[10, 20],
            exact_upto=4,
        )
        assert prof.fail_fraction.shape == (33,)
        # interpolation keeps values within [0, 1] and monotone-ish ends
        assert (prof.fail_fraction >= 0).all()
        assert (prof.fail_fraction <= 1).all()

    def test_deterministic_under_seed(self, small_tornado):
        p1 = profile_graph(small_tornado, samples_per_k=300, seed=7)
        p2 = profile_graph(small_tornado, samples_per_k=300, seed=7)
        np.testing.assert_array_equal(p1.fail_fraction, p2.fail_fraction)

    def test_parallel_equals_serial(self, small_tornado):
        serial = profile_graph(small_tornado, samples_per_k=200, seed=3)
        parallel = profile_graph(
            small_tornado, samples_per_k=200, seed=3, n_jobs=2
        )
        np.testing.assert_array_equal(
            serial.fail_fraction, parallel.fail_fraction
        )

    def test_profile_metadata(self, small_tornado):
        prof = profile_graph(small_tornado, samples_per_k=100, seed=0)
        assert prof.system_name == small_tornado.name
        assert prof.num_data == small_tornado.num_data

    @pytest.mark.parametrize("samples_per_k", [0, -3])
    def test_rejects_non_positive_samples_per_k(
        self, small_tornado, samples_per_k
    ):
        with pytest.raises(ValueError, match="samples_per_k must be >= 1"):
            profile_graph(small_tornado, samples_per_k=samples_per_k)

    def test_rejects_a_repeated_k(self, small_tornado):
        """Seeds are positional over ``ks``: a repeat would shift every
        later cell's stream."""
        with pytest.raises(ValueError, match=r"repeats a k: \[10, 10, 20\]"):
            profile_graph(small_tornado, samples_per_k=50, ks=[10, 10, 20])

    @pytest.mark.parametrize("bad", [200, 33, -5])
    def test_rejects_a_k_off_the_curve(self, small_tornado, bad):
        """Not dropped unreported: ``ks=[200, 20]`` used to sample k=20
        alone."""
        off = rf"\[{bad}\] outside \[0, 32\]" if bad > 0 else "k must be >= 0"
        with pytest.raises(ValueError, match=off):
            profile_graph(small_tornado, samples_per_k=50, ks=[bad, 20])

    def test_rejects_negative_exact_upto(self, small_tornado):
        """``exact_upto=-1`` could read a failure at k = 0, where nothing
        is lost."""
        with pytest.raises(ValueError, match="exact_upto must be >= 0"):
            profile_graph(
                small_tornado, samples_per_k=50, exact_upto=-1, ks=[20]
            )

    @pytest.mark.parametrize(
        "bad", [10.5, 10.0, np.float64(10)], ids=["10.5", "10.0", "float64"]
    )
    def test_rejects_a_non_integer_k(self, small_tornado, monkeypatch, bad):
        """Named up front, before any seed is spawned or mask drawn (it
        was an IndexError from deep inside numpy)."""
        from repro.sim import montecarlo

        def never(*args, **kwargs):
            raise AssertionError("the sweep started before ks was checked")

        monkeypatch.setattr(montecarlo, "spawn_seeds", never)
        monkeypatch.setattr(montecarlo, "packed_random_loss_masks", never)
        with pytest.raises(
            TypeError, match=re.escape(f"k must be an integer, got {bad!r}")
        ):
            profile_graph(small_tornado, samples_per_k=50, ks=[20, bad])

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("samples_per_k", 2.5),
            ("samples_per_k", np.float64(64.0)),
            ("samples_per_k", True),
            ("exact_upto", True),
            ("n_jobs", 1.5),
        ],
        ids=["samples-2.5", "samples-float64", "samples-bool", "exact-bool",
             "jobs-1.5"],
    )
    def test_rejects_a_non_integer_count_before_the_checkpoint(
        self, small_tornado, tmp_path, name, bad
    ):
        """Floats raised only after the checkpoint was truncated;
        ``True`` ran as 1."""
        path = tmp_path / "sweep.jsonl"
        path.write_text("kept\n")
        sweep = {"samples_per_k": 50, name: bad}
        with pytest.raises(
            TypeError, match=re.escape(f"{name} must be an integer, got {bad!r}")
        ):
            profile_graph(small_tornado, **sweep, checkpoint=path)
        assert path.read_text() == "kept\n"

    def test_accepts_numpy_integer_ks(self, small_tornado):
        sweep = dict(samples_per_k=50, seed=2)
        numpy_ks = profile_graph(
            small_tornado, ks=[np.int64(10), np.int32(20)], **sweep
        )
        assert numpy_ks.to_json() == (
            profile_graph(small_tornado, ks=[10, 20], **sweep).to_json()
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_jobs=2, cell_timeout=0), "cell_timeout must be positive"),
            (dict(n_jobs=2, cell_timeout=-1), "cell_timeout must be positive"),
            (dict(n_jobs=0), "n_jobs must be >= 1"),
            (dict(n_jobs=-1), "n_jobs must be >= 1"),
        ],
        ids=["timeout-0", "timeout-negative", "jobs-0", "jobs-negative"],
    )
    def test_rejects_execution_arguments_that_void_the_sweep(
        self, small_tornado, kwargs, message
    ):
        """A timeout of 0 abandoned every pooled cell and returned an
        all-uncovered profile, interpolated from the exact head, without
        an error."""
        with pytest.raises(ValueError, match=message):
            profile_graph(
                small_tornado, samples_per_k=50, exact_upto=2, **kwargs
            )

    def test_accepts_both_ends_of_the_curve(self, small_tornado):
        prof = profile_graph(small_tornado, samples_per_k=50, ks=[0, 10, 32])
        assert prof.fail_fraction[0] == 0.0
        assert prof.fail_fraction[32] == 1.0
        assert prof.samples[10] == 50

    def test_parallel_equals_serial_per_engine(self, small_tornado):
        """Each pinned kernel gives the same profile at any worker count."""
        for engine in ("bitset", "sparse"):
            kwargs = dict(
                samples_per_k=4000, ks=[9, 12], seed=3, engine=engine
            )
            serial = profile_graph(small_tornado, **kwargs)
            parallel = profile_graph(small_tornado, **kwargs, n_jobs=2)
            assert serial.to_json() == parallel.to_json(), engine

    def test_parallel_equals_serial_on_every_catalog_graph(self):
        """Same fail_fraction bytes and span IDs at n_jobs 1 and 2."""
        for name, graph in catalog_96_node_systems().items():
            sweep = dict(samples_per_k=64, exact_upto=2, seed=5)
            assert _traced_profile(graph, 1, **sweep) == _traced_profile(
                graph, 2, **sweep
            ), name

    def test_parallel_equals_serial_on_a_csr_sweep(self):
        graph = tornado_csr_graph(2048, seed=1)
        sweep = dict(samples_per_k=500, ks=[100, 400, 900, 1500], seed=9)
        assert _traced_profile(graph, 1, **sweep) == _traced_profile(
            graph, 2, **sweep
        )

    def test_in_process_sweep_ignores_crash_drill(
        self, small_tornado, monkeypatch
    ):
        """The fault drills belong to pool workers: a cell run in-process
        must never os._exit its caller."""
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        prof = profile_graph(small_tornado, samples_per_k=50, exact_upto=2)
        assert prof.samples[10] == 50


def _traced_profile(graph, n_jobs, **sweep):
    """(sha256 of fail_fraction, traced span-ID set) of one sweep."""
    from repro.obs.trace import Tracer, trace_capture

    with trace_capture(Tracer(seed=3)) as t:
        prof = profile_graph(graph, n_jobs=n_jobs, **sweep)
    digest = hashlib.sha256(prof.fail_fraction.tobytes()).hexdigest()
    spans = {
        (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
        for r in t.records
    }
    return digest, spans


class TestSweepCellWorker:
    def test_worker_matches_direct_call(self, small_tornado):
        """The one cell runner must reproduce the direct estimator
        bit-for-bit given the same SeedSequence."""
        from repro.sim.montecarlo import _sweep_cells

        seed_seq = np.random.SeedSequence(1234)
        ((k, frac, elapsed, snapshot, spans),) = _sweep_cells(
            small_tornado,
            make_batch_decoder(small_tornado),
            [(8, 500, seed_seq, False, None)],
        )
        rng = np.random.default_rng(np.random.SeedSequence(1234))
        direct = sample_fail_fraction(small_tornado, 8, 500, rng)
        assert k == 8
        assert frac == direct
        assert elapsed >= 0
        assert snapshot is None
        assert spans == []  # no trace context shipped -> no spans

    def test_worker_collects_metrics_snapshot(self, small_tornado):
        from repro.sim.montecarlo import _sweep_cells

        seed_seq = np.random.SeedSequence(1234)
        ((k, frac, elapsed, snapshot, spans),) = _sweep_cells(
            small_tornado,
            make_batch_decoder(small_tornado),
            [(8, 500, seed_seq, True, None)],
        )
        assert snapshot is not None
        assert any(
            name.startswith("decoder.") for name in snapshot["counters"]
        )

    def test_pool_tasks_carry_no_graph_and_no_decoder(
        self, small_tornado, monkeypatch
    ):
        """Every submitted task is the bare 5-tuple: the graph reaches
        workers through the pool initializer, never per task."""
        from concurrent.futures import ProcessPoolExecutor

        submitted = []
        real_submit = ProcessPoolExecutor.submit

        def spy(self, fn, *args, **kwargs):
            submitted.append(args)
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        profile_graph(small_tornado, samples_per_k=50, exact_upto=2, n_jobs=2)
        assert len(submitted) == 14  # k = 3..16
        for (task,) in submitted:
            assert isinstance(task, tuple) and len(task) == 5
            k, n_samples, seed_seq, collect_metrics, ctx = task
            assert 3 <= k <= 16 and n_samples == 50
            assert isinstance(seed_seq, np.random.SeedSequence)
            assert collect_metrics is False and ctx is None
            assert not any(
                isinstance(field, (ErasureGraph, CsrGraph))
                or hasattr(field, "decode_packed")
                for field in task
            )


class TestSweepTracing:
    """Trace propagation through profile_graph's sequential and pooled
    sweep paths: same tree shape and IDs at every worker count."""

    def _traced_records(self, graph, n_jobs, seed=3):
        from repro.obs.trace import Tracer, trace_capture

        with trace_capture(Tracer(seed=seed)) as t:
            profile_graph(
                graph, samples_per_k=50, exact_upto=2, n_jobs=n_jobs
            )
        return t.records

    def _assert_one_cell_span_per_sampled_cell(self, graph, n_jobs):
        from repro.obs.analyze import build_trace_trees, span_records

        records = self._traced_records(graph, n_jobs=n_jobs)
        roots, orphans, repeated = build_trace_trees(span_records(records))
        assert orphans == repeated == []
        (root,) = roots
        assert root.name == "profile.sweep"
        assert root.attrs["graph"] == graph.name
        cells = [c for c in root.children if c.name == "profile.cell"]
        # k = 3..16: exact to 2, certain above 32 - 16; neither is a cell.
        assert len(cells) == root.attrs["cells"] == 14
        assert sorted(c.attrs["k"] for c in cells) == list(range(3, 17))
        for cell in cells:
            assert 0.0 <= cell.attrs["frac"] <= 1.0

    def test_sequential_sweep_tree(self, small_tornado):
        self._assert_one_cell_span_per_sampled_cell(small_tornado, n_jobs=1)

    def test_parallel_sweep_tree(self, small_tornado):
        self._assert_one_cell_span_per_sampled_cell(small_tornado, n_jobs=2)

    def test_parallel_sweep_matches_sequential_ids(self, small_tornado):
        sequential = {
            (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
            for r in self._traced_records(small_tornado, n_jobs=1)
        }
        parallel = {
            (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
            for r in self._traced_records(small_tornado, n_jobs=2)
        }
        assert sequential == parallel

    def test_untraced_sweep_identical_profile(self, small_tornado):
        from repro.obs.trace import Tracer, trace_capture

        plain = profile_graph(small_tornado, samples_per_k=50, seed=3)
        with trace_capture(Tracer(seed=3)):
            traced = profile_graph(
                small_tornado, samples_per_k=50, seed=3
            )
        np.testing.assert_array_equal(
            plain.fail_fraction, traced.fail_fraction
        )


# Graph 3 cells of the fused-cell tests: six, so that groups of two to
# four cells leave a shorter tail group.
FUSED_KS = [8, 14, 20, 26, 32, 38]


def _kernel_calls(monkeypatch, kernel):
    """Log each in-process ``kernel.decode_packed`` call as ``[batch,
    widths]``, ``widths`` the words of each range it peeled."""
    calls = []
    entry, peel = kernel.decode_packed, kernel._peel

    def decode_packed(self, packed, batch=None):
        calls.append([batch, []])
        return entry(self, packed, batch)

    def logged_peel(self, u):
        calls[-1][1].append(u.shape[1])  # list.append: safe off-thread
        return peel(self, u)

    monkeypatch.setattr(kernel, "decode_packed", decode_packed)
    monkeypatch.setattr(kernel, "_peel", logged_peel)
    return calls


def _observed(graph, path, n_jobs, **sweep):
    """What a sweep reports: profile JSON, checkpoint bytes, span-ID set
    and ``decoder.cases``."""
    from repro.obs.trace import Tracer, trace_capture

    with trace_capture(Tracer(seed=3)) as t:
        with capture(MetricsRegistry()) as reg:
            profile = profile_graph(
                graph, n_jobs=n_jobs, checkpoint=path, **sweep
            )
    spans = {
        (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
        for r in t.records
    }
    cases = reg.snapshot()["counters"]["decoder.cases"]
    return profile.to_json(), path.read_bytes(), spans, cases


class TestFusedCells:
    """Consecutive small cells share one kernel call, and nothing a
    sweep reports can tell."""

    @staticmethod
    def _sweep(samples):
        return dict(samples_per_k=samples, exact_upto=2, ks=FUSED_KS, seed=5)

    @pytest.mark.parametrize("cpus,n_jobs", [(1, 1), (2, 1), (3, 1), (4, 1),
                                             (2, 2)])
    @pytest.mark.parametrize("samples", [4096, 16384, 20000, 100, 50])
    def test_fused_equals_one_call_per_batch(
        self, graph3, tmp_path, monkeypatch, samples, cpus, n_jobs
    ):
        """The fused width is ``cpus`` cells' width, so a full call
        holds about ``cpus`` cells, peeled in one range on the caller
        (in serial sweeps while it is at least ``_serial_words`` wide).
        20 000 samples are two batches per cell, the second 3 616 cases
        whose last word has pad lanes; at 100 and 50 every cell leaves
        pad lanes, so the next one starts mid-word.  A pool runs one
        cell per task."""
        sweep = self._sweep(samples)
        with monkeypatch.context() as mp:
            # The unfused shape: every batch its own one-range call.
            mp.setattr(lossmasks, "_cpu_count", lambda: 1)
            mp.setattr(BitsetBatchDecoder, "_fused_words", 1)
            alone = _kernel_calls(mp, BitsetBatchDecoder)
            want = _observed(graph3, tmp_path / "alone.jsonl", 1, **sweep)
        assert len(alone) == len(FUSED_KS) * -(-samples // 16384)
        assert all(len(widths) == 1 for _, widths in alone)

        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(
            BitsetBatchDecoder, "_fused_words",
            cpus * graph3.num_nodes * -(-samples // 64),
        )
        fused = _kernel_calls(monkeypatch, BitsetBatchDecoder)
        got = _observed(
            graph3, tmp_path / "fused.jsonl", n_jobs, **sweep,
            cell_timeout=60,
        )
        assert got == want
        if n_jobs == 1:
            assert all(len(widths) == 1 for _, widths in fused)
            assert sum(batch for batch, _ in fused) == got[3]
            if cpus > 1:
                assert len(fused) < len(alone)

    def test_resume_from_a_checkpoint_cut_mid_group(
        self, graph3, tmp_path, monkeypatch
    ):
        """Four 64-word cells to a call: the run dies after writing two
        cells of the first group, and the resumed run, grouping the rest
        differently, writes the uninterrupted file byte for byte."""
        monkeypatch.setattr(
            BitsetBatchDecoder, "_fused_words", 4 * graph3.num_nodes * 64
        )
        sweep = self._sweep(4096)
        calls = _kernel_calls(monkeypatch, BitsetBatchDecoder)
        whole = tmp_path / "whole.jsonl"
        want = profile_graph(graph3, checkpoint=whole, **sweep)
        assert [batch for batch, _ in calls] == [4 * 4096, 2 * 4096]
        header, *cells = whole.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(header + b"".join(cells[:2]))
        calls.clear()
        got = profile_graph(graph3, checkpoint=cut, resume=True, **sweep)
        assert [batch for batch, _ in calls] == [4 * 4096]
        assert got.to_json() == want.to_json()
        assert cut.read_bytes() == whole.read_bytes()

    def test_benchmark_sweeps_keep_their_call_counts(
        self, graph3, monkeypatch
    ):
        """``sweep_small``'s 42 cells fuse eleven to a call whatever the
        CPU count: 4 calls of up to 2 816 words, each in one range,
        where there were 42 of 256.  On two CPUs each ``sweep_large``
        cell already meets its target, so it makes the same 2 calls as
        before, in two ranges."""
        assert BitsetBatchDecoder._fused_words == 1 << 18
        small = _kernel_calls(monkeypatch, BitsetBatchDecoder)
        cells = [11, 11, 11, 9]
        for cpus in (1, 2):
            monkeypatch.setattr(lossmasks, "_cpu_count", lambda: cpus)
            small.clear()
            profile_graph(graph3, samples_per_k=16384, seed=1)
            assert [batch for batch, _ in small] == [c * 16384 for c in cells]
            assert [widths for _, widths in small] == [[c * 256] for c in cells]

        monkeypatch.setattr(lossmasks, "_cpu_count", lambda: 2)

        large = _kernel_calls(monkeypatch, SparseBitsetDecoder)
        graph = tornado_csr_graph(8192, seed=1)
        n = graph.num_nodes
        profile_graph(graph, ks=[n // 10, n // 4], samples_per_k=2048, seed=1)
        assert [batch for batch, _ in large] == [2048, 2048]
        assert all(widths == [16, 16] for _, widths in large)
