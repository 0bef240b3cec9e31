"""Tests for Monte Carlo estimation — including the paper's own
simulator-vs-theory verification (§3, Eq. 1)."""

import numpy as np
import pytest

from repro.core import BitsetBatchDecoder, PeelingDecoder
from repro.core.lossmasks import boolean_loss_masks
from repro.graphs import mirrored_graph, striped_graph
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


class TestSweepCellWorker:
    def test_worker_matches_direct_call(self, small_tornado):
        """The process-pool worker must reproduce the direct estimator
        bit-for-bit given the same SeedSequence."""
        from repro.sim.montecarlo import _sweep_cell

        seed_seq = np.random.SeedSequence(1234)
        k, frac, elapsed, snapshot, spans = _sweep_cell(
            (small_tornado, 8, 500, seed_seq, False, "auto", None)
        )
        rng = np.random.default_rng(np.random.SeedSequence(1234))
        direct = sample_fail_fraction(small_tornado, 8, 500, rng)
        assert k == 8
        assert frac == direct
        assert elapsed >= 0
        assert snapshot is None
        assert spans == []  # no trace context shipped -> no spans

    def test_worker_collects_metrics_snapshot(self, small_tornado):
        from repro.sim.montecarlo import _sweep_cell

        seed_seq = np.random.SeedSequence(1234)
        k, frac, elapsed, snapshot, spans = _sweep_cell(
            (small_tornado, 8, 500, seed_seq, True, "auto", None)
        )
        assert snapshot is not None
        assert any(
            name.startswith("decoder.") for name in snapshot["counters"]
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
        roots, orphans = build_trace_trees(span_records(records))
        assert orphans == []
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
