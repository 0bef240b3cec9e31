"""Kernels are interchangeable: byte-identical results at the same seed.

The acceptance bar for the batch kernels is not "statistically close" —
both consume the exact same RNG stream (packed and boolean masks are
two views of one selection, ``repro.core.lossmasks``), so every
profile, overhead curve, and checkpoint must match byte for byte —
across kernels, and across versions (the digests in
``test_pinned_profiles.py``; the mask-level oracle is
``tests/core/test_lossmasks.py``).  Layers above ``core`` and
the ``sim`` estimators take no kernel name, so their sparse side is
reached the way production reaches it: by the size rule, with
``_SPARSE_AUTO_MIN_NODES`` lowered.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.decoder as decoder_module
from repro.core import make_batch_decoder, tornado_graph
from repro.federation import FederatedSystem
from repro.federation.profile import federated_profile
from repro.obs import MetricsRegistry, capture
from repro.sim import measure_retrieval_overhead, profile_graph
from repro.sim.montecarlo import sample_fail_fraction


class TestProfileByteIdentical:
    def test_failure_profile_identical_across_engines(self, small_tornado):
        sweep = dict(samples_per_k=600, exact_upto=3, seed=7)
        p_auto = profile_graph(small_tornado, **sweep)
        p_bit = profile_graph(small_tornado, **sweep, engine="bitset")
        p_sp = profile_graph(small_tornado, **sweep, engine="sparse")
        assert p_bit.to_json() == p_auto.to_json()
        assert p_bit.to_json() == p_sp.to_json()

    def test_sparse_k_grid_identical(self, small_tornado):
        sweep = dict(samples_per_k=500, exact_upto=2, seed=3, ks=[6, 10, 14])
        p_bit = profile_graph(small_tornado, **sweep, engine="bitset")
        p_sp = profile_graph(small_tornado, **sweep, engine="sparse")
        assert p_bit.to_json() == p_sp.to_json()

    def test_sample_fail_fraction_identical(self, small_tornado):
        for k in (4, 9, 20):
            f_bit = sample_fail_fraction(
                small_tornado, k, 3000, rng=11, engine="bitset"
            )
            f_sp = sample_fail_fraction(
                small_tornado, k, 3000, rng=11, engine="sparse"
            )
            assert f_bit == f_sp

    def test_checkpoint_resumes_across_engines(self, small_tornado, tmp_path):
        """A sweep checkpointed under one engine resumes under the other."""
        sweep = dict(samples_per_k=400, exact_upto=3, seed=5)
        baseline = profile_graph(small_tornado, **sweep, engine="sparse")
        ckpt = tmp_path / "sweep.jsonl"
        ks_all = list(
            range(4, small_tornado.num_nodes)
        )
        first = profile_graph(
            small_tornado,
            **sweep,
            ks=ks_all[: len(ks_all) // 2],
            checkpoint=ckpt,
            engine="sparse",
        )
        assert first is not None
        resumed = profile_graph(
            small_tornado,
            **sweep,
            checkpoint=ckpt,
            resume=True,
            engine="bitset",
        )
        assert resumed.to_json() == baseline.to_json()

    def test_sparse_resumes_bitset_checkpoint(self, small_tornado, tmp_path):
        """Sparse picks up a bitset checkpoint byte-identically."""
        sweep = dict(samples_per_k=400, exact_upto=3, seed=5)
        baseline = profile_graph(small_tornado, **sweep, engine="bitset")
        ckpt = tmp_path / "sweep.jsonl"
        ks_all = list(range(4, small_tornado.num_nodes))
        profile_graph(
            small_tornado,
            **sweep,
            ks=ks_all[: len(ks_all) // 2],
            checkpoint=ckpt,
            engine="bitset",
        )
        ckpt_after_bitset = ckpt.read_bytes()
        resumed = profile_graph(
            small_tornado,
            **sweep,
            checkpoint=ckpt,
            resume=True,
            engine="sparse",
        )
        assert resumed.to_json() == baseline.to_json()
        # The resumed run appended the remaining cells to the same
        # file, preserving every bitset-era byte.
        assert ckpt.read_bytes().startswith(ckpt_after_bitset)


class TestOverheadIdentical:
    def test_all_engines_identical_downloads(
        self, small_tornado, monkeypatch
    ):
        kwargs = dict(n_trials=250, seed=13)
        base = measure_retrieval_overhead(
            small_tornado, **kwargs, engine="scalar"
        ).downloads
        with capture(MetricsRegistry()) as reg:
            bitset = measure_retrieval_overhead(small_tornado, **kwargs)
            monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", 1)
            sparse = measure_retrieval_overhead(small_tornado, **kwargs)
        assert np.array_equal(base, bitset.downloads)
        assert np.array_equal(base, sparse.downloads)
        measured = [
            e["engine"] for e in reg.events
            if e["event"] == "overhead.measured"
        ]
        assert measured == ["bitset", "sparse"]
        with pytest.raises(ValueError, match="engine"):
            measure_retrieval_overhead(
                small_tornado, **kwargs, engine="bitset"
            )

    def test_batched_floor_and_ceiling(self, small_tornado):
        res = measure_retrieval_overhead(
            small_tornado, n_trials=100, seed=1
        )
        assert (res.downloads >= small_tornado.num_data).all()
        assert (res.downloads <= small_tornado.num_nodes).all()


class TestFederatedIdentical:
    def test_federated_profile_identical(self, monkeypatch):
        graph = tornado_graph(8, seed=1, min_final_lefts=4)
        system = FederatedSystem([graph, graph])
        kwargs = dict(samples_per_k=400, seed=5)
        assert make_batch_decoder(system.graph).engine == "bitset"
        f_bit = federated_profile(system, **kwargs)
        monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", 1)
        assert make_batch_decoder(system.graph).engine == "sparse"
        f_sp = federated_profile(system, **kwargs)
        assert f_bit.to_json() == f_sp.to_json()
