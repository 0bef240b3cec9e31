"""Shared-memory handoff: bundles, parallel identity, leak guards.

The zero-pickle path must be invisible in the numbers (bit-identical
estimates at any worker count) and invisible in ``/dev/shm`` (no
orphaned segments, even when a worker is SIGKILLed mid-sweep).
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import tornado_csr_graph, tornado_graph
from repro.sim.montecarlo import (
    _ShmGraphRef,
    _publish_graph,
    profile_graph,
    sample_fail_fraction,
)
from repro.sim.shm import SHM_PREFIX, SharedArrayBundle

DEV_SHM = Path("/dev/shm")


def _our_segments() -> list[str]:
    if not DEV_SHM.is_dir():  # pragma: no cover - non-Linux fallback
        return []
    return [p.name for p in DEV_SHM.iterdir() if SHM_PREFIX in p.name]


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test in this file must leave /dev/shm as it found it."""
    before = set(_our_segments())
    yield
    leaked = set(_our_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestSharedArrayBundle:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(100, dtype=np.intp),
            "b": np.random.default_rng(0).random((7, 9)),
            "c": np.array([], dtype=np.uint64),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.descriptor)
            try:
                for key, arr in arrays.items():
                    assert np.array_equal(attached[key], arr), key
                # Attached views are read-only.
                with pytest.raises(ValueError):
                    attached["a"][0] = 1
            finally:
                attached.close()

    def test_owner_unlinks_on_close(self):
        bundle = SharedArrayBundle.create(
            {"x": np.zeros(10, dtype=np.uint64)}
        )
        name = bundle.descriptor[0]
        assert name in _our_segments()
        bundle.close()
        assert name not in _our_segments()
        bundle.close()  # idempotent

    def test_attach_close_does_not_unlink(self):
        with SharedArrayBundle.create(
            {"x": np.ones(4, dtype=np.float64)}
        ) as bundle:
            attached = SharedArrayBundle.attach(bundle.descriptor)
            attached.close()
            # The segment survives a non-owner close.
            again = SharedArrayBundle.attach(bundle.descriptor)
            assert again["x"].sum() == 4.0
            again.close()

    def test_descriptor_is_tiny_and_picklable(self):
        import pickle

        with SharedArrayBundle.create(
            {"big": np.zeros((1 << 12, 16), dtype=np.uint64)}
        ) as bundle:
            blob = pickle.dumps(bundle.descriptor)
            assert len(blob) < 512  # descriptors, not data, get pickled


class TestParallelIdentity:
    def test_sample_fail_fraction_njobs_identity(self, small_tornado):
        """Serial and shm-parallel estimates match exactly, per engine."""
        for engine in ("bitset", "sparse"):
            serial = sample_fail_fraction(
                small_tornado, 9, 4000, rng=3, engine=engine
            )
            par = sample_fail_fraction(
                small_tornado, 9, 4000, rng=3, engine=engine, n_jobs=2
            )
            assert serial == par, engine

    def test_profile_graph_shm_identity(self):
        """Sparse parallel sweep (CSR via shm) matches the serial sweep."""
        graph = tornado_csr_graph(1 << 8, seed=6)
        kwargs = dict(
            samples_per_k=800, ks=[12, 40, 90], seed=11, engine="sparse"
        )
        serial = profile_graph(graph, **kwargs)
        parallel = profile_graph(graph, **kwargs, n_jobs=2)
        assert serial.to_json() == parallel.to_json()


class TestCrashSafety:
    def test_sigkilled_worker_leaves_no_segments(self):
        """SIGKILL a sweep worker mid-run: no orphaned /dev/shm entries.

        Workers never own segments, so the only cleanup that matters is
        the parent's — which must also survive the BrokenProcessPool
        the kill provokes.  REPRO_FAULT_CRASH_K makes the worker for
        one k-cell call os._exit (same observable effect as SIGKILL:
        no atexit, no finally) while other cells proceed.
        """
        graph = tornado_graph(16, seed=3, min_final_lefts=6)
        os.environ["REPRO_FAULT_CRASH_K"] = "9"
        try:
            profile = profile_graph(
                graph,
                samples_per_k=300,
                ks=[7, 9, 12],
                seed=2,
                engine="sparse",
                n_jobs=2,
                cell_timeout=60.0,
                max_retries=0,
            )
        finally:
            os.environ.pop("REPRO_FAULT_CRASH_K", None)
        # The crashed cell is excluded, the sweep still completed.
        assert not profile.coverage[9]
        assert profile.coverage[7] and profile.coverage[12]

    def test_sigkill_during_mask_decode(self, small_tornado):
        """Kill a mask-decode worker outright; parent still cleans up."""
        from concurrent.futures.process import BrokenProcessPool

        ref, bundle = _publish_graph(small_tornado)
        assert isinstance(ref, _ShmGraphRef)
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=1)
            fut = pool.submit(time.sleep, 30)
            # Give the pool a beat to spawn its worker, then kill it.
            deadline = time.time() + 10
            while not pool._processes and time.time() < deadline:
                time.sleep(0.05)
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                fut.result(timeout=30)
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            bundle.close()
        # The autouse fixture asserts no segments leaked.
