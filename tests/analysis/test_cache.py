"""ProfileCache keying, manifests, and metrics tests."""

import numpy as np
import pytest

from repro.analysis import ProfileCache
from repro.graphs import tornado_catalog_graph
from repro.obs import RunManifest, capture


@pytest.fixture(scope="module")
def graph():
    return tornado_catalog_graph(3)


@pytest.fixture
def cache(tmp_path):
    return ProfileCache(tmp_path / "cache")


class TestKeying:
    def test_second_get_hits_cache(self, cache, graph):
        a = cache.get(graph, samples_per_k=50, seed=0)
        b = cache.get(graph, samples_per_k=50, seed=0)
        np.testing.assert_array_equal(a.fail_fraction, b.fail_fraction)
        profiles = [
            p
            for p in cache.root.glob("*.json")
            if not p.name.endswith(".manifest.json")
        ]
        assert len(profiles) == 1

    def test_exact_upto_no_longer_collides(self, cache, graph):
        """Regression: differing exact_upto used to share a cache entry.

        With exact_upto=6 the k<=6 head is exact (zero failures for a
        first-failure-5 graph are impossible: k=5 has a tiny exact
        probability); with exact_upto=2 the head beyond k=2 is sampled
        at 50 samples and k=5's ~1e-7 probability reads as zero.  The
        old key ignored exact_upto, so whichever call ran first
        poisoned the other.
        """
        full = cache.get(graph, samples_per_k=50, seed=0, exact_upto=6)
        shallow = cache.get(graph, samples_per_k=50, seed=0, exact_upto=2)
        assert full.fail_fraction[5] > 0  # exact head sees the 1e-7 tail
        assert full.samples[5] == 0
        assert shallow.samples[5] == 50  # sampled, not exact
        profiles = [
            p
            for p in cache.root.glob("*.json")
            if not p.name.endswith(".manifest.json")
        ]
        assert len(profiles) == 2  # distinct entries, no collision

    def test_ks_participates_in_key(self, cache, graph):
        cache.get(graph, samples_per_k=50, seed=0, ks=[10, 20])
        cache.get(graph, samples_per_k=50, seed=0, ks=[10, 30])
        profiles = [
            p
            for p in cache.root.glob("*.json")
            if not p.name.endswith(".manifest.json")
        ]
        assert len(profiles) == 2

    def test_clear_counts_profiles_only(self, cache, graph):
        cache.get(graph, samples_per_k=50, seed=0)
        assert cache.clear() == 1
        assert list(cache.root.glob("*.json")) == []


class TestManifestSidecar:
    def test_write_stores_manifest(self, cache, graph):
        cache.get(graph, samples_per_k=50, seed=3, exact_upto=4)
        manifest = cache.manifest_for(
            graph, samples_per_k=50, seed=3, exact_upto=4
        )
        assert isinstance(manifest, RunManifest)
        assert manifest.seed == 3
        assert manifest.config["samples_per_k"] == 50
        assert manifest.config["exact_upto"] == 4
        assert manifest.wall_seconds is not None

    def test_manifest_records_the_kernel_that_filled(
        self, cache, graph, monkeypatch
    ):
        """Regression: the fill resolved its engine without the node
        count, got "bitset", and pinned it — so a graph at or above the
        auto cutoff was swept by, and recorded as, the slower kernel."""
        import repro.core.decoder as decoder_module

        monkeypatch.setattr(
            decoder_module, "_SPARSE_AUTO_MIN_NODES", graph.num_nodes
        )
        kwargs = dict(samples_per_k=50, seed=3, ks=[20, 40])
        with capture() as reg:
            cache.get(graph, **kwargs)
        assert cache.manifest_for(graph, **kwargs).extra["engine"] == "sparse"
        assert reg.counter("decoder.cases.sparse").value == 100
        assert reg.counter("decoder.cases.bitset").value == 0

    def test_missing_manifest_is_none(self, cache, graph):
        assert (
            cache.manifest_for(graph, samples_per_k=999, seed=9) is None
        )


class TestMetrics:
    def test_hit_miss_counters(self, cache, graph):
        with capture() as reg:
            cache.get(graph, samples_per_k=50, seed=0)
            cache.get(graph, samples_per_k=50, seed=0)
        assert reg.counter("cache.misses").value == 1
        assert reg.counter("cache.hits").value == 1

    def test_invalidation_counter(self, cache, graph):
        cache.get(graph, samples_per_k=50, seed=0)
        with capture() as reg:
            cache.clear()
        assert reg.counter("cache.invalidations").value == 1
