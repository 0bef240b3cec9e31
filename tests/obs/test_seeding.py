"""Unified seeding helper tests."""

import numpy as np
import pytest

from repro.obs import derive_seed, resolve_rng, spawn_seeds


class TestResolveRng:
    def test_int_seed_reproducible(self):
        a = resolve_rng(42).random(4)
        b = resolve_rng(42).random(4)
        np.testing.assert_array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_numpy_integer_accepted(self):
        a = resolve_rng(np.int64(5)).random()
        b = resolve_rng(5).random()
        assert a == b

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(9)
        assert isinstance(resolve_rng(ss), np.random.Generator)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            resolve_rng("nope")


class TestSpawnSeeds:
    @staticmethod
    def _states(children):
        return [tuple(s.generate_state(2).tolist()) for s in children]

    def test_int_fanout_deterministic(self):
        a = self._states(spawn_seeds(7, 5))
        b = self._states(spawn_seeds(7, 5))
        assert a == b
        assert len(set(a)) == 5  # children produce distinct streams

    def test_generator_fanout_reproducible_from_state(self):
        a = self._states(spawn_seeds(np.random.default_rng(3), 4))
        b = self._states(spawn_seeds(np.random.default_rng(3), 4))
        assert a == b

    def test_generator_fanout_advances_state(self):
        gen = np.random.default_rng(3)
        a = self._states(spawn_seeds(gen, 4))
        b = self._states(spawn_seeds(gen, 4))
        assert a != b

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            spawn_seeds(1.5, 2)


class TestDeriveSeed:
    def test_int_passthrough(self):
        assert derive_seed(11) == 11
        assert derive_seed(np.int32(11)) == 11

    def test_none_is_zero(self):
        assert derive_seed(None) == 0

    def test_generator_draw_is_reproducible(self):
        assert derive_seed(np.random.default_rng(1)) == derive_seed(
            np.random.default_rng(1)
        )


class TestEntryPointsAcceptBothForms:
    def test_profile_graph(self):
        from repro.graphs import tornado_catalog_graph
        from repro.sim import profile_graph

        g = tornado_catalog_graph(3)
        p_int = profile_graph(g, samples_per_k=50, seed=5)
        p_gen = profile_graph(
            g, samples_per_k=50, seed=np.random.default_rng(5)
        )
        assert p_int.num_devices == p_gen.num_devices == 96

    def test_generate_certified_with_generator(self):
        from repro.core import generate_certified
        from repro.obs import derive_seed

        # A generator seed derives an integer start seed; the run must
        # match the explicit-int run from the same derived seed.
        start = derive_seed(np.random.default_rng(0))
        by_gen = generate_certified(48, seed=np.random.default_rng(0))
        by_int = generate_certified(48, seed=start)
        assert by_gen.seed_used == by_int.seed_used

    def test_fail_random_with_int_seed(self):
        from repro.storage import DeviceArray

        arr = DeviceArray(10)
        failed = arr.fail_random(3, 0)
        arr2 = DeviceArray(10)
        assert arr2.fail_random(3, 0) == failed

    def test_overhead_int_and_generator_agree(self):
        from repro.graphs import tornado_catalog_graph
        from repro.sim import measure_retrieval_overhead

        g = tornado_catalog_graph(3)
        a = measure_retrieval_overhead(g, n_trials=20, seed=0)
        b = measure_retrieval_overhead(
            g, n_trials=20, seed=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(a.downloads, b.downloads)
