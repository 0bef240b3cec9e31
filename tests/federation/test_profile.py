"""Tests for federated Monte Carlo profiles and the combined decoder."""

import numpy as np
import pytest

import repro.core.decoder as decoder_module
from repro.core import make_batch_decoder, tornado_graph
from repro.federation import FederatedSystem, federated_profile
from repro.graphs import mirrored_graph

from .exchange_oracle import ExchangeOracle


@pytest.fixture(scope="module")
def small_federation():
    g1 = tornado_graph(16, seed=0)
    g2 = tornado_graph(16, seed=1)
    return FederatedSystem([g1, g2])


class TestCombinedDecoder:
    def test_agrees_with_scalar_coupled_decode(self, small_federation, rng):
        dec = make_batch_decoder(small_federation.graph)
        oracle = ExchangeOracle(small_federation)
        masks = rng.random((400, 64)) < 0.45
        batch = dec.decode_batch(masks)
        scalar = np.array(
            [oracle.is_recoverable(np.flatnonzero(m)) for m in masks]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_one_whole_site_lost_recovers(self, small_federation):
        dec = make_batch_decoder(small_federation.graph)
        mask = np.zeros((1, 64), dtype=bool)
        mask[0, :32] = True
        assert dec.decode_batch(mask)[0]

    def test_everything_lost_fails(self, small_federation):
        dec = make_batch_decoder(small_federation.graph)
        assert not dec.decode_batch(np.ones((1, 64), dtype=bool))[0]

    def test_mirror_pair_federation(self):
        g = mirrored_graph(2)
        system = FederatedSystem([g, g])
        dec = make_batch_decoder(system.graph)
        # lose block 0's pair at site A only -> rescued by site B
        mask = np.zeros((2, 8), dtype=bool)
        mask[0, [0, 2]] = True
        # lose block 0's pair at both sites -> loss
        mask[1, [0, 2, 4, 6]] = True
        ok = dec.decode_batch(mask)
        np.testing.assert_array_equal(ok, [True, False])


class TestFederatedProfile:
    def test_endpoints_and_shape(self, small_federation):
        prof = federated_profile(
            small_federation, samples_per_k=200, seed=0
        )
        assert prof.num_devices == 64
        assert prof.fail_fraction[0] == 0.0
        assert prof.fail_fraction[-1] == 1.0
        assert prof.num_data == 16

    def test_sparse_grid_interpolation(self, small_federation):
        prof = federated_profile(
            small_federation,
            samples_per_k=200,
            seed=0,
            ks=[16, 32, 48],
        )
        assert prof.fail_fraction.shape == (65,)
        assert (prof.fail_fraction >= 0).all()

    def test_federation_dominates_single_site(self, small_federation):
        """P(loss | k of 2n) for the federation must not exceed the
        single site's P(loss | k of n) at matched per-site damage."""
        from repro.sim import profile_graph

        single = profile_graph(
            small_federation.graphs[0], samples_per_k=600, seed=1
        )
        joint = federated_profile(
            small_federation, samples_per_k=600, seed=1
        )
        # compare at 2k joint vs k single for a few points
        for k in (8, 12, 16):
            assert (
                joint.fail_fraction[2 * k]
                <= single.fail_fraction[k] + 0.05
            )

    @pytest.mark.parametrize("cutoff", [1 << 14, 1], ids=["bitset", "sparse"])
    def test_values_pinned_at_the_matrix_built_decoder(
        self, small_federation, monkeypatch, cutoff
    ):
        """Three cells captured from the relation-matrix decoder this
        profile ran on before the federation became one graph, on both
        sides of the kernel size rule."""
        monkeypatch.setattr(decoder_module, "_SPARSE_AUTO_MIN_NODES", cutoff)
        prof = federated_profile(
            small_federation, samples_per_k=400, seed=5
        )
        assert prof.fail_fraction[36] == 0.12
        assert prof.fail_fraction[40] == 0.49250000000000005
        assert prof.fail_fraction[44] == 0.895
        assert prof.system_name == "tornado-n16-seed0 + tornado-n16-seed1"

    def test_custom_name(self, small_federation):
        prof = federated_profile(
            small_federation, samples_per_k=50, seed=0, ks=[10],
            name="pair-A",
        )
        assert prof.system_name == "pair-A"
