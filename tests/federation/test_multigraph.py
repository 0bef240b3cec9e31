"""Tests for federated multi-site storage (paper §5.3 / Table 7)."""

import pytest

from repro.core import tornado_graph
from repro.federation import (
    FederatedSystem,
    federated_first_failure,
)
from repro.graphs import mirrored_graph, tornado_catalog_graph


@pytest.fixture(scope="module")
def two_site_tornado():
    g1 = tornado_catalog_graph(1)
    g2 = tornado_catalog_graph(2)
    return FederatedSystem([g1, g2])


class TestConstruction:
    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            FederatedSystem([mirrored_graph(4)])

    def test_rejects_mismatched_layout(self):
        with pytest.raises(ValueError):
            FederatedSystem([mirrored_graph(4), mirrored_graph(6)])

    def test_device_count(self, two_site_tornado):
        assert two_site_tornado.num_devices == 192

    def test_site_of(self, two_site_tornado):
        assert two_site_tornado.site_of(0) == (0, 0)
        assert two_site_tornado.site_of(96) == (1, 0)
        assert two_site_tornado.site_of(191) == (1, 95)
        with pytest.raises(ValueError):
            two_site_tornado.site_of(192)


class TestDecode:
    def test_no_loss(self, two_site_tornado):
        result = two_site_tornado.decode([])
        assert result.success
        assert result.residual == frozenset()

    def test_loss_of_one_whole_site(self, two_site_tornado):
        result = two_site_tornado.decode(range(96))
        assert result.success  # the other replica covers everything

    def test_loss_of_everything(self, two_site_tornado):
        result = two_site_tornado.decode(range(192))
        assert not result.success
        assert result.residual == frozenset(range(192))

    def test_exchange_rescues_cross_site_failure(self):
        """Both sites locally stuck, but on different data nodes."""
        g = mirrored_graph(2)  # data {0,1}, mirrors {2,3}
        system = FederatedSystem([g, g])
        # Site A loses block 0 + its mirror; site B loses block 1 + its
        # mirror: each site alone is dead, the exchange saves both.
        result = system.decode([0, 2, 4 + 1, 4 + 3])
        assert result.success

    def test_joint_failure_when_same_pair_lost(self):
        g = mirrored_graph(2)
        system = FederatedSystem([g, g])
        result = system.decode([0, 2, 4 + 0, 4 + 2])
        assert not result.success
        assert result.residual & set(system.data_nodes) == {0}
        # Every copy and mirror of block 0, at both sites, stays stuck.
        assert result.residual == {0, 2, 4, 6}

    def test_is_recoverable_wrapper(self, two_site_tornado):
        assert two_site_tornado.is_recoverable([0, 1, 2])


class TestFirstFailure:
    def test_four_copy_mirror_is_four(self):
        """Paper Table 7 row 1: Mirrored (4 copies) fails at 4."""
        m = mirrored_graph(48)
        system = FederatedSystem([m, m])
        result = federated_first_failure(system, site_max_size=3)
        assert result is not None
        assert result[0] == 4
        assert not system.is_recoverable(result[1])

    def test_same_tornado_graph_twice_is_ten(self):
        """Paper Table 7 row 2: same graph at both sites = 2 x 5."""
        g1 = tornado_catalog_graph(1)
        system = FederatedSystem([g1, g1])
        result = federated_first_failure(system, site_max_size=6)
        assert result is not None
        assert result[0] == 10
        assert not system.is_recoverable(result[1])

    def test_complementary_graphs_exceed_duplicated(self):
        """Paper Table 7 rows 3-5: complementary pairs beat 10 by far."""
        g1 = tornado_catalog_graph(1)
        g2 = tornado_catalog_graph(2)
        system = FederatedSystem([g1, g2])
        result = federated_first_failure(system, site_max_size=8)
        if result is not None:
            size, devices = result
            assert size > 10
            assert not system.is_recoverable(devices)

    def test_rejects_three_sites(self):
        m = mirrored_graph(4)
        system = FederatedSystem([m, m, m])
        with pytest.raises(ValueError):
            federated_first_failure(system)

    def test_detected_failure_is_actually_fatal(self):
        g = tornado_graph(16, seed=0)
        h = tornado_graph(16, seed=1)
        system = FederatedSystem([g, h])
        result = federated_first_failure(system, site_max_size=6)
        if result is not None:
            assert not system.is_recoverable(result[1])
