"""Property tests for federated decode semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PeelingDecoder, tornado_graph
from repro.federation import FederatedSystem


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), data=st.data())
def test_federation_never_worse_than_best_site(seed, data):
    """If either site alone could decode its own losses, the coupled
    system must also succeed."""
    g1 = tornado_graph(16, seed=seed % 6)
    g2 = tornado_graph(16, seed=(seed % 6) + 10)
    system = FederatedSystem([g1, g2])
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, 40))
    lost = rng.choice(64, size=k, replace=False)
    site_a = [d for d in lost if d < 32]
    site_b = [d - 32 for d in lost if d >= 32]

    ok_a = PeelingDecoder(g1).is_recoverable(site_a)
    ok_b = PeelingDecoder(g2).is_recoverable(site_b)
    joint = system.is_recoverable(lost)
    if ok_a or ok_b:
        assert joint


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), data=st.data())
def test_losing_more_devices_never_helps_federation(seed, data):
    g1 = tornado_graph(16, seed=seed % 4)
    system = FederatedSystem([g1, g1])
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, 50))
    base = set(rng.choice(64, size=k, replace=False).tolist())
    extra = int(rng.integers(0, 64))
    if system.is_recoverable(base | {extra}):
        assert system.is_recoverable(base)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 300))
def test_decode_result_accounting(seed):
    """Lost data (residual ∩ data nodes) is empty exactly on success,
    and every node the schedule solves was actually missing."""
    g1 = tornado_graph(16, seed=seed % 5)
    g2 = tornado_graph(16, seed=(seed % 5) + 7)
    system = FederatedSystem([g1, g2])
    rng = np.random.default_rng(seed)
    lost = rng.choice(64, size=45, replace=False)
    result = system.decode(lost)
    lost_data = result.residual & set(system.data_nodes)
    assert result.success == (not lost_data)
    assert result.residual <= set(lost.tolist())
    assert set(result.recovered) == set(lost.tolist()) - result.residual
