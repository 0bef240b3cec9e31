"""X7 — full fraction-failure curves for federated systems (Table 7+).

The paper reports only first failures for federated configurations;
this extension plots the complete curves using the batch kernel over
the federation's stacked graph (site constraints + one replica level
per extra site).
Expected shape: at matched total device counts the complementary-graph
federation's curve sits at or below the duplicated-graph curve, and
both transition far later than 4-copy mirroring.

The timed kernel is one batch decode over the 192-device federation.
"""

import numpy as np
import pytest

from _bench_utils import write_result
from repro.analysis import ascii_curves
from repro.core import make_batch_decoder
from repro.federation import FederatedSystem, federated_profile
from repro.graphs import mirrored_graph, tornado_catalog_graph

SAMPLES = 2_000
KS = list(range(4, 190, 6))


@pytest.fixture(scope="module")
def federations():
    m = mirrored_graph(48)
    g1 = tornado_catalog_graph(1)
    g2 = tornado_catalog_graph(2)
    return {
        "Mirrored (4 copies)": FederatedSystem([m, m]),
        "Tornado 1 + Tornado 1": FederatedSystem([g1, g1]),
        "Tornado 1 + Tornado 2": FederatedSystem([g1, g2]),
    }


def test_x7_federated_curves(benchmark, federations):
    system = federations["Tornado 1 + Tornado 2"]
    decoder = make_batch_decoder(system.graph)
    rng = np.random.default_rng(0)
    masks = rng.random((2_000, 192)) < 0.4
    benchmark(decoder.decode_batch, masks)

    profiles = []
    for label, fed in federations.items():
        profiles.append(
            federated_profile(
                fed,
                samples_per_k=SAMPLES,
                seed=0,
                ks=KS,
                name=label,
            )
        )
    figure = ascii_curves(profiles, k_max=160)
    lines = [
        f"{p.system_name}: 50% point at "
        f"{p.nodes_for_success_probability(0.5)} of 192 online"
        for p in profiles
    ]
    write_result(
        "x7_federated_curves",
        "X7 - fraction-failure curves for two-site federations "
        f"({SAMPLES} samples per sampled k)\n\n"
        + figure
        + "\n\n"
        + "\n".join(lines),
    )

    by_name = {p.system_name: p for p in profiles}
    mirror = by_name["Mirrored (4 copies)"]
    dup = by_name["Tornado 1 + Tornado 1"]
    comp = by_name["Tornado 1 + Tornado 2"]
    # Tornado federations transition later (tolerate more losses at 50%)
    assert (
        dup.nodes_for_success_probability(0.5)
        <= mirror.nodes_for_success_probability(0.5)
    )
    # Complementary never does worse than duplicated in the bulk.
    mid = slice(40, 150)
    assert (
        comp.fail_fraction[mid] <= dup.fail_fraction[mid] + 0.05
    ).all()
