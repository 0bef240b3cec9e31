"""X6 — reliability with repair in the loop (Table 5 extension).

Table 5 assumes a repair-free year.  This experiment prices the same
five organisations with repair: ``mttdl``, the birth–death chain over
each failure curve, beside the discrete-event lifetime simulator it is
checked against — Poisson device failures, exponential repairs.  Rates
are elevated (AFR 30%, MTTR ~5 weeks) so the simulator resolves the
weak systems: every RAID mission loses data, and the simulated mean
time to loss is an MTTDL estimate.  The Tornado graph loses nothing in
the simulated missions; only the chain prices it.  The ordering must
match Table 5: striping < RAID5 < RAID6 ~ mirrored << Tornado.

The timed kernel is the chain on the Tornado profile.
"""

import math

import numpy as np
from _bench_utils import write_result
from repro.analysis import format_table
from repro.raid import (
    mirrored_system,
    raid5_system,
    raid6_system,
    striped_system,
)
from repro.reliability import (
    LifetimeConfig,
    failure_predicate_for_graph,
    failure_predicate_for_groups,
    mttdl,
    simulate_lifetime,
)
from repro.sim import FailureProfile

AFR = 0.30
MTTR = 0.10  # years
RUNS = 250
MISSION = 10.0


def test_x6_lifetime_with_repair(benchmark, systems, profile_of):
    tornado = profile_of("Tornado Graph 3")
    benchmark(mttdl, tornado, AFR, MTTR)

    cases = [
        ("Striped", striped_system(), (96, 1, 0)),
        ("RAID5 8x12", raid5_system(), (8, 12, 1)),
        ("RAID6 8x12", raid6_system(), (8, 12, 2)),
        ("Mirrored 48x2", mirrored_system(), (48, 2, 1)),
        ("Tornado Graph 3", None, None),
    ]
    cfg = LifetimeConfig(
        num_devices=96, afr=AFR, mttr_years=MTTR, mission_years=MISSION
    )

    rows = []
    p_loss, chain, simulated = {}, {}, {}
    for label, system, groups in cases:
        if system is None:
            profile = tornado
            fails = failure_predicate_for_graph(systems[label])
        else:
            profile = FailureProfile.from_analytic(system)
            fails = failure_predicate_for_groups(*groups)
        result = simulate_lifetime(
            fails, cfg, n_runs=RUNS, rng=np.random.default_rng(7)
        )
        p_loss[label] = result.p_loss
        chain[label] = mttdl(profile, AFR, MTTR)
        sim = f"- ({result.losses} losses)"
        if result.losses == RUNS:
            mean = result.mean_time_to_loss
            spread = np.std(result.loss_times, ddof=1) / math.sqrt(RUNS)
            simulated[label] = (mean, spread)
            sim = f"{mean:.3f} +- {spread:.3f} yr"
        rows.append(
            [label, f"{result.p_loss:.3f}", sim, f"{chain[label]:.3g} yr"]
        )

    table = format_table(
        [
            "System",
            f"P(loss in {MISSION:g} yr)",
            "simulated mean time to loss",
            "chain MTTDL",
        ],
        rows,
    )
    write_result(
        "x6_lifetime_repair",
        "X6 - reliability with repair "
        f"(AFR {AFR:.0%}, MTTR {MTTR:g} yr, {RUNS} simulated missions)\n\n"
        + table
        + "\n\nordering must match Table 5.  The chain is exact for RAID5"
        "\nand mirroring; measured against pooled simulator runs it errs"
        "\nlow by 2.7 +- 1.5 % for RAID6 (3000 runs) and by 4.0 +- 0.7 %"
        "\nfor Tornado Graph 3 at AFR 50%, MTTR 1 yr (2700 runs).  The"
        "\nTornado value rests on sampled cells k ~ 7-12: across profile"
        "\nseeds it read 4.0e5 / 2.8e4 / 4.5e5 yr, an order of magnitude"
        "\nonly until exact cells above k = 6 land.",
    )

    assert p_loss["Striped"] == 1.0
    assert p_loss["RAID5 8x12"] >= p_loss["RAID6 8x12"]
    assert p_loss["Tornado Graph 3"] < 0.05
    for label, (mean, spread) in simulated.items():
        assert abs(chain[label] - mean) <= 3 * spread, label
    assert (
        chain["Striped"]
        < chain["RAID5 8x12"]
        < min(chain["RAID6 8x12"], chain["Mirrored 48x2"])
        < chain["Tornado Graph 3"] / 100
    )
