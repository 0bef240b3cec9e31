"""One argument contract over every entry point that checks a count or a
number of seconds (``repro._checks``).

A count refuses a bool, any float (NaN and ``2.0`` included) or other
non-integer with ``TypeError``, and an integer below its bound with
``ValueError``.  Seconds, and every other quantity on a positive scale,
refuse a bool with ``TypeError``, and NaN or a value at or below 0
(below 0 where 0 is allowed) with ``ValueError``.  Either way the error
names the parameter and comes before any effect: the probe's generator
has drawn nothing, its directory is still empty and no counter moved,
``serve.requests`` included.

Each row runs a fixed set of refused values, then ``hypothesis`` draws.
"""

import asyncio
import dataclasses
import math
import re
import tempfile
from functools import cache
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterCoordinator,
    ClusterLoadConfig,
    HashRing,
    RepairScheduler,
)
from repro.core import (
    PlanCache,
    SparseBitsetDecoder,
    TornadoCodec,
    allocate_node_degrees,
    heavy_tail_distribution,
    make_batch_decoder,
    packed_random_loss_masks,
    packed_sparse_loss_masks,
    plan_cascade,
    poisson_distribution,
    tornado_csr_graph,
    tornado_graph,
)
from repro.core.bitdecoder import unpack_cases
from repro.core.degree import EdgeDistribution
from repro.graphs import (
    cascade_graph_from_degrees,
    lec_like_graph,
    mirrored_graph,
    regular_graph,
    replicated_graph,
    striped_graph,
    tornado_catalog_graph,
)
from repro.obs import BurnWindow, capture
from repro.raid import raid5_system
from repro.reliability import (
    BathtubHazard,
    FleetHazards,
    LifetimeConfig,
    WeibullHazard,
    calibrated_scale,
    failure_predicate_for_groups,
    mttdl,
    simulate_lifetime,
)
from repro.resilience import (
    ClusterCampaignConfig,
    DrawerOutages,
    NodeCrashes,
    ReplacementJitter,
    RetryPolicy,
    SlowNodes,
)
from repro.rs import cauchy_matrix
from repro.serve import (
    LoadGenConfig,
    MicroBatcher,
    ReconstructionService,
    ServeConfig,
    seeded_archive,
)
from repro.serve.protocol import ClusterJoinRequest, GetRequest
from repro.sim import FailureProfile, profile_graph, sample_fail_fraction
from repro.sites import (
    FederationGateway,
    FederationManifest,
    SiteAssignment,
    SitesCampaignConfig,
    SitesLoadConfig,
    WanCostModel,
)
from repro.storage import DeviceArray, StripeMonitor

NAN = math.nan


class Probe(NamedTuple):
    """What a refused call must leave as it found it."""

    rng: np.random.Generator
    dir: Path
    counters: dict  # a private registry's counters, where a row has one


class Row(NamedTuple):
    id: str
    param: str  # the name the error must carry
    call: Callable[[Any, Probe], Any]
    at_least: int | None = None  # a count's bound; None: seconds
    zero: bool = False  # seconds: 0 is allowed
    at_most: int | None = None  # a count's upper bound, where it has one


def count(id, param, call, at_least=0, at_most=None):
    return Row(id, param, call, at_least, at_most=at_most)


def seconds(id, param, call, zero=False):
    return Row(id, param, call, None, zero)


@cache
def graph():
    return tornado_graph(16, seed=3, min_final_lefts=6)


@cache
def manifest(site_max_size=6):
    sites = (SiteAssignment("a", 1), SiteAssignment("b", 2))
    return FederationManifest(sites, site_max_size, ())


RAID5 = FailureProfile.from_analytic(raid5_system())

# Stored outside any probe: its writes are not a refused call's effect.
ARCHIVE, NAMES = seeded_archive(
    graph(), objects=1, object_size=256, block_size=16
)


def submit(deadline, probe):
    """``try_submit`` on a running service; its counters go to the probe."""

    async def scenario():
        async with ReconstructionService(
            ARCHIVE, ServeConfig(batch_window=0.0)
        ) as svc:
            try:
                svc.try_submit(NAMES[0], deadline=deadline)
            finally:
                probe.counters.update(svc.stats()["counters"])

    asyncio.run(scenario())


def join(port, probe):
    """``register`` on a coordinator with a WAL: a refused port leaves no
    WAL record and the ring as it was (a journaled bad member would
    wedge every later put, and replay after a restart)."""
    with tempfile.TemporaryDirectory() as wal_dir:
        coordinator = ClusterCoordinator(graph(), wal_dir=wal_dir)
        try:
            asyncio.run(coordinator.register("bad", "127.0.0.1", port))
        finally:
            journal = coordinator.wal.load()
            coordinator.wal.close()
            assert coordinator.ring.members == ()
            assert journal == (None, [])


def fetch_stripe(seq, probe):
    coordinator = ClusterCoordinator(graph())
    asyncio.run(coordinator.fetch_stripe_raw("obj", seq))


ROWS = [
    # core and graphs
    count("codec", "block_size", lambda v, p: TornadoCodec(graph(), v), 1),
    count("catalog", "number", lambda v, p: tornado_catalog_graph(v)),
    count("sparse", "chunk",
          lambda v, p: SparseBitsetDecoder(graph(), chunk=v), 1),
    count("maskgen-k", "k",
          lambda v, p: packed_random_loss_masks(96, v, 64, p.rng)),
    count("maskgen-batch", "batch",
          lambda v, p: packed_random_loss_masks(96, 5, v, p.rng)),
    count("sparse-maskgen-batch", "batch",
          lambda v, p: packed_sparse_loss_masks(9000, 5, v, p.rng)),
    count("decode-packed", "batch", lambda v, p: make_batch_decoder(
        graph()).decode_packed(np.zeros((32, 1), np.uint64), v)),
    count("unpack", "batch",
          lambda v, p: unpack_cases(np.zeros((4, 1), np.uint64), v)),
    count("plancache", "capacity", lambda v, p: PlanCache(v)),
    count("csr", "num_nodes", lambda v, p: dataclasses.replace(
        tornado_csr_graph(64, seed=1), num_nodes=v), 1),
    count("plan-cascade", "num_data", lambda v, p: plan_cascade(v), 4),
    count("fixed-cascade", "left_degree",
          lambda v, p: cascade_graph_from_degrees(48, v, rng=p.rng), 2),
    count("edge-distribution", "edge degree",
          lambda v, p: EdgeDistribution(((v, 1.0),)), 1),
    count("heavy-tail", "d", lambda v, p: heavy_tail_distribution(v), 1),
    seconds("poisson", "alpha", lambda v, p: poisson_distribution(v, 8)),
    count("poisson", "max_degree",
          lambda v, p: poisson_distribution(1.0, v), 2),
    count("allocate", "num_nodes", lambda v, p: allocate_node_degrees(
        heavy_tail_distribution(4), v), 1),
    count("regular", "degree",
          lambda v, p: regular_graph(16, v, rng=p.rng), 2),
    count("mirrored", "num_pairs", lambda v, p: mirrored_graph(v), 1),
    count("striped", "num_devices", lambda v, p: striped_graph(v), 1),
    count("replicated", "copies", lambda v, p: replicated_graph(4, v), 2),
    count("lec", "candidates",
          lambda v, p: lec_like_graph(16, candidates=v), 1),
    count("cauchy", "k", lambda v, p: cauchy_matrix(v, 2), 1),
    count("cauchy", "m", lambda v, p: cauchy_matrix(2, v), 1),
    # sim
    count("sample", "k",
          lambda v, p: sample_fail_fraction(graph(), v, 64, p.rng)),
    count("sample", "n_samples",
          lambda v, p: sample_fail_fraction(graph(), 3, v, p.rng), 1),
    *(
        count("profile", name, lambda v, p, name=name: profile_graph(
            graph(), seed=p.rng, checkpoint=p.dir / "ck.jsonl",
            **{name: v}), at_least)
        for name, at_least in [("samples_per_k", 1), ("exact_upto", 0),
                               ("n_jobs", 1)]
    ),
    count("profile-ks", "k", lambda v, p: profile_graph(
        graph(), seed=p.rng, checkpoint=p.dir / "ck.jsonl", ks=[v])),
    seconds("profile", "cell_timeout", lambda v, p: profile_graph(
        graph(), seed=p.rng, checkpoint=p.dir / "ck.jsonl",
        cell_timeout=v)),
    # cluster
    count("coordinator", "snapshot_every", lambda v, p: ClusterCoordinator(
        graph(), wal_dir=p.dir / "wal", snapshot_every=v), 1),
    seconds("coordinator", "rpc_timeout", lambda v, p: ClusterCoordinator(
        graph(), wal_dir=p.dir / "wal", rpc_timeout=v)),
    count("coordinator-join", "port", join, 1, at_most=65535),
    count("join-request", "port", lambda v, p: ClusterJoinRequest(
        node_id="n", host="h", port=v), 1, at_most=65535),
    count("fetch-stripe", "seq", fetch_stripe),
    count("scheduler", "bytes_per_cycle",
          lambda v, p: RepairScheduler(None, bytes_per_cycle=v), 1),
    count("ring", "replicas", lambda v, p: HashRing(replicas=v), 1),
    count("ring-add", "weight", lambda v, p: HashRing().add("n", v), 1),
    *(
        count("cluster-loadgen", name,
              lambda v, p, name=name: ClusterLoadConfig(**{name: v}), 1)
        for name in ("nodes", "objects", "object_size", "block_size",
                     "requests", "scrape_every")
    ),
    seconds("cluster-loadgen", "rate",
            lambda v, p: ClusterLoadConfig(rate=v)),
    # obs
    seconds("burn-window", "short_seconds",
            lambda v, p: BurnWindow("w", v, 60.0, 2.0)),
    seconds("burn-window", "long_seconds",
            lambda v, p: BurnWindow("w", 60.0, v, 2.0)),
    seconds("burn-window", "threshold",
            lambda v, p: BurnWindow("w", 60.0, 60.0, v)),
    # reliability
    seconds("calibrated-scale", "shape",
            lambda v, p: calibrated_scale(0.01, v)),
    seconds("weibull", "shape", lambda v, p: WeibullHazard(shape=v)),
    seconds("weibull", "scale", lambda v, p: WeibullHazard(scale=v)),
    count("weibull", "year",
          lambda v, p: WeibullHazard().annual_failure_probability(v)),
    count("bathtub", "year",
          lambda v, p: BathtubHazard().annual_failure_probability(v)),
    count("fleet", "num_devices", lambda v, p: FleetHazards(
        v, WeibullHazard(), seed=p.rng), 1),
    count("fleet", "batch_size", lambda v, p: FleetHazards(
        4, WeibullHazard(), batch_size=v, seed=p.rng), 1),
    count("lifetime", "num_devices", lambda v, p: LifetimeConfig(
        num_devices=v, afr=0.1, mttr_years=0.1), 1),
    seconds("lifetime", "mttr_years", lambda v, p: LifetimeConfig(
        num_devices=4, afr=0.1, mttr_years=v)),
    seconds("lifetime", "mission_years", lambda v, p: LifetimeConfig(
        num_devices=4, afr=0.1, mttr_years=0.1, mission_years=v)),
    count("simulate-lifetime", "n_runs", lambda v, p: simulate_lifetime(
        failure_predicate_for_groups(2, 2, 1),
        LifetimeConfig(num_devices=4, afr=0.1, mttr_years=0.1),
        n_runs=v, rng=p.rng), 1),
    seconds("mttdl", "afr", lambda v, p: mttdl(RAID5, v, 0.1)),
    seconds("mttdl", "mttr_years", lambda v, p: mttdl(RAID5, 0.1, v)),
    # resilience
    *(
        count("cluster-campaign", name,
              lambda v, p, name=name: ClusterCampaignConfig(**{name: v}),
              at_least)
        for name, at_least in [("nodes", 2), ("objects", 1),
                               ("object_size", 1), ("block_size", 1),
                               ("steps", 1), ("repair_budget", 1)]
    ),
    seconds("cluster-campaign", "rpc_timeout",
            lambda v, p: ClusterCampaignConfig(rpc_timeout=v)),
    count("drawer", "drawer_size", lambda v, p: DrawerOutages(drawer_size=v),
          1),
    count("jitter", "max_extra_steps",
          lambda v, p: ReplacementJitter(max_extra_steps=v)),
    count("node-crash", "restart_delay_steps",
          lambda v, p: NodeCrashes(restart_delay_steps=v)),
    seconds("slow", "delay_seconds", lambda v, p: SlowNodes(delay_seconds=v),
            zero=True),
    count("retry", "max_attempts", lambda v, p: RetryPolicy(max_attempts=v)),
    seconds("retry", "base_delay", lambda v, p: RetryPolicy(base_delay=v),
            zero=True),
    seconds("retry", "max_delay", lambda v, p: RetryPolicy(max_delay=v),
            zero=True),
    # serve
    seconds("batcher", "window", lambda v, p: MicroBatcher(window=v),
            zero=True),
    count("batcher", "max_batch", lambda v, p: MicroBatcher(max_batch=v), 1),
    count("loadgen", "requests", lambda v, p: LoadGenConfig(requests=v), 1),
    seconds("loadgen", "rate", lambda v, p: LoadGenConfig(rate=v)),
    seconds("loadgen", "deadline", lambda v, p: LoadGenConfig(deadline=v)),
    count("seeded-archive", "objects",
          lambda v, p: seeded_archive(graph(), objects=v), 1),
    count("seeded-archive", "object_size",
          lambda v, p: seeded_archive(graph(), object_size=v)),
    count("serve-config", "queue_limit",
          lambda v, p: ServeConfig(queue_limit=v), 1),
    count("serve-config", "max_batch",
          lambda v, p: ServeConfig(max_batch=v), 1),
    count("serve-config", "plan_capacity",
          lambda v, p: ServeConfig(plan_capacity=v)),
    seconds("serve-config", "batch_window",
            lambda v, p: ServeConfig(batch_window=v), zero=True),
    seconds("serve-config", "default_deadline",
            lambda v, p: ServeConfig(default_deadline=v)),
    seconds("get-request", "deadline",
            lambda v, p: GetRequest(name="o", deadline=v)),
    seconds("try-submit", "deadline", submit),
    # sites
    *(
        count("sites-campaign", name,
              lambda v, p, name=name: SitesCampaignConfig(**{name: v}),
              at_least)
        for name, at_least in [("sites", 2), ("nodes_per_site", 3),
                               ("objects", 1), ("object_size", 1),
                               ("block_size", 1), ("steps", 1)]
    ),
    *(
        seconds("sites-campaign", name,
                lambda v, p, name=name: SitesCampaignConfig(**{name: v}),
                zero=zero)
        for name, zero in [("afr", False), ("shape", False),
                           ("infant_mortality", True), ("rpc_timeout", False)]
    ),
    *(
        count("sites-loadgen", name,
              lambda v, p, name=name: SitesLoadConfig(**{name: v}), at_least)
        for name, at_least in [("sites", 2), ("nodes_per_site", 3),
                               ("objects", 1), ("object_size", 1),
                               ("block_size", 1), ("reads_per_phase", 1),
                               ("site_max_size", 1), ("curve_samples", 1)]
    ),
    *(
        seconds("sites-loadgen", name,
                lambda v, p, name=name: SitesLoadConfig(**{name: v}))
        for name in ("rate", "rpc_timeout")
    ),
    count("site", "weight", lambda v, p: SiteAssignment("a", 1, v), 1),
    count("federation", "site_max_size", lambda v, p: manifest(v), 1),
    seconds("wan-cost", "remote_byte_cost",
            lambda v, p: WanCostModel(remote_byte_cost=v), zero=True),
    seconds("gateway", "rpc_timeout",
            lambda v, p: FederationGateway(manifest(), rpc_timeout=v)),
    # storage
    count("monitor", "repair_margin",
          lambda v, p: StripeMonitor(ARCHIVE, repair_margin=v)),
    count("devices", "num_devices", lambda v, p: DeviceArray(v), 1),
    count("fail-random", "k",
          lambda v, p: DeviceArray(4).fail_random(v, p.rng)),
]


def fixed(row):
    """``(value, error)`` pairs every run checks."""
    if row.at_least is not None:
        over = [] if row.at_most is None else [(row.at_most + 1, ValueError)]
        return [(True, TypeError), (2.5, TypeError), (NAN, TypeError),
                (2.0, TypeError), (row.at_least - 1, ValueError), *over]
    return [(True, TypeError), (NAN, ValueError),
            (-1.5 if row.zero else 0, ValueError), (-math.inf, ValueError)]


def drawn(row):
    """A ``hypothesis`` strategy of ``(value, error)`` pairs."""
    wrong_kind = st.booleans()
    if row.at_least is not None:
        wrong_kind |= st.floats(allow_nan=True, allow_infinity=True)
        wrong_value = st.integers(max_value=row.at_least - 1)
        if row.at_most is not None:
            wrong_value |= st.integers(min_value=row.at_most + 1)
    else:
        wrong_value = st.just(NAN) | st.floats(max_value=0.0).filter(
            lambda v: v < 0 if row.zero else True
        )
    return (wrong_kind.map(lambda v: (v, TypeError))
            | wrong_value.map(lambda v: (v, ValueError)))


def assert_refused(row, value, error):
    with tempfile.TemporaryDirectory() as tmp, capture() as reg:
        probe = Probe(np.random.default_rng(7), Path(tmp), {})
        before = probe.rng.bit_generator.state
        with pytest.raises(error, match=re.escape(row.param)):
            row.call(value, probe)
        assert probe.rng.bit_generator.state == before
        assert list(probe.dir.iterdir()) == []
        assert reg.snapshot()["counters"] == {}
        assert "serve.requests" not in probe.counters


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r.id}-{r.param.replace(' ', '_')}" for r in ROWS]
)
def test_refused_by_name_before_any_effect(row):
    for value, error in fixed(row):
        assert_refused(row, value, error)

    @settings(max_examples=20, deadline=None, database=None)
    @given(drawn(row))
    def check(case):
        assert_refused(row, *case)

    check()
