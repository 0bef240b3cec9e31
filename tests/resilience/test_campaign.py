"""Tests for seeded fault-injection campaigns."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.resilience import (
    CampaignConfig,
    DrawerOutages,
    FaultPlan,
    LatentErrors,
    SilentCorruption,
    TransientOutages,
    run_campaign,
)
from repro.storage import DeviceArray, MissionConfig, TornadoArchive

FULL_PLAN = FaultPlan(
    faults=(
        TransientOutages(rate=0.05, mean_outage_steps=2.0),
        DrawerOutages(rate=0.1, drawer_size=12, mode="transient"),
        LatentErrors(rate=0.02),
        SilentCorruption(rate=0.02),
    )
)

QUIET_CONFIG = CampaignConfig(
    mission=MissionConfig(
        years=1.0, steps_per_year=12, afr=0.01, repair_margin=2
    ),
    scrub_interval=3,
    read_interval=2,
)


def build_archive(graph):
    archive = TornadoArchive(graph, DeviceArray(32), block_size=64)
    archive.put("alpha", bytes(range(256)) * 8)
    archive.put("beta", b"archive payload " * 100)
    return archive


def run_once(graph, seed=11):
    return run_campaign(
        build_archive(graph), FULL_PLAN, QUIET_CONFIG, seed=seed
    )


EXAMPLE_PLAN = (
    Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"
)

# Campaign digests pinned from the per-device Bernoulli draw that the
# hazard fleet's default curve (Weibull, shape 1) replaced: plan x AFR
# x seeds 0-3, two years of weekly steps over ``build_archive``.  The
# "example" plan's six runs with a read that gives up were re-pinned when
# that event's detail became ``read_stripe``'s message (which names the
# dark devices); every event's step and kind and every count held.
PINNED = {
    "empty": {
        0.0: (
            "c629de3b120ebb36",
            "c629de3b120ebb36",
            "c629de3b120ebb36",
            "c629de3b120ebb36",
        ),
        0.01: (
            "aff2a27369f4676c",
            "5d3737b1d3e0e4f8",
            "c629de3b120ebb36",
            "4c33f7211d9b7c45",
        ),
        0.05: (
            "00d94cef3afd0886",
            "8881de32fea1e84d",
            "e503b3955fb611f2",
            "82a274f1974ba090",
        ),
        0.2: (
            "1f0ee67cc2c1a7d5",
            "df022873a02d11b9",
            "a09fc80ade17d87b",
            "4dad7d8e0ab90106",
        ),
    },
    "example": {
        0.0: (
            "1aacdc29cbf6e9f8",
            "58c5ddf08b0cf7dd",
            "bb31f9ede96593f9",
            "f14c61be46405b0c",
        ),
        0.01: (
            "3ff8a57775680182",
            "a94fae75bcc0d085",
            "bb31f9ede96593f9",
            "a7c42e230eab20ce",
        ),
        0.05: (
            "cba68647aad82619",
            "5fc498b57f3f415b",
            "f396ab091c9ddeaa",
            "a05e54c06b315113",
        ),
        0.2: (
            "2fce9af748a7ef9b",
            "8a3ce860fad38201",
            "c4327028b3e40b47",
            "474e5c20b169c3a8",
        ),
    },
}


def campaign_digest(report) -> str:
    mission = report.mission
    record = {
        "events": [[e.step, e.kind, e.detail] for e in mission.events],
        "min_margin": mission.min_margin,
        "blocks_repaired": mission.blocks_repaired,
        "device_failures": mission.device_failures,
        "lost": list(mission.lost_objects),
        "faults": report.fault_counts,
        "reads": [
            report.reads_attempted,
            report.degraded_reads,
            report.read_retries,
            report.transient_read_failures,
            report.scrubbed_blocks,
        ],
        "queue": list(report.repair_queue_depth),
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedCampaigns:
    @pytest.mark.parametrize("plan_name", ["empty", "example"])
    def test_binomial_campaigns_are_unchanged(self, small_tornado, plan_name):
        plan = (
            FaultPlan.load(EXAMPLE_PLAN)
            if plan_name == "example"
            else FaultPlan()
        )
        got = {}
        for afr in PINNED[plan_name]:
            config = CampaignConfig(mission=MissionConfig(years=2.0, afr=afr))
            got[afr] = tuple(
                campaign_digest(
                    run_campaign(
                        build_archive(small_tornado), plan, config, seed=seed
                    )
                )
                for seed in range(4)
            )
        assert got == PINNED[plan_name]


class TestReproducibility:
    def test_same_seed_same_report(self, small_tornado):
        a, b = run_once(small_tornado), run_once(small_tornado)
        assert a.fault_counts == b.fault_counts
        assert a.mission.events == b.mission.events
        assert a.repair_queue_depth == b.repair_queue_depth
        assert a.describe() == b.describe()

    def test_different_seed_diverges(self, small_tornado):
        a = run_once(small_tornado, seed=11)
        b = run_once(small_tornado, seed=12)
        assert a.mission.events != b.mission.events


class TestFaultCoverage:
    def test_all_requested_classes_injected(self, small_tornado):
        report = run_once(small_tornado)
        for kind in ("transient", "drawer", "latent", "corruption"):
            assert report.fault_counts.get(kind, 0) > 0, kind

    def test_transient_outages_recover(self, small_tornado):
        report = run_once(small_tornado)
        assert report.fault_counts["recovery"] > 0


class TestTelemetry:
    def test_queue_depth_tracked_every_step(self, small_tornado):
        report = run_once(small_tornado)
        steps = len(report.repair_queue_depth)
        assert steps == QUIET_CONFIG.mission.num_steps or not report.survived
        assert report.max_queue_depth >= 0

    def test_read_probes_exercised(self, small_tornado):
        report = run_once(small_tornado)
        assert report.reads_attempted > 0

    def test_describe_mentions_faults_and_outcome(self, small_tornado):
        text = run_once(small_tornado).describe()
        assert "faults injected" in text
        assert "outcome" in text


class TestScrubbing:
    def test_scrub_repairs_silent_corruption(self, small_tornado):
        # Per-step scrubbing keeps pace with the corruption rate, so
        # every flipped block is caught and rewritten before enough
        # accumulate to defeat the decoder.
        plan = FaultPlan(faults=(SilentCorruption(rate=0.05),))
        config = CampaignConfig(
            mission=QUIET_CONFIG.mission,
            scrub_interval=1,
            read_interval=2,
        )
        report = run_campaign(
            build_archive(small_tornado), plan, config, seed=5
        )
        assert report.fault_counts["corruption"] > 0
        assert report.scrubbed_blocks > 0
        assert report.survived
        # the archive came through with objects readable
        for event in report.loss_events:
            pytest.fail(f"unexpected loss: {event}")


class TestLoss:
    def test_destructive_drawer_storm_loses_data(self, small_tornado):
        plan = FaultPlan(
            faults=(
                DrawerOutages(rate=0.9, drawer_size=12, mode="fail"),
            )
        )
        config = CampaignConfig(
            mission=MissionConfig(
                years=1.0,
                steps_per_year=12,
                afr=0.0,
                replacement_lag_steps=50,
            ),
            scrub_interval=0,
            read_interval=0,
        )
        report = run_campaign(
            build_archive(small_tornado), plan, config, seed=0
        )
        assert not report.survived
        assert report.lost_objects
        assert report.loss_events


class TestCampaignTracing:
    def test_campaign_span_tree_and_fault_events(self, small_tornado):
        from repro.obs.analyze import build_trace_trees, span_records
        from repro.obs.trace import Tracer, trace_capture

        with trace_capture(Tracer(seed=11)) as t:
            report = run_once(small_tornado)

        roots, orphans, repeated = build_trace_trees(span_records(t.records))
        assert orphans == repeated == []
        (root,) = roots
        assert root.name == "resilience.campaign"
        assert root.attrs["survived"] == report.survived
        child_names = {c.name for c in root.children}
        assert "resilience.read_probe" in child_names
        assert "resilience.scrub" in child_names
        # Injected faults surface as point events on the campaign span.
        fault_events = [
            e
            for e in root.record["events"]
            if e["name"] == "resilience.fault"
        ]
        # Every counted fault (recoveries included) appears as an event.
        assert len(fault_events) == sum(report.fault_counts.values())
        kinds = {e["kind"] for e in fault_events}
        assert kinds <= set(report.fault_counts)

    def test_tracing_does_not_perturb_results(self, small_tornado):
        from repro.obs.trace import Tracer, trace_capture

        baseline = run_once(small_tornado)
        with trace_capture(Tracer(seed=11)):
            traced = run_once(small_tornado)
        assert traced.fault_counts == baseline.fault_counts
        assert traced.survived == baseline.survived
        assert traced.lost_objects == baseline.lost_objects
        assert (
            traced.repair_queue_depth == baseline.repair_queue_depth
        )
