"""Cluster chaos campaigns: config, plans, and live multi-process runs.

The live tests spawn a real coordinator + storage-node fleet per run
(like ``tests/cluster/test_driver.py``), so they are slow-ish; rates
are forced to 1.0 where a fault *must* fire so the assertions are
deterministic rather than seed-archaeology.
"""

import dataclasses

import pytest

from repro.resilience import (
    ClusterCampaignConfig,
    CoordinatorCrashes,
    FaultPlan,
    LatentErrors,
    NetworkPartitions,
    NodeCrashes,
    SlowNodes,
    default_cluster_plan,
    run_cluster_campaign,
)

from ..checks import check_campaign_zero_loss, check_wal_replay


class TestConfigAndPlans:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterCampaignConfig(nodes=1)
        with pytest.raises(ValueError):
            ClusterCampaignConfig(objects=0)
        with pytest.raises(ValueError):
            ClusterCampaignConfig(steps=0)
        with pytest.raises(ValueError):
            ClusterCampaignConfig(rpc_timeout=0)

    @pytest.mark.parametrize(
        "timeout, error", [(True, TypeError), (float("nan"), ValueError)]
    )
    def test_config_refuses_a_bool_or_nan_rpc_timeout(self, timeout, error):
        with pytest.raises(error, match="rpc_timeout"):
            ClusterCampaignConfig(rpc_timeout=timeout)

    def test_default_plan_covers_every_cluster_fault_kind(self):
        plan = default_cluster_plan()
        assert set(plan.fault_classes) == {
            "coordinator_crash",
            "node_crash",
            "partition",
            "slow",
        }

    def test_cluster_specs_round_trip_through_plan_json(self):
        plan = FaultPlan(
            faults=(
                CoordinatorCrashes(rate=0.5),
                NodeCrashes(rate=0.25, restart_delay_steps=2),
                NetworkPartitions(rate=0.1, mean_partition_steps=3.0),
                SlowNodes(rate=0.2, delay_seconds=0.1),
                LatentErrors(rate=0.01),  # device-level, coexists
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CoordinatorCrashes(rate=1.5)
        with pytest.raises(ValueError):
            NodeCrashes(restart_delay_steps=-1)
        with pytest.raises(ValueError):
            NetworkPartitions(mean_partition_steps=0.5)
        with pytest.raises(ValueError):
            SlowNodes(delay_seconds=-1.0)


class TestLiveCampaign:
    def test_coordinator_crashes_recover_byte_identically(self, tmp_path):
        # Every step SIGKILLs the coordinator; every recovery must
        # reproduce the exact metadata state from the WAL.
        plan = FaultPlan(faults=(CoordinatorCrashes(rate=1.0),))
        config = ClusterCampaignConfig(
            nodes=3,
            objects=2,
            object_size=1024,
            block_size=256,
            steps=2,
            seed=7,
            wal_dir=str(tmp_path / "wal"),
            rpc_timeout=0.5,
        )
        report = run_cluster_campaign(plan, config)
        check_campaign_zero_loss(report.to_dict())
        assert report.coordinator_crashes == 2
        assert report.recoveries_verified == 2
        assert report.total_objects == 2
        check_wal_replay(tmp_path / "wal")

    def test_full_fault_mix_has_zero_data_loss(self):
        plan = FaultPlan(
            faults=(
                CoordinatorCrashes(rate=0.5),
                NodeCrashes(rate=0.6, restart_delay_steps=1),
                NetworkPartitions(rate=0.6, mean_partition_steps=1.0),
                SlowNodes(rate=0.6, delay_seconds=0.05),
            )
        )
        config = ClusterCampaignConfig(
            nodes=3,
            objects=2,
            object_size=1024,
            block_size=256,
            steps=3,
            seed=0,
            rpc_timeout=0.5,
        )
        report = run_cluster_campaign(plan, config)
        check_campaign_zero_loss(report.to_dict())
        # The seeded schedule actually disrupted something.
        disruptive = (
            report.coordinator_crashes
            + report.node_kills
            + report.partitions
            + report.slowdowns
        )
        assert disruptive > 0
        # Failed reads during faults are tolerated; losses are not.
        assert report.status["state_sha256"]
        # Report identity: seed 0's fault schedule, pinned from the
        # pre-Fleet campaign (commit 57bcce3).
        assert report.events == [
            {"step": 0, "kind": "slow", "node": "node-1", "steps": 1},
            {"step": 1, "kind": "heal_slow", "node": "node-1"},
            {"step": 1, "kind": "partition", "node": "node-1", "steps": 1},
            {"step": 1, "kind": "slow", "node": "node-0", "steps": 1},
            {"step": 2, "kind": "heal", "node": "node-1"},
            {"step": 2, "kind": "heal_slow", "node": "node-0"},
        ]
        assert (
            report.coordinator_crashes,
            report.node_kills,
            report.partitions,
            report.slowdowns,
        ) == (0, 0, 1, 2)
        assert report.repair_bytes == 0
        # to_dict is the dataclass plus the verdict, nothing else.
        assert set(report.to_dict()) == {
            f.name for f in dataclasses.fields(report)
        } | {"data_loss"}

    def test_seeded_campaign_is_deterministic_run_to_run(self):
        plan = FaultPlan(
            faults=(NodeCrashes(rate=1.0, restart_delay_steps=1),)
        )
        config = ClusterCampaignConfig(
            nodes=3,
            objects=2,
            object_size=1024,
            block_size=256,
            steps=2,
            seed=3,
            rpc_timeout=0.5,
        )
        first = run_cluster_campaign(plan, config)
        second = run_cluster_campaign(plan, config)
        check_campaign_zero_loss(first.to_dict())
        check_campaign_zero_loss(second.to_dict())
        assert first.events == second.events
        # ...and match the pre-Fleet campaign (commit 57bcce3).
        assert first.events == [
            {"step": 0, "kind": "node_crash", "node": "node-1"}
        ]
        assert first.node_kills == 1
        assert first.repair_bytes == 65536
        # The acceptance bar: repair-byte counts repeat exactly.
        assert first.repair_bytes == second.repair_bytes
        assert first.repair == second.repair
        # Per-node attribution repeats too (the state digest itself
        # differs across runs: it canonicalizes member host:port, and
        # ports are ephemeral — it verifies recovery *within* a run).
        assert (
            first.status["repair_bytes_by_node"]
            == second.status["repair_bytes_by_node"]
        )

    def test_midwrite_race_acked_puts_survive(self, tmp_path):
        plan = FaultPlan(faults=(CoordinatorCrashes(rate=1.0),))
        config = ClusterCampaignConfig(
            nodes=3,
            objects=1,
            object_size=1024,
            block_size=256,
            steps=1,
            seed=11,
            wal_dir=str(tmp_path / "wal"),
            rpc_timeout=0.5,
            midwrite_race=True,
        )
        report = run_cluster_campaign(plan, config)
        check_campaign_zero_loss(report.to_dict())
        assert report.coordinator_crashes == 1
        check_wal_replay(tmp_path / "wal")
