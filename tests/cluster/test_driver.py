"""Multi-process cluster exercise via the CLI driver (slow-ish)."""

import json

from repro.cli import main

from ..checks import (
    check_alerts_fire_and_clear,
    check_cluster_loadgen,
    check_live_alerts_match_replay,
    check_repair_pipelined,
    check_slo_gate_mid_incident,
)


class TestClusterLoadgenCLI:
    def test_kill_repair_rejoin_zero_data_loss(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        trace_dir = tmp_path / "traces"
        code = main(
            [
                "cluster",
                "loadgen",
                "--nodes",
                "3",
                "--objects",
                "2",
                "--object-size",
                "2048",
                "--block-size",
                "256",
                "--requests",
                "10",
                "--rate",
                "500",
                "--seed",
                "0",
                "--trace-dir",
                str(trace_dir),
                "--obs-dir",
                str(tmp_path / "obs"),
                "--scrape-every",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "ZERO data loss" in text
        check_cluster_loadgen(out)
        report = json.loads(out.read_text())
        assert report["killed_node"] == "node-0"
        assert report["rejoined"] is True
        assert report["repair"]["rebuilt_blocks"] > 0
        # Every process wrote its own trace file: the driver, the
        # coordinator and each node.
        files = sorted(trace_dir.glob("*.jsonl"))
        assert [f.name for f in files] == [
            "coordinator.jsonl",
            "driver.jsonl",
            "node-0.jsonl",
            "node-1.jsonl",
            "node-2.jsonl",
        ]
        check_repair_pipelined(out, trace_dir / "coordinator.jsonl")
        # Stitching them yields an orphan-free cluster-wide tree.
        code = main(["obs", "trace-tree", *map(str, files)])
        assert code == 0
        tree = capsys.readouterr().out
        assert "orphaned spans: none" in tree
        assert "client.get" in tree
        assert "node.block.fetch" in tree

    def test_telemetry_timeline_fires_and_clears(self, tmp_path, capsys):
        """The acceptance bar: kill -> alert fires -> heal -> clears,
        and the persisted timeline replays to the same fleet view."""
        out = tmp_path / "report.json"
        obs_dir = tmp_path / "obs"
        code = main(
            [
                "cluster",
                "loadgen",
                "--nodes",
                "3",
                "--objects",
                "2",
                "--object-size",
                "2048",
                "--block-size",
                "256",
                "--requests",
                "12",
                "--rate",
                "500",
                "--seed",
                "7",
                "--obs-dir",
                str(obs_dir),
                "--scrape-every",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # The node kill fired the availability alert; the rejoin and
        # settle loop cleared every window again.
        check_alerts_fire_and_clear(out)
        report = json.loads(out.read_text())
        telemetry = report["telemetry"]
        alerts = telemetry["alerts"]
        # Report identity: the seeded schedule on the logical clock is
        # pinned from the pre-Fleet driver (commit 57bcce3), so the
        # harness underneath cannot move a scrape, an alert or a byte.
        assert [
            (a["objective"], a["window"], a["state"], a["ts"])
            for a in alerts
        ] == [
            ("availability", "fast", "firing", 180.0),
            ("availability", "slow", "firing", 180.0),
            ("availability", "fast", "ok", 720.0),
            ("availability", "slow", "ok", 3960.0),
        ]
        assert (telemetry["samples"], telemetry["scrapes"]) == (67, 60)
        assert report["killed_node"] == "node-0"
        assert report["completed"] == report["requests"] == 12
        assert report["repair"]["moved_blocks"] == 64
        assert report["repair"]["rebuilt_blocks"] == 64
        assert report["status"]["repair_bytes_by_node"] == {
            "node-0": 16384,
            "node-1": 24576,
            "node-2": 24576,
        }
        notes = [
            json.loads(line)
            for line in (obs_dir / "timeline.jsonl").read_text().splitlines()
            if '"driver.note"' in line
        ]
        assert [(n["note"], n["ts"]) for n in notes] == [
            ("baseline after seeding", 60.0),
            ("killed node-0", 180.0),
            ("repair complete", 420.0),
            ("rejoined node-0", 480.0),
            ("final verification sweep", 4020.0),
        ]

        timeline = telemetry["timeline"]
        assert timeline.endswith("timeline.jsonl")
        check_live_alerts_match_replay(report, timeline)
        # Replay verbs agree with the live run: the dashboard renders
        # and a full (healed) timeline passes the SLO gate.
        assert main(["obs", "top", timeline, "--once"]) == 0
        top = capsys.readouterr().out
        assert "targets: 4/4 up" in top
        assert "alerts: none firing" in top
        assert main(["obs", "slo", "check", timeline]) == 0
        assert "slo check: ok" in capsys.readouterr().out

        check_slo_gate_mid_incident(timeline)
