"""Tests for the command-line interface."""

import hashlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import load_graphml, save_graphml
from repro.graphs import tornado_catalog_graph

from .checks import check_decode_spans_rooted

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph3.graphml"
    save_graphml(tornado_catalog_graph(3), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--num-data"],
            ["certify", "--target"],
            ["overhead", "g.graphml", "--trials"],
            *(["mission", flag] for flag in (
                "--steps-per-year", "--replacement-lag", "--repair-margin",
                "--scrub-interval", "--read-interval",
            )),
            ["serve", "--queue-limit"],
            ["serve", "--plan-capacity"],
            ["loadgen", "--queue-limit"],
            ["loadgen", "--plan-capacity"],
            ["loadgen", "--deadline"],
            ["cluster", "loadgen", "--no-kill"],
            ["cluster", "loadgen", "--no-rejoin"],
            ["cluster", "chaos", "--reads-per-step"],
            ["sites", "gateway", "--manifest", "m.json", "--repair-wan-budget"],
            ["sites", "loadgen", "--no-blackout"],
            ["sites", "loadgen", "--no-coupled-demo"],
            ["sites", "loadgen", "--repair-wan-budget"],
            *(["sites", "chaos", flag] for flag in (
                "--blackout-rate", "--max-concurrent", "--mean-outage-steps",
                "--repair-every", "--reads-per-step", "--repair-wan-budget",
            )),
        ],
        ids=" ".join,
    )
    def test_single_value_flags_are_gone(self, argv, capsys):
        """Each had one value in use; the value is now a constant."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-1]}" in err


class TestCertify:
    def test_writes_certified_graph(self, tmp_path, capsys):
        out = tmp_path / "new.graphml"
        code = main(
            ["certify", "--seed", "32", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        graph = load_graphml(out)
        from repro.core import first_failure

        assert first_failure(graph, limit=5) == 5
        assert "first failure" in capsys.readouterr().out


class TestAnalyze:
    def test_reports_first_failure(self, graph_file, capsys):
        assert main(["analyze", graph_file, "--max-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "first failure: 5" in out


class TestProfile:
    def test_prints_metrics_and_saves(self, graph_file, tmp_path, capsys):
        out = tmp_path / "prof.json"
        code = main(
            [
                "profile",
                graph_file,
                "--samples",
                "300",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "first failure 5" in text
        from repro.sim import FailureProfile

        prof = FailureProfile.load(out)
        assert prof.num_devices == 96

    def test_jobs_and_exact_upto_flags(self, graph_file, capsys):
        code = main(
            [
                "profile",
                graph_file,
                "--samples",
                "200",
                "--jobs",
                "2",
                "--exact-upto",
                "4",
            ]
        )
        assert code == 0
        # With a shallow exact head the k=5 tail (~1e-7) is invisible to
        # 200 samples, so only assert the report shape, not the value.
        assert "first failure" in capsys.readouterr().out


class TestOverhead:
    def test_reports_overhead(self, graph_file, capsys):
        code = main(
            ["overhead", graph_file]
        )
        assert code == 0
        assert "overhead" in capsys.readouterr().out


class TestReliability:
    def test_prints_table(self, capsys):
        code = main(["reliability", "--samples", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(fail)" in out
        assert "RAID5" in out
        assert "tornado-graph-3" in out

    def test_seed_and_jobs_flags(self, capsys):
        code = main(
            ["reliability", "--samples", "200", "--seed", "7", "--jobs", "2"]
        )
        assert code == 0
        assert "P(fail)" in capsys.readouterr().out


class TestMission:
    def test_baseline_mission_survives(self, capsys):
        code = main(["mission", "--years", "0.5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome: all objects intact" in out
        assert "baseline failures only" in out

    def test_ci_campaign_output_is_pinned(self, capsys):
        """The CI chaos-smoke campaign prints the same report byte for
        byte as the binomial draw the hazard fleet replaced."""
        code = main(
            [
                "mission",
                "--years",
                "2",
                "--afr",
                "0.01",
                "--seed",
                "3",
                "--faults",
                str(EXAMPLES / "fault_plan.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert digest == "6191ddf0f445e0fb", out

    def test_fault_plan_campaign(self, tmp_path, capsys):
        from repro.resilience import (
            FaultPlan,
            SilentCorruption,
            TransientOutages,
        )

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            faults=(
                TransientOutages(rate=0.01),
                SilentCorruption(rate=0.002),
            )
        ).save(plan_path)
        code = main(
            [
                "mission",
                "--years",
                "1",
                "--seed",
                "3",
                "--faults",
                str(plan_path),
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # loss is a report, not a crash
        assert "transient, corruption" in out
        assert "faults injected" in out

    def test_mission_runs_are_reproducible(self, capsys):
        argv = ["mission", "--years", "0.5", "--seed", "9", "--afr", "0.05"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_custom_graph_flag(self, graph_file, capsys):
        code = main(
            ["mission", "--graph", graph_file, "--years", "0.25"]
        )
        assert code == 0
        assert "tornado-graph-3" in capsys.readouterr().out

    def test_hazard_flag_swaps_the_binomial_baseline(self, capsys):
        code = main(
            [
                "mission",
                "--hazard",
                "weibull",
                "--shape",
                "2.0",
                "--afr",
                "0.05",
                "--years",
                "1",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        # Exit codes keep the contract: 0 intact, 1 loss — never a crash.
        assert code in (0, 1)
        # The curve runs on the mission's own AFR; no spec is appended.
        assert "AFR 5.0% (weibull hazard, shape 2)" in out
        assert "baseline failures only" in out

    def test_bathtub_hazard_with_infant_mortality(self, capsys):
        code = main(
            [
                "mission",
                "--hazard",
                "bathtub",
                "--infant-mortality",
                "0.3",
                "--afr",
                "0.05",
                "--years",
                "1",
                "--seed",
                "2",
            ]
        )
        assert code in (0, 1)
        assert "bathtub hazard" in capsys.readouterr().out

    def test_hazard_runs_are_reproducible(self, capsys):
        argv = [
            "mission",
            "--hazard",
            "weibull",
            "--afr",
            "0.1",
            "--years",
            "1",
            "--seed",
            "4",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_unknown_hazard_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["mission", "--hazard", "gamma"])
        assert exc_info.value.code == 2


class TestMetricsFlag:
    def test_profile_emits_jsonl_and_manifest(
        self, graph_file, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "profile",
                graph_file,
                "--samples",
                "200",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        events = read_jsonl(metrics)  # every line parses as JSON
        assert events
        kinds = [e["event"] for e in events]
        assert "profile.cell" in kinds
        assert "metrics_summary" in kinds
        assert kinds[-1] == "run_manifest"
        manifest = events[-1]
        assert manifest["command"] == "repro profile"
        assert manifest["config"]["samples"] == 200
        assert manifest["wall_seconds"] >= 0
        summary = next(e for e in events if e["event"] == "metrics_summary")
        assert summary["counters"]["profile.graphs"] == 1

    def test_env_var_enables_metrics(
        self, graph_file, tmp_path, capsys, monkeypatch
    ):
        from repro.obs import read_jsonl

        metrics = tmp_path / "env-metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS", str(metrics))
        assert main(["analyze", graph_file, "--max-k", "4"]) == 0
        events = read_jsonl(metrics)
        assert events[-1]["event"] == "run_manifest"

    def test_no_metrics_no_file(self, graph_file, tmp_path, capsys):
        assert main(["analyze", graph_file, "--max-k", "4"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    """The CLI contract: 0 success, 1 operational failure, 2 usage error."""

    def test_operational_failure_exits_1(self, capsys):
        code = main(["analyze", "/no/such/graph.graphml"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_missing_fault_plan_exits_1(self, capsys):
        code = main(
            ["mission", "--years", "0.1", "--faults", "/no/plan.json"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_error_exits_2(self, graph_file, capsys):
        code = main(["profile", graph_file, "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--checkpoint" in err

    def test_same_named_graph_cannot_resume_another_graphs_checkpoint(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        """Graph 3's unadjusted draft has the final graph's name."""
        monkeypatch.chdir(tmp_path)
        save_graphml(tornado_catalog_graph(3, adjusted=False), "draft.graphml")
        sweep = ["--samples", "50", "--checkpoint", "mixed.jsonl"]
        assert main(["profile", "draft.graphml", *sweep]) == 0
        capsys.readouterr()
        assert main(["profile", graph_file, *sweep, "--resume"]) == 1
        err = capsys.readouterr().err
        assert re.search(r"(?m)^error: checkpoint .* different sweep", err), err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("command", ["profile", "reliability"])
    def test_non_positive_samples_exits_2(
        self, graph_file, command, samples, capsys
    ):
        argv = [command, graph_file] if command == "profile" else [command]
        code = main(argv + [f"--samples={samples}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--samples" in err

    def test_negative_exact_upto_exits_2(self, graph_file, capsys):
        code = main(
            ["profile", graph_file, "--exact-upto", "-1", "--samples", "10"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--exact-upto" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--cell-timeout", "0"],
            ["profile", "--cell-timeout", "-1"],
            ["profile", "--jobs", "0"],
            ["reliability", "--jobs", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_sweep_execution_flag_exits_2(self, graph_file, argv, capsys):
        """Each was accepted: a zero timeout abandoned every pooled cell
        and still exited 0."""
        command, flag, value = argv
        positional = [graph_file] if command == "profile" else []
        code = main([command, *positional, "--samples", "10", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert flag in err

    def test_retired_max_retries_flag_exits_2(self, graph_file):
        """A crashed or hung cell finishes in-process: there is no
        re-dispatch left to bound."""
        with pytest.raises(SystemExit) as exc_info:
            main(["profile", graph_file, "--max-retries", "1"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadgen", "--window", "-1"],
            ["loadgen", "--max-batch", "0"],
            ["loadgen", "--object-size", "-5"],
            ["loadgen", "--objects", "0"],
            ["serve", "--max-batch", "0", "--max-seconds", "0.1"],
        ],
        ids=" ".join,
    )
    def test_bad_serving_flag_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "loadgen", "--rate", "-1"],
            ["cluster", "loadgen", "--requests", "0"],
            ["cluster", "chaos", "--block-size", "0"],
            ["sites", "loadgen", "--curve-samples", "0"],
            ["sites", "chaos", "--afr", "nan"],
        ],
        ids=" ".join,
    )
    def test_bad_scenario_value_exits_2_before_any_spawn(
        self, argv, monkeypatch, capsys
    ):
        """Each was accepted: the run spawned its fleet first, and a
        refusal from deeper down exited 1."""
        import subprocess

        def spawn(*args, **kwargs):
            raise AssertionError("spawned a process")

        monkeypatch.setattr(subprocess, "Popen", spawn)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert argv[-2].removeprefix("--").replace("-", "_") in err

    def test_a_refused_scenario_leaves_no_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "td"
        argv = ["cluster", "loadgen", "--trace-dir", str(trace_dir)]
        assert main([*argv, "--rate", "-1"]) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not trace_dir.exists()

    def test_an_accepted_scenario_writes_the_driver_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        import repro.cluster
        from repro.obs.trace import trace_span

        class Report:
            data_loss = False

            def describe(self):
                return "stub report"

        def run(config):  # the fleet, minus its processes
            with trace_span("driver.stub"):
                return Report()

        monkeypatch.setattr(repro.cluster, "run_cluster_loadgen", run)
        trace_dir = tmp_path / "td"
        assert main(["cluster", "loadgen", "--trace-dir", str(trace_dir)]) == 0
        assert "stub report" in capsys.readouterr().out
        lines = (trace_dir / "driver.jsonl").read_text().splitlines()
        assert "driver.stub" in [json.loads(line).get("name") for line in lines]

    def test_argparse_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_success_exits_0(self, graph_file):
        assert main(["analyze", graph_file, "--max-k", "4"]) == 0


class TestServeVerbs:
    def test_loadgen_smoke(self, tmp_path, capsys):
        out = tmp_path / "load.json"
        code = main(
            [
                "loadgen",
                "--requests",
                "25",
                "--rate",
                "2000",
                "--objects",
                "2",
                "--severity",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "req/s" in text
        assert "25/25 completed" in text
        import json

        payload = json.loads(out.read_text())
        assert payload["report"]["completed"] == 25
        assert payload["stats"]["counters"]["serve.completed"] == 25

    def test_loadgen_unbatched_flag(self, capsys):
        code = main(
            [
                "loadgen",
                "--requests",
                "10",
                "--rate",
                "5000",
                "--objects",
                "1",
                "--unbatched",
            ]
        )
        assert code == 0
        assert "[unbatched]" in capsys.readouterr().out

    def test_serve_smoke(self, capsys):
        code = main(
            ["serve", "--max-seconds", "0.2", "--objects", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 1 objects on 127.0.0.1:" in out


class TestRender:
    def test_writes_svg_and_prints_report(
        self, graph_file, tmp_path, capsys
    ):
        out = tmp_path / "failure.svg"
        code = main(
            ["render", graph_file, "--missing", "0,1,2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("<svg")
        assert "succeeded" in capsys.readouterr().out

    def test_no_missing_nodes(self, graph_file, tmp_path):
        out = tmp_path / "clean.svg"
        assert main(["render", graph_file, "--out", str(out)]) == 0
        assert out.exists()


class TestTraceFlag:
    def test_loadgen_writes_trace_and_manifest(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl"
        code = main(
            [
                "loadgen",
                "--requests",
                "10",
                "--rate",
                "2000",
                "--objects",
                "1",
                "--seed",
                "3",
                "--metrics",
                str(metrics),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        spans = [
            e for e in read_jsonl(trace) if e["event"] == "trace.span"
        ]
        names = {s["name"] for s in spans}
        assert {"loadgen.run", "serve.request", "serve.batch"} <= names
        check_decode_spans_rooted(trace)
        # Service lifecycle manifest lands next to the metrics file.
        manifest = tmp_path / "m.jsonl.manifest.json"
        assert manifest.exists()
        import json

        assert json.loads(manifest.read_text())["command"] == "serve"
        # Summary reports service-side quantiles alongside loadgen's.
        assert "service-side latency" in capsys.readouterr().out

    def test_shared_path_interleaves_metrics_and_spans(
        self, graph_file, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        path = tmp_path / "both.jsonl"
        code = main(
            [
                "profile",
                graph_file,
                "--samples",
                "100",
                "--metrics",
                str(path),
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        kinds = {e["event"] for e in read_jsonl(path)}
        assert "trace.span" in kinds
        assert "run_manifest" in kinds

    def test_env_var_enables_tracing(
        self, graph_file, tmp_path, capsys, monkeypatch
    ):
        from repro.obs import read_jsonl

        trace = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["profile", graph_file, "--samples", "50"]) == 0
        spans = read_jsonl(trace)
        assert any(s["name"] == "profile.sweep" for s in spans)

    def test_trace_ids_deterministic_across_runs(
        self, graph_file, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        def run_ids(path):
            assert (
                main(
                    [
                        "profile",
                        graph_file,
                        "--samples",
                        "50",
                        "--seed",
                        "9",
                        "--trace",
                        str(path),
                    ]
                )
                == 0
            )
            return [
                (e["name"], e["trace_id"], e["span_id"])
                for e in read_jsonl(path)
            ]

        first = run_ids(tmp_path / "a.jsonl")
        second = run_ids(tmp_path / "b.jsonl")
        assert first and first == second


class TestObsVerbs:
    @pytest.fixture()
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        code = main(
            [
                "loadgen",
                "--requests",
                "8",
                "--rate",
                "2000",
                "--objects",
                "1",
                "--seed",
                "4",
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        return str(path)

    def test_trace_tree_orphan_free(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["obs", "trace-tree", trace_file]) == 0
        out = capsys.readouterr().out
        assert "loadgen.run" in out
        assert "serve.request" in out
        assert "orphaned spans: none" in out
        assert "repeated span ids: none" in out

    def test_trace_tree_exits_1_on_repeated_span_ids(
        self, trace_file, capsys
    ):
        """One file read twice stands for two processes on one seed."""
        capsys.readouterr()
        assert main(["obs", "trace-tree", trace_file, trace_file]) == 1
        out = capsys.readouterr().out
        assert "orphaned spans: none" in out
        assert "repeated span ids (" in out

    def test_trace_tree_filters_by_trace_id(self, trace_file, capsys):
        capsys.readouterr()
        assert (
            main(
                ["obs", "trace-tree", trace_file, "--trace-id", "feed"]
            )
            == 0
        )
        assert "no matching traces" in capsys.readouterr().out

    def test_report_renders_phase_table(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["obs", "report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "serve.request" in out
        assert "p99" in out

    def test_tail_filters_by_kind(self, trace_file, capsys):
        capsys.readouterr()
        assert (
            main(
                ["obs", "tail", trace_file, "--kind", "trace.span", "-n", "5"]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 5
        assert all("trace.span" in line for line in lines)

    def test_missing_file_exits_1(self, capsys):
        assert main(["obs", "report", "/no/such/file.jsonl"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("verb", ["tail", "report", "trace-tree"])
    def test_missing_file_exits_1_for_every_verb(self, verb, capsys):
        assert main(["obs", verb, "/no/such/file.jsonl"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("verb", ["tail", "report", "trace-tree"])
    def test_empty_file_exits_1(self, verb, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty" in err


class TestFleetTimelineVerbs:
    """obs top / slo / prom replay a persisted fleet timeline."""

    def write_timeline(self, path, down_last=False):
        import json as _json

        records = []
        for i in range(5):
            down = 1.0 if (down_last and i == 4) else 0.0
            records.append(
                {
                    "event": "fleet.sample",
                    "index": i,
                    "ts": float((i + 1) * 60),
                    "targets": {
                        "coordinator": {
                            "role": "coordinator",
                            "host": "127.0.0.1",
                            "port": 9000,
                            "up": True,
                            "stale": False,
                            "age": 0.0,
                            "error": None,
                        },
                        "node-0": {
                            "role": "node",
                            "host": "127.0.0.1",
                            "port": 9001,
                            "up": not down,
                            "stale": bool(down),
                            "age": 60.0 * down,
                            "error": "refused" if down else None,
                        },
                    },
                    "counters": {
                        "cluster.get.objects": 50 + 10 * i,
                        "cluster.repair.bytes": 4096,
                    },
                    "gauges": {
                        "fleet.targets.total": 2.0,
                        "fleet.targets.up": 2.0 - down,
                        "fleet.targets.down": down,
                        "fleet.repair.margin_min": 3.0,
                        "fleet.at_risk_stripes": 0.0,
                        "cluster.repair.healthy_margin": 3.0,
                    },
                    "histograms": {},
                }
            )
        path.write_text(
            "".join(_json.dumps(r) + "\n" for r in records)
        )
        return str(path)

    def test_top_once_renders_the_fleet(self, tmp_path, capsys):
        timeline = self.write_timeline(tmp_path / "t.jsonl")
        assert main(["obs", "top", timeline, "--once"]) == 0
        out = capsys.readouterr().out
        assert "targets: 2/2 up" in out
        assert "coordinator" in out and "node-0" in out
        assert "alerts: none firing" in out

    def test_slo_report_prints_status_json(self, tmp_path, capsys):
        import json as _json

        timeline = self.write_timeline(tmp_path / "t.jsonl")
        assert main(["obs", "slo", "report", timeline]) == 0
        out = capsys.readouterr().out
        status = _json.loads(out[out.index("{") :])
        assert "availability" in status["objectives"]
        assert status["samples"] == 5

    def test_slo_check_exit_codes(self, tmp_path, capsys):
        healthy = self.write_timeline(tmp_path / "ok.jsonl")
        assert main(["obs", "slo", "check", healthy]) == 0
        assert "slo check: ok" in capsys.readouterr().out
        dark = self.write_timeline(
            tmp_path / "bad.jsonl", down_last=True
        )
        assert main(["obs", "slo", "check", dark]) == 1
        captured = capsys.readouterr()
        assert "FIRING availability[fast]" in captured.out
        assert "FIRING availability[slow]" in captured.out
        assert "2 alert(s) firing" in captured.err

    def test_prom_renders_latest_sample(self, tmp_path, capsys):
        timeline = self.write_timeline(tmp_path / "t.jsonl")
        assert main(["obs", "prom", timeline]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cluster_get_objects_total counter" in out
        assert "repro_fleet_targets_up 2" in out

    def test_missing_timeline_exits_1(self, capsys):
        assert main(["obs", "top", "/no/such/t.jsonl", "--once"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["obs", "slo", "check", "/no/such/t.jsonl"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_timeline_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "top", str(path), "--once"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no fleet.sample records" in err


class TestSitesVerbs:
    """Exit-code contract for the federation verbs (cheap paths only;
    the process-spawning loadgen/chaos run in CI's federation-smoke)."""

    def make_manifest(self, tmp_path):
        from repro.sites import (
            FederationManifest,
            PairingRecord,
            SiteAssignment,
        )

        path = tmp_path / "federation.json"
        FederationManifest(
            sites=(
                SiteAssignment("site-a", 2),
                SiteAssignment("site-b", 3),
            ),
            site_max_size=6,
            pairings=(PairingRecord("site-a", "site-b", None, 13),),
        ).save(path)
        return str(path)

    def test_sites_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sites"])
        assert exc_info.value.code == 2

    def test_gateway_requires_manifest_flag(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sites", "gateway"])
        assert exc_info.value.code == 2

    def test_gateway_malformed_attach_exits_2(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        code = main(
            [
                "sites",
                "gateway",
                "--manifest",
                manifest,
                "--attach",
                "nonsense",
            ]
        )
        assert code == 2
        assert "SITE=HOST:PORT" in capsys.readouterr().err

    def test_gateway_missing_manifest_exits_1(self, capsys):
        code = main(
            ["sites", "gateway", "--manifest", "/no/such/file.json"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_status_against_dead_port_exits_1(self, capsys):
        code = main(
            ["sites", "status", "--port", "1"]  # nothing listens there
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_coordinator_graph_and_catalog_conflict_exits_2(
        self, graph_file, capsys
    ):
        code = main(
            [
                "cluster",
                "coordinator",
                "--graph",
                graph_file,
                "--catalog",
                "2",
                "--max-seconds",
                "0.01",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestDaemonUsageErrors:
    """A daemon verb refuses bad flags before it turns on the
    process-wide metrics registry, so an in-process ``main`` that
    exits 2 leaves collection off for whatever runs next."""

    @pytest.fixture
    def registry_off(self):
        from repro.obs import disable

        disable()
        yield
        disable()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["cluster", "coordinator", "--graph", "g.graphml",
                 "--catalog", "2"],
                "mutually exclusive",
            ),
            (
                ["cluster", "node", "--id", "node-0", "--port", "0",
                 "--coordinator", "nonsense"],
                "HOST:PORT",
            ),
            (
                ["sites", "gateway", "--manifest", "MANIFEST",
                 "--attach", "nonsense"],
                "SITE=HOST:PORT",
            ),
        ],
        ids=lambda v: v[1] if isinstance(v, list) else None,
    )
    def test_exit_2_leaves_the_registry_off(
        self, argv, message, registry_off, tmp_path, capsys
    ):
        from repro.obs import metrics_enabled

        manifest = TestSitesVerbs().make_manifest(tmp_path)
        argv = [manifest if a == "MANIFEST" else a for a in argv]
        assert main([*argv, "--max-seconds", "0.01"]) == 2
        assert message in capsys.readouterr().err
        assert not metrics_enabled()
