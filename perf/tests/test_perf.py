"""The benchmark's own checks (``python3 -m pytest perf/tests``, < 30 s).

Workloads run at toy size through their constructor arguments — the
command line has no size knob, so the benchmark's inputs stay pinned.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
from archive import ArchiveDegraded, ArchiveRW
from budget import OpIndex, exclusive_by_kind
from spans import exclusive, intersect, measure, self_time, subtract, union
from sweeps import sweep_large, sweep_small

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = {
    "sweep_small": lambda seed: sweep_small(seed, samples_per_k=128),
    # 16 384 nodes is the smallest graph on which ``auto`` picks the
    # sparse engine, so only the sample count shrinks.
    "sweep_large": lambda seed: sweep_large(seed, samples_per_k=64),
    "archive_rw": lambda seed: ArchiveRW(
        seed, block_size=64, puts_per_round=4, gets_per_round=12
    ),
    "archive_degraded": lambda seed: ArchiveDegraded(
        seed, block_size=64, objects=6
    ),
}


@functools.lru_cache(maxsize=None)
def toy(name: str, seed: int = 1) -> run.Report:
    return run.measure(TOY[name](seed), seconds=0.0, trace=True)


# -- the contract file ------------------------------------------------------


def test_benchmark_json_is_the_catalogue():
    assert BENCHMARK == metrics.benchmark_json(BENCHMARK["run_seconds"])


def test_benchmark_json_meets_the_contract_limits():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert unit_re.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# -- span arithmetic --------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    # put [0,10] -> rpc a [1,4], rpc b [3,6] (overlapping), wal [8,9];
    # rpc a -> framing [1,2]; rpc b -> framing [5,6].
    put = (0.0, 10.0)
    rpc_a, rpc_b, wal = (1.0, 4.0), (3.0, 6.0), (8.0, 9.0)
    assert self_time(put, [rpc_a, rpc_b, wal]) == pytest.approx(4.0)
    assert self_time(rpc_a, [(1.0, 2.0)]) == pytest.approx(2.0)
    assert self_time(put, []) == pytest.approx(10.0)
    assert self_time(put, [(-5.0, 20.0)]) == 0.0


def test_interval_set_operations():
    a = union([(0, 2), (1, 3), (5, 6), (6, 6)])
    assert a == [(0, 3), (5, 6)]
    assert intersect(a, [(2, 5.5)]) == [(2, 3), (5, 5.5)]
    assert subtract(a, [(1, 2), (2.5, 5.2)]) == [(0, 1), (2, 2.5), (5.2, 6)]
    assert subtract(a, []) == a
    assert measure(a) == 4


def test_exclusive_budget_adds_up_to_the_wall():
    layers = [
        ("framing", [(1.0, 2.0), (5.0, 6.0)]),
        ("rpc", [(1.0, 4.0), (3.0, 6.0)]),
        ("coordinator", [(0.5, 9.5)]),
        ("client", [(0.0, 10.0)]),
    ]
    parts = exclusive(layers)
    assert {k: measure(v) for k, v in parts.items()} == pytest.approx(
        {"framing": 2.0, "rpc": 3.0, "coordinator": 4.0, "client": 1.0}
    )
    ops = OpIndex([("put", -1.0, 11.0)])
    row = exclusive_by_kind(ops, layers)["put"]
    assert row["unattributed"] == pytest.approx(2.0)
    assert sum(row.values()) == pytest.approx(12.0)


def test_spans_are_assigned_to_the_operation_in_flight():
    ops = OpIndex([("get", 10.0, 11.0), ("put", 0.0, 5.0), ("put", 6.0, 9.0)])
    tally = ops.tally(
        [(1.0, 2.0, 7), (6.5, 7.0, 3), (10.1, 10.2, None), (5.5, 5.6, 99)]
    )
    assert (tally["put"].count, tally["put"].extra) == (2, 10)
    assert tally["put"].seconds == pytest.approx(1.5)
    assert tally["get"].count == 1
    assert ops.kind_at(5.5) is None


# -- every workload, toy size -----------------------------------------------


@pytest.mark.parametrize("name", list(TOY))
def test_workload_runs_verifies_and_prints_the_contract_names(name):
    report = toy(name)
    assert report.checks.failed == 0 and report.checks.attempted > 0
    untraced = report.result(trace=False)
    traced = report.result(trace=True)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] is True
    assert list(untraced["metrics"]) == [
        e["name"] for e in BENCHMARK["end_to_end"]
    ]
    assert list(traced["metrics"]) == [
        e["name"] for e in BENCHMARK["per_layer"]
    ]
    units = {
        e["name"]: e["unit"]
        for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    for result in (untraced, traced):
        for key, entry in result["metrics"].items():
            assert entry["unit"] == units[key]
            assert isinstance(entry["value"], float)
    assert all(e["value"] > 0 for e in untraced["metrics"].values())
    # every number defined on this workload was produced
    for metric in metrics.PER_LAYER:
        if name in metric.workloads and not metric.name.startswith("e2e.failed"):
            assert metric.name in report.layer, metric.name
    for metric in metrics.NAMED:
        assert (metric.name in report.named) == (name in metric.workloads)
    json.dumps(traced)  # the last output line must serialise


def test_each_layer_works_in_one_workload_and_idles_in_another():
    rw, degraded = toy("archive_rw").layer, toy("archive_degraded").layer
    for key in (
        "serve.plancache.schedule_ms_miss",
        "serve.plancache.hit_ratio",
        "core.codec.replay_ms_per_degraded_get",
        "core.codec.replay_MBps",
        "cluster.scheduler.repair_s",
    ):
        assert rw.get(key, 0.0) == 0.0, key
        assert degraded[key] > 0.0, key
    small, large = toy("sweep_small").layer, toy("sweep_large").layer
    assert small["core.critical.exact_s"] > 0.0
    assert large["core.critical.exact_s"] == 0.0
    for layer in (small, large):
        assert layer["sim.maskgen.s"] > 0 and layer["core.kernel.s"] > 0
        assert -0.05 < layer["sim.montecarlo.unattributed_share"] < 0.5


def test_archive_budget_sums_to_the_operation_wall():
    for name in ("archive_rw", "archive_degraded"):
        layer = toy(name).layer
        for key, value in layer.items():
            if key.endswith("unattributed_share"):
                assert -1e-9 <= value < 0.25, (name, key, value)


def test_phase_a_is_half_plan_misses():
    # 6 stripes x 2 passes scattered (6 misses) + 6 x 3 dark-node reads
    # (<= nodes distinct stride masks).
    ratio = toy("archive_degraded").layer["serve.plancache.hit_ratio"]
    assert (12 + 18 - 6 - 4) / 30 <= ratio <= (12 + 18 - 6 - 1) / 30


def test_exact_metrics_repeat_bit_for_bit():
    for name in ("archive_rw", "archive_degraded"):
        first, second = toy(name, 1), toy(name, 2)
        for metric in metrics.NAMED:
            if metric.exact and name in metric.workloads:
                assert (
                    first.named[metric.name].value
                    == second.named[metric.name].value
                ), metric.name
        for metric in metrics.PER_LAYER:
            if metric.exact and name in metric.workloads:
                assert first.layer[metric.name] == second.layer[metric.name], (
                    metric.name
                )
    rw = toy("archive_rw")
    assert rw.named["stored_bytes_per_payload_byte"].value == 2.0
    assert rw.layer["cluster.rpc.count_per_put"] == 96
    assert rw.layer["serve.protocol.frames_per_put"] == 2 * (96 + 1)
    assert rw.layer["serve.protocol.frames_per_get"] == 2 * (4 + 1)


# -- the runner refuses a doctored environment --------------------------------


@pytest.mark.parametrize(
    "variable",
    ["REPRO_DECODE_ENGINE", "REPRO_DECODE_JIT", "REPRO_FAULT_CRASH_K",
     "REPRO_BENCH_SAMPLES"],
)
def test_forbidden_environment_is_detected(variable):
    assert run.forbidden_env({variable: "1", "HOME": "/"}) == [variable]


def test_runner_refuses_to_start_with_a_forbidden_variable():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"),
         "--workload", "sweep_small", "--seed", "1"],
        env={**os.environ, "REPRO_DECODE_ENGINE": "matmul"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "REPRO_DECODE_ENGINE" in done.stderr
    assert done.stdout == ""
