#!/usr/bin/env python3
"""The archive's one benchmark command.

    python3 perf/run.py --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]

runs one workload in this process: set-up (timed, three times), the
machine's ceilings, one untimed warm-up round, then R timed rounds of
identical work, R being ``--seconds`` over the workload's nominal round
time (never fewer than ``MIN_ROUNDS``).  Every output is verified; any
failed check makes the exit code 1.  The process keeps freed memory on its
heap (``keep_freed_memory``), the one setting that is not the default.
Without ``--workload`` the four workloads run in turn, each in a fresh
process.

``--trace 0`` (default) measures the program with tracing off and prints
the end-to-end metrics.  ``--trace 1`` splits the time between
untraced rounds and rounds with the program's ``repro.obs`` spans switched
on and the ``layers.py`` wrappers installed, and prints the per-layer
metrics, the per-operation budget and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything above it is
for people.  Each run also appends one line to ``perf/results/history.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from common import Checks, Stat, durations, median_stat, percentile
from metrics import BY_NAME, END_TO_END, NAMED, PER_LAYER, WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
HISTORY = PERF / "results" / "history.jsonl"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 2  # per half of a traced run

# Settings that would silently change what is measured.
FORBIDDEN_ENV = ("REPRO_DECODE_ENGINE", "REPRO_DECODE_JIT")
FORBIDDEN_ENV_PREFIXES = ("REPRO_FAULT_", "REPRO_BENCH_")


def forbidden_env(environ) -> list[str]:
    return sorted(
        key for key in environ
        if key in FORBIDDEN_ENV or key.startswith(FORBIDDEN_ENV_PREFIXES)
    )


# <malloc.h>: mallopt() parameters.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> bool:
    """Make glibc's allocator reuse freed array memory instead of unmapping it.

    By default every numpy temporary above 128 KiB is its own ``mmap`` and
    goes back to the kernel when freed, so a sweep re-faults the same few
    hundred megabytes every round.  On this class of VM that is the least
    steady part of a run: the same 23 000 faults of one ``sweep_large``
    round cost between 0.7 and 2.3 system seconds (BUDGET.md, "Run-to-run
    spread").  With both thresholds raised, freed blocks stay on the heap
    and the rounds after the warm-up fault nothing.  False where the C
    library has no ``mallopt``; the result is recorded with every run.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(M_MMAP_THRESHOLD, 1 << 30)
        and mallopt(M_TRIM_THRESHOLD, (1 << 31) - 1)
    )


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def commit_id() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def round_count(workload, seconds: float, at_least: int) -> int:
    """R for a time budget: fixed by the workload's *nominal* round time.

    Not by the clock — R must not depend on how fast the machine happens
    to be, or memory and the long-lived cluster's state would differ
    between runs of the same inputs.
    """
    return max(at_least, round(seconds / workload.nominal_round_s))


def run_rounds(workload, checks, first: int, count: int):
    """Timed rounds ``first .. first+count-1``, garbage collected between."""
    rounds = []
    for index in range(first, first + count):
        gc.collect()
        rounds.append(workload.round(index, checks))
    return rounds


def import_seconds() -> float:
    """One more sample of the import cost, in a fresh interpreter."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(PERF)!r}]; "
        "import repro, ceilings, layers, archive, sweeps"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


@dataclass
class Report:
    """Everything one run measured, before it is printed."""

    workload: str
    seed: int
    config: dict[str, Any]
    checks: Any
    rounds: int
    traced_rounds: int
    end_to_end: dict[str, Any]  # name -> Stat, every END_TO_END metric
    named: dict[str, Any]  # name -> Stat, the workload's NAMED metrics
    ceiling: dict[str, float]
    layer: dict[str, float]  # traced runs only
    budget_lines: list[str]
    round_wall_s: list[float]  # the untraced rounds, in order

    def result(self, trace: bool) -> dict[str, Any]:
        """The contract's result object for a ``--trace`` setting."""
        if trace:
            reported = [
                (m, float(self.layer.get(m.name, 0.0))) for m in PER_LAYER
            ]
        else:
            reported = [
                (m, float(self.end_to_end[m.name].value)) for m in END_TO_END
            ]
        return {
            "correct": self.checks.failed == 0,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": {
                m.name: {"value": value, "unit": m.unit}
                for m, value in reported
            },
        }

    def lines(self, trace: bool) -> list[str]:
        """The human-readable report."""
        def fmt(name: str, stat) -> str:
            line = (f"{name:<52}{stat.value:>16.6g} "
                    f"{BY_NAME[name].unit:<6} n={stat.n}")
            if stat.median is not None:
                line += f" median={stat.median:.6g}"
            if stat.q1 is not None:
                line += f" q1={stat.q1:.6g} q3={stat.q3:.6g}"
            return line

        out = [
            f"# {self.workload} seed={self.seed} trace={int(trace)} "
            f"rounds={self.rounds} traced_rounds={self.traced_rounds} "
            f"nproc={os.cpu_count()}"
        ]
        out += [fmt(m.name, self.end_to_end[m.name]) for m in END_TO_END]
        out += [
            fmt(m.name, self.named[m.name])
            for m in NAMED if m.name in self.named
        ]
        out.append(
            f"attempted={self.checks.attempted} failed={self.checks.failed}"
        )
        out += [f"FAILED: {what}" for what in self.checks.first_failures]
        if not trace:
            out += [fmt(k, Stat(v)) for k, v in self.ceiling.items()]
            return out
        layer, ceiling = self.layer, self.ceiling
        out += [
            fmt(m.name, Stat(layer[m.name]))
            for m in PER_LAYER
            if self.workload in m.workloads and m.name in layer
        ]
        out += self.budget_lines
        for key in ("core.codec.encode_MBps", "core.codec.replay_MBps"):
            if layer.get(key):
                share = 100 * layer[key] / ceiling["ceiling.xor_MBps"]
                out.append(f"{key} is {share:.2f} % of ceiling.xor_MBps")
        for kind in ("put", "get"):
            count = layer.get(f"cluster.rpc.count_per_{kind}")
            if count:
                per_rpc = 1e3 * layer[f"cluster.rpc.span_ms_per_{kind}"] / count
                rtts = per_rpc / ceiling["ceiling.loopback_rtt_us"]
                out.append(
                    f"cluster.rpc span per {kind} RPC is {per_rpc:.0f} us = "
                    f"{rtts:.0f} x ceiling.loopback_rtt_us (spans of one "
                    f"{kind} overlap and queue on the per-link lock)"
                )
        return out


def measure(
    workload, *, seconds: float, trace: bool, import_s: float = 0.0
) -> Report:
    """Set up ``workload``, run its rounds, verify, tear down."""
    import repro

    import ceilings
    import layers

    checks = Checks()
    imports = [import_s] if import_s else []
    setups = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
            if import_s:
                imports.append(import_seconds())
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    try:
        ceiling = ceilings.measure()
        gc.collect()
        # Warm-up, untimed.  A traced run uses it to count frames and wire
        # bytes through the wrappers alone: with the program's own tracing
        # on, every frame also carries trace context and span records.
        warm_recorder = layers.Recorder()
        with layers.installed(warm_recorder) if trace else nullcontext():
            warm = workload.round(0, checks)
        layer: dict[str, float] = {}
        budget_lines: list[str] = []
        traced = []
        if not trace:
            count = round_count(workload, seconds, MIN_ROUNDS)
            untraced = run_rounds(workload, checks, 1, count)
        else:
            # Untraced and traced rounds alternate, so a slow phase of the
            # machine lands on both sides of the overhead estimate.
            count = round_count(workload, seconds / 2, MIN_ROUNDS_TRACED)
            recorder = layers.Recorder()
            tracer = repro.Tracer(seed=workload.seed)
            untraced = []
            for pair in range(count):
                untraced += run_rounds(workload, checks, 1 + 2 * pair, 1)
                with layers.installed(recorder), repro.trace_capture(tracer):
                    traced += run_rounds(workload, checks, 2 + 2 * pair, 1)
            layer, budget_lines = workload.layer_metrics(
                traced, recorder, tracer.records, warm, warm_recorder
            )
            # Tails come from the untraced rounds: reported, never gated.
            for key, kind, pct in (
                ("serve.client.put_p95_ms", "put", 95),
                ("serve.client.get_p99_ms", "get", 99),
            ):
                layer[key] = 1e3 * percentile(
                    (d for r in untraced for d in durations(r.windows, kind)),
                    pct,
                )
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        named = workload.named(untraced)
        workload.verify(checks)
        config = workload.config()
    finally:
        workload.teardown()

    named["failed_ops_share"] = Stat(checks.failed / checks.attempted)
    # Interference on this class of machine only ever slows a round, so
    # the fastest of R is the least contaminated; the median and quartiles
    # are printed beside it (BUDGET.md, "Run-to-run spread").
    walls = median_stat([r.wall_s for r in untraced])
    end_to_end = {
        "round_s": Stat(min(r.wall_s for r in untraced), walls.n, walls.q1,
                        walls.q3, walls.value),
        "peak_rss_MB": Stat(peak_rss),
        "setup_s": Stat(min(imports, default=0.0) + min(setups), len(setups)),
    }
    if trace:
        fastest = end_to_end["round_s"].value
        layer["obs.trace.overhead_share"] = (
            min(r.wall_s for r in traced) - fastest
        ) / fastest
        layer.update(ceiling)
        layer.update({f"e2e.{k}": s.value for k, s in named.items()})
    return Report(
        workload=workload.name, seed=workload.seed, config=config,
        checks=checks, rounds=len(untraced), traced_rounds=len(traced),
        end_to_end=end_to_end, named=named, ceiling=ceiling, layer=layer,
        budget_lines=budget_lines,
        round_wall_s=[r.wall_s for r in untraced],
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    started_at = time.time()
    started = time.perf_counter()
    heap_kept = keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # a checkout without src/ ends here, non-zero

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perf: imported repro from {repro.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2
    import ceilings  # noqa: F401  (set-up pays for every import)
    import layers  # noqa: F401
    from archive import ArchiveDegraded, ArchiveRW
    from sweeps import sweep_large, sweep_small

    import_s = time.perf_counter() - started
    factories = {
        "sweep_small": sweep_small,
        "sweep_large": sweep_large,
        "archive_rw": ArchiveRW,
        "archive_degraded": ArchiveDegraded,
    }
    report = measure(
        factories[name](seed), seconds=seconds, trace=trace,
        import_s=import_s,
    )
    print("\n".join(report.lines(trace)))
    result = report.result(trace)
    manifest = replace(
        repro.RunManifest.create(
            f"perf.{name}", seed=seed,
            config={**report.config, "trace": trace, "seconds": seconds,
                    "heap_kept": heap_kept},
            commit=commit_id(), nproc=os.cpu_count(),
            rounds=report.rounds, traced_rounds=report.traced_rounds,
        ),
        started_at=started_at,
    ).finish()
    HISTORY.parent.mkdir(exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": name,
            "manifest": manifest.to_dict(),
            "end_to_end": {k: s.value for k, s in report.end_to_end.items()},
            "named": {k: s.value for k, s in report.named.items()},
            "per_layer": report.layer,
            "ceiling": report.ceiling,
            "round_wall_s": report.round_wall_s,
            "attempted": result["attempted"],
            "failed": result["failed"],
        }, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    bad = forbidden_env(os.environ)
    if bad:
        print("perf: refusing to run with " + ", ".join(bad) + " set: the "
              "benchmark measures the program's defaults", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.workload is not None:
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
