#!/usr/bin/env python3
"""Is the benchmark steady enough to carry its own bounds?

    python3 perf/repeat.py [--sets 3] [--runs 1] [--seed 1] [--workload W]

runs ``--sets`` full sets of the benchmark on one commit.  A set is
``--runs`` untraced runs of every workload with seeds ``seed, seed+1, ...``
(the same seeds in every set), each a fresh ``run.py`` process.  For every
bounded metric x workload it prints each set's median, the quartiles, the
spread within a set (distance between the quartiles over the median —
the driver's own measure, taken with ``--runs 10``) and spread / bound.

Exit code 1 if two sets' medians disagree by more than the metric's bound,
if a spread exceeds the bound, if an *exact* metric took two values, or
if any run failed.  A spread above a third of its bound is flagged
``wide``: bounds in ``metrics.py`` are ``max(10 %, 2 x spread)`` as
measured with this script, capped at the contract's 25 %.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from metrics import END_TO_END, NAMED, WORKLOADS
from run import HISTORY, default_seconds

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict | None:
    """Run once; return the history record the run appended."""
    before = HISTORY.stat().st_size if HISTORY.exists() else 0
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        return None
    with open(HISTORY, encoding="utf-8") as fh:
        fh.seek(before)
        return json.loads(fh.readlines()[-1])


def spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else default_seconds()
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    # values[(workload, metric)][set] -> one value per run
    values: dict[tuple[str, str], list[list[float]]] = {}
    problems: list[str] = []
    for s in range(args.sets):
        for workload in workloads:
            for j in range(args.runs):
                record = one_run(workload, args.seed + j, seconds)
                if record is None or record["failed"]:
                    problems.append(f"{workload} set {s} run {j} failed")
                    continue
                measured = {**record["end_to_end"], **record["named"]}
                for name, value in measured.items():
                    sets = values.setdefault(
                        (workload, name), [[] for _ in range(args.sets)]
                    )
                    sets[s].append(value)
            print(f"set {s + 1}/{args.sets}: {workload} done", file=sys.stderr)

    header = (f"{'workload':<17}{'metric':<32}{'set medians':<34}"
              f"{'q1':>10}{'q3':>10}{'spread':>8}{'bound':>7}{'ratio':>7}")
    print(header)
    for workload in workloads:
        for metric in END_TO_END + NAMED:
            sets = values.get((workload, metric.name))
            if not sets or not all(sets):
                continue
            everything = [v for one in sets for v in one]
            medians = [statistics.median(one) for one in sets]
            if metric.exact:
                if len(set(everything)) > 1:
                    problems.append(
                        f"{workload} {metric.name}: exact metric took "
                        f"{sorted(set(everything))}"
                    )
                print(f"{workload:<17}{metric.name:<32}"
                      f"{medians[0]:<34.6g}{'exact':>42}")
                continue
            worst = max(
                (s for s in map(spread, sets) if s is not None), default=None
            )
            if len(everything) >= 2:
                q1, _, q3 = statistics.quantiles(everything, n=4)
            else:
                q1 = q3 = everything[0]
            ratio = worst / metric.bound if worst is not None else None
            flag = ""
            if ratio is not None and ratio > 1:
                flag = " SPREAD>BOUND"
                problems.append(
                    f"{workload} {metric.name}: spread {worst:.3f} exceeds "
                    f"bound {metric.bound}"
                )
            elif ratio is not None and ratio > 1 / 3:
                flag = " wide"
            for a, b in combinations(medians, 2):
                if abs(a - b) / statistics.median(everything) > metric.bound:
                    problems.append(
                        f"{workload} {metric.name}: set medians {a:.6g} and "
                        f"{b:.6g} disagree by more than {metric.bound}"
                    )
            print(
                f"{workload:<17}{metric.name:<32}"
                f"{' '.join(f'{m:.5g}' for m in medians):<34}"
                f"{q1:>10.5g}{q3:>10.5g}"
                f"{'' if worst is None else format(worst, '.3f'):>8}"
                f"{metric.bound:>7.2f}"
                f"{'' if ratio is None else format(ratio, '.2f'):>7}{flag}"
            )
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
