"""E1 at the paper's scale: Tornado Graph 3's battery as a recorded run.

The paper's Monte Carlo battery spent 962,144,153 cases (34 CPU-days)
per graph on ``k = 5 .. 48`` offline devices.  This script runs the
same battery on catalog Tornado Graph 3 — ``k <= 6`` exactly by
inclusion–exclusion, ``k = 7 .. 48`` at 22 million samples each
(9.24e8 cases), ``k > 48`` pinned at 1 by the counting bound — and
writes the curve with a manifest to
``benchmarks/results/e1_paper_scale.txt``.

Not a pytest bench: it takes minutes, not seconds.  Every finished
cell is checkpointed under ``benchmarks/data`` and a rerun resumes, so
an interrupted invocation costs the cells in flight and nothing else:

    PYTHONPATH=src python benchmarks/run_e1_paper_scale.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from math import comb
from pathlib import Path

import numpy as np

from _bench_utils import write_result
from repro.analysis import ascii_curves
from repro.core.critical import count_failing_sets, minimal_bad_stopping_sets
from repro.graphs import tornado_catalog_graph
from repro.sim import profile_graph

GRAPH_NUMBER = 3
SAMPLES_PER_K = 22_000_000
SEED = 0
N_JOBS = 2
PAPER_CASES = 962_144_153
PAPER_AVERAGE = 73.77  # Table 1, "average to reconstruct", graph 3

DATA_DIR = Path(__file__).parent / "data"
CHECKPOINT = DATA_DIR / "e1_paper_scale.ckpt.jsonl"
SESSIONS = DATA_DIR / "e1_paper_scale.sessions.json"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=Path(__file__).parent,
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _open_session() -> list[dict]:
    """Start a wall-clock session; close one an interruption left open.

    An interrupted invocation did useful work up to its last
    checkpointed cell, which is the checkpoint file's mtime.
    """
    sessions = json.loads(SESSIONS.read_text()) if SESSIONS.exists() else []
    if sessions and "end" not in sessions[-1]:
        sessions[-1]["end"] = max(
            sessions[-1]["start"], CHECKPOINT.stat().st_mtime
        )
        sessions[-1]["interrupted"] = True
    sessions.append({"start": time.time()})
    SESSIONS.write_text(json.dumps(sessions))
    return sessions


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    if not CHECKPOINT.exists():
        SESSIONS.unlink(missing_ok=True)
    sessions = _open_session()
    graph = tornado_catalog_graph(GRAPH_NUMBER)
    profile = profile_graph(
        graph,
        samples_per_k=SAMPLES_PER_K,
        seed=SEED,
        n_jobs=N_JOBS,
        checkpoint=CHECKPOINT,
        resume=True,
    )
    sessions[-1]["end"] = time.time()
    SESSIONS.write_text(json.dumps(sessions))

    wall = sum(s["end"] - s["start"] for s in sessions)
    cases = int(profile.samples.sum())
    sampled = np.flatnonzero(profile.samples)
    minimal = minimal_bad_stopping_sets(graph, max_size=5)
    failing_5 = count_failing_sets(graph.num_nodes, 5, minimal)
    average = profile.average_nodes_capable()
    dirty = bool(_git("status", "--porcelain", "--", ":/src"))
    last_row = graph.num_nodes - graph.num_data + 1

    curve = "\n".join(
        f"{k:>3}  {profile.fail_fraction[k]:.9f}  "
        + (f"{profile.samples[k]:>10}" if profile.samples[k] else "     exact")
        for k in range(last_row + 1)
    ) + f"\n{last_row + 1:>3}..{graph.num_nodes}  all 1, exact"
    write_result(
        "e1_paper_scale",
        f"""E1 at paper scale - {profile.system_name} (96 devices, 48 data)

battery           k = 5..48 offline, as the paper's
exact cells       k <= 6 (inclusion-exclusion), k > 48 (counting bound)
sampled cells     k = {sampled[0]}..{sampled[-1]}: {len(sampled)} cells x {SAMPLES_PER_K:,} samples
cases decoded     {cases:,}  (paper: {PAPER_CASES:,} per graph)

first failure             {profile.first_failure()}
k = 5 failing fraction    {failing_5} of {comb(graph.num_nodes, 5):,} = {profile.fail_fraction[5]:.6e} (exact)
average to reconstruct    {average:.2f} ({average / graph.num_data:.2f})   paper: {PAPER_AVERAGE}
50% point                 {profile.nodes_for_success_probability(0.5)} of 96 online

manifest
  commit          {_git("rev-parse", "HEAD")}{" + uncommitted changes under src/" if dirty else ""}
  seed            {SEED}
  n_jobs          {N_JOBS} (os.cpu_count() = {os.cpu_count()})
  wall time       {wall:.0f} s = {wall / 60:.1f} min over {len(sessions)} invocation(s)
  cases per s     {cases / wall:,.0f}
  numpy           {np.__version__}
  python          {platform.python_version()}

  k  P(fail | k offline)     samples
{curve}

{ascii_curves([profile], k_max=60)}""",
    )


if __name__ == "__main__":
    main()
