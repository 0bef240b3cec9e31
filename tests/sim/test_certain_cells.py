"""``profile_graph`` pins the cells above the counting bound unsampled.

With more than ``num_nodes - num_data`` nodes offline every decoder
fails (``tests/core/test_counting_bound.py``), so ``profile_graph``
writes exactly 1.0 there and draws nothing.  The reference below is the
sweep it replaced: **every** cell of the grid sampled from positionally
spawned seeds.  The pinned sweep must return the same bytes.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np
import pytest

from repro.core import tornado_graph
from repro.core.critical import count_failing_sets, minimal_bad_stopping_sets
from repro.obs import MetricsRegistry, capture, spawn_seeds
from repro.sim import profile_graph, sample_fail_fraction

SWEEP = dict(samples_per_k=300, exact_upto=3, seed=19)
EXPLICIT_KS = [20, 5, 16, 17, 30, 9]  # unsorted, both sides of the bound


def sample_every_cell(graph, *, samples_per_k, exact_upto, seed, ks=None):
    """Failure fractions with no cell pinned: the full-grid reference."""
    n = graph.num_nodes
    fail = np.zeros(n + 1)
    fail[n] = 1.0
    minimal = minimal_bad_stopping_sets(graph, max_size=exact_upto)
    for k in range(exact_upto + 1):
        fail[k] = count_failing_sets(n, k, minimal) / comb(n, k)
    grid = [
        k
        for k in (ks if ks is not None else range(exact_upto + 1, n))
        if exact_upto < k < n
    ]
    for k, child in zip(grid, spawn_seeds(seed, len(grid))):
        fail[k] = sample_fail_fraction(
            graph, k, samples_per_k, np.random.default_rng(child)
        )
    if ks is not None:
        known = sorted({*range(exact_upto + 1), *grid, n})
        fail = np.interp(np.arange(n + 1), known, fail[known])
    return np.clip(fail, 0.0, 1.0)


@pytest.fixture(scope="module")
def graph():
    return tornado_graph(16, seed=3, min_final_lefts=6)  # 32 nodes


@pytest.fixture(scope="module")
def reference(graph):
    return sample_every_cell(graph, **SWEEP)


def _cut_after(path, cells: int) -> None:
    """Keep the header and the first ``cells`` cell records."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + cells]))


class TestEqualsTheFullySampledSweep:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_default_grid(self, graph, reference, n_jobs):
        prof = profile_graph(graph, **SWEEP, n_jobs=n_jobs)
        assert prof.fail_fraction.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_explicit_ks(self, graph, n_jobs):
        prof = profile_graph(graph, **SWEEP, ks=EXPLICIT_KS, n_jobs=n_jobs)
        want = sample_every_cell(graph, **SWEEP, ks=EXPLICIT_KS)
        assert prof.fail_fraction.tobytes() == want.tobytes()
        assert (prof.fail_fraction[[17, 20, 30]] == 1.0).all()
        assert (prof.samples[[5, 9, 16]] == 300).all()
        assert not prof.samples[[17, 20, 30]].any()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_resumed_from_a_checkpoint_cut_mid_grid(
        self, graph, reference, tmp_path, n_jobs
    ):
        path = tmp_path / "sweep.jsonl"
        profile_graph(graph, **SWEEP, checkpoint=path)
        _cut_after(path, cells=5)
        with capture(MetricsRegistry()) as reg:
            prof = profile_graph(
                graph, **SWEEP, checkpoint=path, resume=True, n_jobs=n_jobs
            )
        assert prof.fail_fraction.tobytes() == reference.tobytes()
        assert reg.snapshot()["counters"]["profile.cells_resumed"] == 5

    def test_checkpoint_never_holds_a_certain_cell(self, graph, tmp_path):
        path = tmp_path / "sweep.jsonl"
        profile_graph(graph, **SWEEP, checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        cells = [r["k"] for r in records if r["record"] == "cell"]
        assert cells == list(range(4, 17))

    def test_old_checkpoint_with_tail_cells_is_accepted(
        self, graph, reference, tmp_path
    ):
        """A file written before the pin still resumes, tail and all."""
        path = tmp_path / "sweep.jsonl"
        profile_graph(graph, **SWEEP, checkpoint=path)
        _cut_after(path, cells=8)
        with open(path, "a", encoding="utf-8") as fh:
            for k in (17, 25, 31):
                fh.write(json.dumps(
                    {"record": "cell", "k": k, "frac": 1.0, "samples": 300}
                ) + "\n")
        prof = profile_graph(graph, **SWEEP, checkpoint=path, resume=True)
        assert prof.fail_fraction.tobytes() == reference.tobytes()
        assert not prof.samples[17:].any()


class TestCertainCellsAreExactEntries:
    def test_samples_coverage_and_interval(self, graph):
        prof = profile_graph(graph, **SWEEP)
        bound = graph.num_nodes - graph.num_data
        assert (prof.samples[4:bound + 1] == 300).all()
        assert not prof.samples[bound + 1:].any()
        assert (prof.fail_fraction[bound + 1:] == 1.0).all()
        for k in range(bound + 1, graph.num_nodes + 1):
            assert prof.confidence_interval(k) == (1.0, 1.0)

    def test_cells_and_samples_metrics_count_sampled_cells(self, graph):
        with capture(MetricsRegistry()) as reg:
            profile_graph(graph, **SWEEP)
        snap = reg.snapshot()
        assert snap["counters"]["profile.samples"] == 13 * 300
        (done,) = [e for e in reg.events if e["event"] == "profile.done"]
        assert done["cells"] == 13
        assert done["samples"] == 13 * 300
