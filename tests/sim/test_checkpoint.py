"""Crash-tolerant sweep tests: checkpoints, resume, crashes, hangs.

The worker-fault drills use the ``REPRO_FAULT_*`` environment hooks in
:mod:`repro.sim.montecarlo` (fork-started pool workers inherit the
patched environment), so crashes and hangs are injected exactly where a
real OOM-kill or firmware stall would land.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry, capture
from repro.sim import profile_graph

SWEEP = dict(samples_per_k=200, exact_upto=3, seed=7)


def cells(path):
    """The k's a checkpoint file holds a cell record for."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return sorted(r["k"] for r in records if r["record"] == "cell")


@pytest.fixture(scope="module")
def baseline(small_tornado_module):
    return profile_graph(small_tornado_module, **SWEEP)


@pytest.fixture(scope="module")
def small_tornado_module():
    from repro.core import tornado_graph

    return tornado_graph(16, seed=3, min_final_lefts=6)


class TestCheckpointFile:
    def test_header_and_cell_records_written(
        self, small_tornado_module, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["record"] == "header"
        assert records[0]["graph"] == small_tornado_module.name
        assert records[0]["seed"] == 7
        cells = [r for r in records if r["record"] == "cell"]
        assert len(cells) == len(records) - 1 > 0
        assert all(r["samples"] == 200 for r in cells)

    def test_fresh_run_truncates_stale_checkpoint(
        self, small_tornado_module, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"record": "cell", "k": 9, "frac": 0.99}\n')
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["record"] == "header"  # old content gone


class TestResume:
    def test_resume_after_worker_crash_is_byte_identical(
        self, small_tornado_module, tmp_path, baseline, monkeypatch
    ):
        """Kill the worker for one k-cell mid-sweep: the same call
        finishes that cell in-process and returns the uninterrupted
        profile byte for byte, and so does a resume from its
        checkpoint."""
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        with capture(MetricsRegistry()) as reg:
            crashed = profile_graph(
                small_tornado_module, **SWEEP, n_jobs=2, checkpoint=path
            )
        monkeypatch.delenv("REPRO_FAULT_CRASH_K")
        assert reg.snapshot()["counters"]["profile.worker_crashes"] == 1
        assert crashed.to_json() == baseline.to_json()
        assert cells(path) == np.flatnonzero(baseline.samples).tolist()

        resumed = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            checkpoint=path,
            resume=True,
        )
        assert resumed.to_json() == baseline.to_json()

    def test_serial_resume_is_byte_identical(
        self, small_tornado_module, tmp_path, baseline
    ):
        path = tmp_path / "sweep.jsonl"
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        resumed = profile_graph(
            small_tornado_module, **SWEEP, checkpoint=path, resume=True
        )
        assert resumed.to_json() == baseline.to_json()

    def test_resume_tolerates_torn_final_line(
        self, small_tornado_module, tmp_path, baseline
    ):
        path = tmp_path / "sweep.jsonl"
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record": "cell", "k": 1')  # torn write
        resumed = profile_graph(
            small_tornado_module, **SWEEP, checkpoint=path, resume=True
        )
        assert resumed.to_json() == baseline.to_json()

    def test_mismatched_checkpoint_rejected(
        self, small_tornado_module, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        with pytest.raises(ValueError, match="different sweep"):
            profile_graph(
                small_tornado_module,
                samples_per_k=999,
                exact_upto=3,
                seed=7,
                checkpoint=path,
                resume=True,
            )

    def test_same_named_graph_of_other_structure_rejected(self, tmp_path):
        """Catalog graph 3 and its unadjusted draft share a name and a
        node count; only the structural digest tells them apart."""
        from repro.graphs import tornado_catalog_graph

        draft = tornado_catalog_graph(3, adjusted=False)
        final = tornado_catalog_graph(3)
        assert (draft.name, draft.num_nodes) == (final.name, final.num_nodes)
        path = tmp_path / "sweep.jsonl"
        sweep = dict(samples_per_k=50, ks=[20, 30], seed=1)
        profile_graph(draft, **sweep, checkpoint=path)
        with pytest.raises(ValueError, match="different sweep: graph_key"):
            profile_graph(final, **sweep, checkpoint=path, resume=True)

    def test_checkpoint_of_another_k_grid_rejected(
        self, small_tornado_module, tmp_path
    ):
        """Cell seeds are positional over the requested grid, so a file
        written for one ``ks`` holds other streams than another's."""
        path = tmp_path / "sweep.jsonl"
        profile_graph(
            small_tornado_module, **SWEEP, ks=[6, 9, 12], checkpoint=path
        )
        with pytest.raises(ValueError, match="different sweep: ks"):
            profile_graph(
                small_tornado_module,
                **SWEEP,
                ks=[4, 6, 9, 12],
                checkpoint=path,
                resume=True,
            )

    def test_header_without_digest_or_grid_still_resumes(
        self, small_tornado_module, tmp_path, baseline
    ):
        """Files written before the header grew ``graph_key`` and ``ks``
        resume as before."""
        path = tmp_path / "sweep.jsonl"
        profile_graph(small_tornado_module, **SWEEP, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["graph_key"], header["ks"]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:6]))
        resumed = profile_graph(
            small_tornado_module, **SWEEP, checkpoint=path, resume=True
        )
        assert resumed.to_json() == baseline.to_json()


class TestPoolFailure:
    """A crashed or hung pool worker stops the pool; its unfinished
    cells run in-process, so one call returns the baseline bytes."""

    @pytest.mark.parametrize(
        "drill, counter",
        [
            (dict(REPRO_FAULT_CRASH_K="10"), "profile.worker_crashes"),
            (
                # Hung past the test: the stopped pool must kill it.
                dict(REPRO_FAULT_HANG_K="12", REPRO_FAULT_HANG_SECS="60"),
                "profile.cell_timeouts",
            ),
            (
                # k=9 is still running when k=10's worker dies and takes
                # the pool with it.
                dict(
                    REPRO_FAULT_HANG_K="9",
                    REPRO_FAULT_HANG_SECS="0.5",
                    REPRO_FAULT_CRASH_K="10",
                ),
                "profile.worker_crashes",
            ),
        ],
        ids=["crash", "hang", "crash-beside-hang"],
    )
    def test_one_call_returns_the_uninterrupted_profile(
        self, small_tornado_module, tmp_path, baseline, monkeypatch,
        drill, counter,
    ):
        path = tmp_path / "sweep.jsonl"
        for name, value in drill.items():
            monkeypatch.setenv(name, value)
        with capture(MetricsRegistry()) as reg:
            profile = profile_graph(
                small_tornado_module,
                **SWEEP,
                n_jobs=2,
                cell_timeout=0.75,
                checkpoint=path,
            )
        for name in drill:
            monkeypatch.delenv(name)
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():  # no worker outlives it
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert reg.snapshot()["counters"][counter] == 1
        assert profile.to_json() == baseline.to_json()
        assert cells(path) == np.flatnonzero(baseline.samples).tolist()
        resumed = profile_graph(
            small_tornado_module, **SWEEP, checkpoint=path, resume=True
        )
        assert resumed.to_json() == baseline.to_json()

    def test_a_cell_that_fails_in_process_too_raises(
        self, small_tornado_module, tmp_path, baseline, monkeypatch
    ):
        """The parent runs the crashed worker's cells through the same
        runner; if that fails as well, the call raises, and a resume
        from the checkpoint it kept is the uninterrupted profile."""
        from repro.sim import montecarlo

        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        parent, runner = os.getpid(), montecarlo._sweep_cells

        def failing(graph, decoder, tasks):
            if os.getpid() == parent:  # forked workers run as before
                raise RuntimeError("in-process cell failed")
            return runner(graph, decoder, tasks)

        monkeypatch.setattr(montecarlo, "_sweep_cells", failing)
        with pytest.raises(RuntimeError, match="in-process cell failed"):
            profile_graph(
                small_tornado_module, **SWEEP, n_jobs=2, checkpoint=path
            )
        assert 10 not in cells(path)
        monkeypatch.setattr(montecarlo, "_sweep_cells", runner)
        monkeypatch.delenv("REPRO_FAULT_CRASH_K")
        resumed = profile_graph(
            small_tornado_module, **SWEEP, checkpoint=path, resume=True
        )
        assert resumed.to_json() == baseline.to_json()


class TestWorkerMetricsMerge:
    def test_parallel_decoder_counters_reach_parent(
        self, small_tornado_module
    ):
        with capture(MetricsRegistry()) as reg:
            profile_graph(small_tornado_module, **SWEEP, n_jobs=2)
        counters = reg.snapshot()["counters"]
        decoder = {
            k: v for k, v in counters.items() if k.startswith("decoder.")
        }
        assert decoder, "worker decoder.* counters were not merged"
        assert counters.get("decoder.cases", 0) > 0

    def test_parallel_matches_serial_counters(self, small_tornado_module):
        with capture(MetricsRegistry()) as serial_reg:
            profile_graph(small_tornado_module, **SWEEP)
        with capture(MetricsRegistry()) as parallel_reg:
            profile_graph(small_tornado_module, **SWEEP, n_jobs=2)
        serial = serial_reg.snapshot()["counters"]
        parallel = parallel_reg.snapshot()["counters"]
        assert serial["decoder.cases"] == parallel["decoder.cases"]
