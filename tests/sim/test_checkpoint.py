"""Crash-tolerant sweep tests: checkpoints, resume, timeouts, retries.

The worker-fault drills use the ``REPRO_FAULT_*`` environment hooks in
:mod:`repro.sim.montecarlo` (fork-started pool workers inherit the
patched environment), so crashes and hangs are injected exactly where a
real OOM-kill or firmware stall would land.
"""

import json

import pytest

from repro.obs import MetricsRegistry, capture
from repro.sim import profile_graph

SWEEP = dict(samples_per_k=200, exact_upto=3, seed=7)


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
        """Kill the worker for one k-cell mid-sweep; the resumed sweep
        must reproduce the uninterrupted profile byte-for-byte."""
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        partial = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            checkpoint=path,
            max_retries=1,
        )
        monkeypatch.delenv("REPRO_FAULT_CRASH_K")
        assert not partial.fully_covered
        assert 10 in partial.uncovered_ks()

        resumed = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            checkpoint=path,
            resume=True,
        )
        assert resumed.fully_covered
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


class TestDegradedCoverage:
    def test_hung_worker_times_out_into_coverage_mask(
        self, small_tornado_module, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_HANG_K", "12")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECS", "3")
        profile = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            cell_timeout=0.75,
            max_retries=0,
        )
        assert profile.uncovered_ks() == [12]
        # the abandoned cell is interpolated, not left at zero
        assert (
            profile.fail_fraction[11]
            <= profile.fail_fraction[12]
            <= profile.fail_fraction[13]
        )

    def test_crashed_cell_neighbours_still_complete(
        self, small_tornado_module, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        profile = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            max_retries=0,
        )
        assert profile.uncovered_ks() == [10]
        assert profile.samples[11] == 200  # innocent cells unharmed

    def test_crash_is_not_charged_to_a_cell_in_flight_beside_it(
        self, small_tornado_module, monkeypatch
    ):
        """k=9 is still running when k=10's worker dies and takes the
        pool with it; both futures break alike, only k=10 is at fault."""
        monkeypatch.setenv("REPRO_FAULT_HANG_K", "9")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECS", "0.5")
        monkeypatch.setenv("REPRO_FAULT_CRASH_K", "10")
        profile = profile_graph(
            small_tornado_module,
            **SWEEP,
            n_jobs=2,
            max_retries=0,
        )
        assert profile.uncovered_ks() == [10]
        assert profile.samples[9] == 200


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
