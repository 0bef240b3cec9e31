"""Fleet's process layer against stub children (no cluster, < 3 s).

``_DAEMON`` is swapped for ``python -c STUB``, so the real argv
builders run and the stub sees exactly the flags a daemon would.
"""

import json
import os
import sys
import time

import pytest

from repro.cluster import fleet as fleet_mod
from repro.cluster.fleet import Fleet, FleetProcess

# Echoes --port (or invents one from its pid) in a ready line buried
# in human output, then idles like a daemon.
STUB = r"""
import json, os, sys, time
args = sys.argv[1:]
port = int(args[args.index("--port") + 1]) or 20000 + os.getpid() % 30000
print("booting", args[1], flush=True)
print("{not json", flush=True)
print(json.dumps({"event": "other"}), json.dumps([1]), sep="\n", flush=True)
print(json.dumps({"event": "cluster.ready", "host": "127.0.0.1",
                  "port": port, "argv": args}), flush=True)
time.sleep(60)
"""


def python(source: str) -> list[str]:
    return [sys.executable, "-c", source]


@pytest.fixture
def stub_daemons(monkeypatch):
    monkeypatch.setattr(fleet_mod, "_DAEMON", tuple(python(STUB)))


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def flag(child: FleetProcess, name: str) -> str:
    argv = child.proc.args
    return argv[argv.index(name) + 1]


class TestHandshake:
    def test_ready_line_found_among_interleaved_output(self, stub_daemons):
        with Fleet(0, block_size=256) as fleet:
            child = fleet.spawn("stub", [*python(STUB), "x", "y", "--port", "7"])
            assert (child.host, child.port) == ("127.0.0.1", 7)

    def test_exit_before_ready_names_the_role(self):
        with Fleet(0, block_size=256) as fleet:
            with pytest.raises(RuntimeError, match=r"node n1 exited with 3"):
                fleet.spawn("node n1", python("import sys; sys.exit(3)"))

    def test_closed_stdout_names_the_role(self):
        source = "import os, time; os.close(1); time.sleep(60)"
        with Fleet(0, block_size=256) as fleet:
            with pytest.raises(RuntimeError, match="gateway closed stdout"):
                fleet.spawn("gateway", python(source))

    def test_silent_child_times_out(self, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_READY_TIMEOUT", 0.3)
        started = time.monotonic()
        with Fleet(0, block_size=256) as fleet:
            with pytest.raises(RuntimeError, match="mute never became ready"):
                fleet.spawn("mute", python("import time; time.sleep(60)"))
        assert time.monotonic() - started < 5

    def test_failed_handshake_leaves_no_live_pid(self, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_READY_TIMEOUT", 0.3)
        fleet = Fleet(0, block_size=256)
        with pytest.raises(RuntimeError):
            fleet.spawn("mute", python("import time; time.sleep(60)"))
        (leaked,) = fleet._started
        assert alive(leaked.proc.pid)
        fleet.teardown()
        assert leaked.proc.poll() is not None
        assert leaked.proc.stdout.closed

    def test_kill_and_terminate_are_idempotent(self, stub_daemons):
        with Fleet(0, block_size=256) as fleet:
            child = fleet.spawn("stub", [*python(STUB), "x", "y", "--port", "7"])
            child.kill()
            child.kill()
            child.terminate()
            child.terminate()
            assert child.proc.returncode is not None
        fleet.teardown()  # a second teardown is a no-op


class TestMembership:
    def test_recover_reuses_port_and_wal(self, stub_daemons, tmp_path):
        with Fleet(5, block_size=256, trace_dir=str(tmp_path)) as fleet:
            cell = fleet.add_cell(["node-0"], wal=True, rpc_timeout=0.5)
            first = cell.coordinator
            assert flag(first, "--port") == "0"
            assert flag(first, "--wal") == fleet.work_dir
            assert flag(first, "--rpc-timeout") == "0.5"
            assert first.role == "coordinator"
            first.kill()
            cell.spawn_coordinator(recover=True)
            second = cell.coordinator
            assert second is not first
            assert second.role == "coordinator (gen 1)"
            assert flag(second, "--port") == str(first.port)
            assert flag(second, "--recover") == fleet.work_dir
            assert "--wal" not in second.proc.args
            assert flag(second, "--seed") != flag(first, "--seed")
            assert flag(second, "--trace").endswith("coordinator-r1.jsonl")

    def test_seed_ledger_order_is_spawn_seeds_order(self, stub_daemons):
        from repro.obs import derive_seed, spawn_seeds

        ledger = [str(derive_seed(s)) for s in spawn_seeds(9, 4)]
        with Fleet(9, block_size=256) as fleet:
            cell = fleet.add_cell(["node-0", "node-1"])
            drawn = [
                flag(cell.coordinator, "--seed"),
                flag(cell.nodes["node-0"], "--seed"),
                flag(cell.nodes["node-1"], "--seed"),
                str(fleet.next_seed()),
            ]
        assert drawn == ledger

    def test_two_generations_mint_disjoint_span_ids(self, stub_daemons):
        """A respawned coordinator or node draws a fresh ``--seed``, so
        its tracer's ids never repeat the last generation's; on the old
        seed a recovered coordinator minted every id again."""
        from repro.obs import Tracer

        def ids(child):
            tracer = Tracer(seed=int(flag(child, "--seed")))
            return {tracer.new_id() for _ in range(200)}

        with Fleet(3, block_size=256) as fleet:
            cell = fleet.add_cell(["node-0"], wal=True)
            first = [cell.coordinator, cell.nodes["node-0"]]
            cell.coordinator.kill()
            cell.spawn_coordinator(recover=True)
            cell.nodes["node-0"].kill()
            cell.spawn_node("node-0")
            second = [cell.coordinator, cell.nodes["node-0"]]
        generations = [ids(child) for child in first + second]
        assert sum(map(len, generations)) == len(set().union(*generations))

    def test_scrape_targets_follow_a_respawn(self, stub_daemons, tmp_path):
        obs_dir = tmp_path / "obs"
        with Fleet(0, block_size=256, obs_dir=str(obs_dir)) as fleet:
            cell = fleet.add_cell(["node-0", "node-1"])
            before = fleet.scrape_targets()
            assert [t.target_id for t in before] == [
                "coordinator",
                "node-0",
                "node-1",
            ]
            fleet.telemetry.scrape(note="before")
            assert fleet.telemetry.scraper.targets == before
            cell.nodes["node-0"].kill()
            assert fleet.scrape_targets() == before  # dark, still a target
            cell.spawn_node("node-0")
            after = fleet.scrape_targets()
            assert after != before
            assert after[1].port == cell.nodes["node-0"].port
            fleet.telemetry.scrape(note="after")  # no retarget call
            assert fleet.telemetry.scraper.targets == after
            assert fleet.telemetry.summary()["samples"] == 2
        notes = [
            json.loads(line).get("note")
            for line in (obs_dir / "timeline.jsonl").read_text().splitlines()
        ]
        assert [n for n in notes if n] == ["before", "after"]

    def test_federation_names_cells_and_attaches_them(
        self, stub_daemons, tmp_path
    ):
        class Site:
            def __init__(self, site_id, graph_number):
                self.site_id, self.graph_number = site_id, graph_number

        class Manifest:
            sites = (Site("site-0", 2), Site("site-1", 3))

            def save(self, path):
                open(path, "w").close()

        with Fleet(0, block_size=256, work_dir=str(tmp_path)) as fleet:
            cells = fleet.add_federation(Manifest(), 1, rpc_timeout=5.0)
            assert list(cells) == ["site-0", "site-1"]
            coordinator = cells["site-1"].coordinator
            assert coordinator.role == "site-1 coordinator"
            assert flag(coordinator, "--catalog") == "3"
            assert flag(coordinator, "--wal") == str(tmp_path / "wal-site-1")
            assert list(cells["site-1"].nodes) == ["site-1-n0"]
            gateway = fleet.gateway.proc.args
            attached = [
                gateway[i + 1]
                for i, arg in enumerate(gateway)
                if arg == "--attach"
            ]
            assert attached == [
                f"{sid}=127.0.0.1:{cell.coordinator.port}"
                for sid, cell in cells.items()
            ]
            assert fleet.scrape_targets()[0].role == "gateway"
            assert fleet.scrape_targets()[1].target_id == "site-0-coordinator"


class TestTeardown:
    def test_reaps_everything_and_only_its_own_dir(
        self, stub_daemons, tmp_path
    ):
        with Fleet(0, block_size=256) as fleet:
            cell = fleet.add_cell(["node-0"], wal=True)
            own = fleet.work_dir
            assert os.path.isdir(own)
            cell.spawn_node("node-0")  # the replaced process is reaped too
            started = list(fleet._started)
            assert len(started) == 3
        assert not os.path.exists(own)
        assert all(c.proc.poll() is not None for c in started)
        assert all(c.proc.stdout.closed for c in started)

        named = tmp_path / "wal"
        with Fleet(0, block_size=256, work_dir=str(named)) as fleet:
            fleet.add_cell(["node-0"], wal=True)
            assert fleet.work_dir == str(named)
        assert named.is_dir()

    def test_telemetry_is_a_no_op_without_obs_dir(self, stub_daemons):
        with Fleet(0, block_size=256) as fleet:
            fleet.add_cell(["node-0"])
            fleet.telemetry.scrape(note="ignored")
            fleet.telemetry.settle()
            assert fleet.telemetry.summary() is None
