"""One process / membership / telemetry harness under every live run.

The four multi-process scenarios — ``repro cluster loadgen``
(:mod:`repro.cluster.driver`), ``repro cluster chaos``
(:mod:`repro.resilience.cluster_campaign`), ``repro sites loadgen``
(:mod:`repro.sites.driver`), ``repro sites chaos``
(:mod:`repro.sites.campaign`) — are plain functions over one
:class:`Fleet`.  A scenario owns its topology, workload, fault draws,
invariants and report; the fleet owns processes, seeds, membership,
clients, digests, telemetry and teardown.  ``docs/CLUSTER.md``
§ "Fleet and scenarios" spells out the split and the seed ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from typing import Any, Iterator, Sequence

import numpy as np

from ..obs import (
    FleetScraper,
    JsonlSink,
    LogicalClock,
    ScrapeTarget,
    SloEngine,
    TimeSeriesStore,
)
from ..obs.seeding import SeedLike, derive_seed, spawn_seeds
from ..resilience.retry import RetryPolicy
from ..serve.client import ClusterClient
from ..serve.loadgen import LoadGenConfig, arrival_schedule

__all__ = [
    "Cell",
    "Fleet",
    "FleetProcess",
    "FleetTelemetry",
    "ScenarioReport",
]

_READY_TIMEOUT = 30.0
# The pipe hits EOF a moment before the child is reapable: wait this
# long for an exit status before calling it "closed stdout early".
_EXIT_GRACE = 0.25
_DAEMON = (sys.executable, "-m", "repro")
# Logical seconds each telemetry scrape advances the clock; the SLO
# windows and burn thresholds are tuned for it.
_SCRAPE_INTERVAL = 60.0


def _daemon_argv(*verb: str, **flags: Any) -> list[str]:
    """``repro <verb> --flag value ...``; ``None`` flags are left out."""
    argv = [*_DAEMON, *verb]
    for name, value in flags.items():
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


class FleetProcess:
    """One spawned daemon and its ``cluster.ready`` handshake."""

    def __init__(self, role: str, argv: Sequence[str]):
        self.role = role
        self.host = ""
        self.port = 0
        # stderr is inherited as the real fd: sys.stderr may be a
        # capture object without fileno() under a test runner.
        self.proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE)

    def await_ready(self) -> None:
        """Wait, at most ``_READY_TIMEOUT``, for the ready line."""
        deadline = time.monotonic() + _READY_TIMEOUT
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise RuntimeError(f"{self.role} never became ready")
            chunk = os.read(fd, 65536)
            if not chunk:
                try:
                    code = self.proc.wait(timeout=_EXIT_GRACE)
                except subprocess.TimeoutExpired:
                    raise RuntimeError(
                        f"{self.role} closed stdout early"
                    ) from None
                raise RuntimeError(
                    f"{self.role} exited with {code} before becoming ready"
                )
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # interleaved human output
                if not isinstance(event, dict):
                    continue
                if event.get("event") == "cluster.ready":
                    self.host = event["host"]
                    self.port = int(event["port"])
                    return

    def kill(self) -> None:
        """SIGKILL and reap; a no-op on a process already gone."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def terminate(self) -> None:
        """SIGTERM (SIGKILL after 5 s), reap, close the pipe."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()


class Cell:
    """One coordinator, its storage nodes and (optionally) its WAL.

    ``name`` is ``None`` for a lone cluster, the site id in a
    federation; ``flags`` are extra ``cluster coordinator`` options.
    Every spawn, first or re-, draws its ``--seed`` from the fleet's
    ledger, so no two generations of a process mint the same span ids.
    """

    def __init__(self, fleet, name, node_ids, wal_dir, flags):
        self.fleet = fleet
        self.name = name
        self.node_ids = list(node_ids)
        self.wal_dir = wal_dir
        self.flags = flags
        self.coordinator: FleetProcess | None = None
        self.nodes: dict[str, FleetProcess] = {}
        self.generation = 0  # coordinator restarts so far

    def spawn_coordinator(self, *, recover: bool = False) -> None:
        """Start the coordinator — or, with ``recover``, restart it on
        its old port, replaying the WAL."""
        if recover:
            self.generation += 1
        role = f"{self.name} coordinator" if self.name else "coordinator"
        stem = role.replace(" ", "-")
        if self.generation:
            role += f" (gen {self.generation})"
            stem += f"-r{self.generation}"
        argv = _daemon_argv(
            "cluster",
            "coordinator",
            host="127.0.0.1",
            port=self.coordinator.port if recover else 0,
            seed=self.fleet.next_seed(),
            block_size=self.fleet.block_size,
            **self.flags,
            **{"recover" if recover else "wal": self.wal_dir},
            trace=self.fleet.trace_path(stem),
        )
        self.coordinator = self.fleet.spawn(role, argv)

    def spawn_node(self, node_id: str) -> None:
        """(Re)spawn one node, empty, on a fresh port; it self-joins."""
        at = self.coordinator
        argv = _daemon_argv(
            "cluster",
            "node",
            id=node_id,
            port=0,
            seed=self.fleet.next_seed(),
            coordinator=f"{at.host}:{at.port}",
            trace=self.fleet.trace_path(node_id),
        )
        self.nodes[node_id] = self.fleet.spawn(f"node {node_id}", argv)

    def start(self, *, recover: bool = False) -> None:
        """Bring the whole cell up; ``recover`` heals a blackout (WAL
        replay on the old port, nodes back empty)."""
        self.spawn_coordinator(recover=recover)
        for node_id in self.node_ids:
            self.spawn_node(node_id)

    def blackout(self) -> None:
        """SIGKILL the whole cell: nodes first, coordinator last."""
        for child in self.nodes.values():
            child.kill()
        self.coordinator.kill()

    def admin(self, node_id: str, action: str, **kwargs: Any) -> None:
        """One ``node.admin`` call (partition / slow / heal / restore)."""
        with self.fleet.connect(self.nodes[node_id], timeout=10.0) as c:
            c.node_admin(action, **kwargs)


class FleetTelemetry:
    """Scrape the fleet on a logical clock; persist a timeline.

    The scenario owns the clock: every scrape advances logical time by
    ``_SCRAPE_INTERVAL`` regardless of wall time, so the kill → alert →
    heal → clear sequence lands at the same ``timeline.jsonl`` offsets
    run after run.  The store holds every sample the file holds, and
    the engine evaluates each one as it lands, so the alerts written
    here are the alerts ``SloEngine().replay(load_timeline(path))``
    finds.  Targets come from the fleet's live membership at every
    scrape; when they moved (healed processes come back on fresh
    ephemeral ports) the scraper is rebuilt.  Without ``obs_dir`` every
    method is a no-op and :meth:`summary` is ``None``.
    """

    def __init__(self, fleet, obs_dir):
        self.fleet = fleet
        self.enabled = obs_dir is not None
        if not self.enabled:
            return
        os.makedirs(obs_dir, exist_ok=True)
        self.path = os.path.join(obs_dir, "timeline.jsonl")
        if os.path.exists(self.path):
            os.unlink(self.path)  # timelines are per-run artifacts
        self.sink = JsonlSink(self.path)
        self.clock = LogicalClock()
        self.store = TimeSeriesStore()
        self.engine = SloEngine()
        self.scraper: FleetScraper | None = None

    def scrape(self, note: str | None = None) -> None:
        if not self.enabled:
            return
        targets = self.fleet.scrape_targets()
        if self.scraper is None or self.scraper.targets != targets:
            self.scraper = FleetScraper(targets, timeout=2.0, clock=self.clock)
        self.clock.advance(_SCRAPE_INTERVAL)
        self.sink.emit(self.store.ingest(self.scraper.scrape_once()))
        if note:
            self.sink.emit(
                {"event": "driver.note", "ts": self.clock(), "note": note}
            )
        for transition in self.engine.evaluate(self.store):
            self.sink.emit(transition)

    def settle(self, max_scrapes: int = 90) -> None:
        """Keep scraping a healed fleet until every alert clears.

        Clearing needs each pair's *short* burn window to drain of bad
        samples — for the standard slow pair that is a full logical
        hour, 60 scrapes at the 60-s interval (cheap: each scrape
        is a handful of local RPCs and no wall-clock sleeps).  The
        bound keeps a fleet that *cannot* heal (e.g. ``rejoin=False``)
        from spinning forever.
        """
        if not self.enabled:
            return
        for _ in range(max_scrapes):
            if not self.engine.firing():
                break
            self.scrape()

    def summary(self) -> dict[str, Any] | None:
        if not self.enabled:
            return None
        return {
            "timeline": self.path,
            "samples": len(self.store),
            "scrapes": self.scraper.scrapes if self.scraper else 0,
            "alerts": list(self.engine.transitions),
            "firing": self.engine.firing(),
            "durability": self.engine.durability(self.store),
        }

    def close(self) -> None:
        if self.enabled:
            self.sink.close()


class ScenarioReport:
    """What the four scenario report dataclasses share."""

    @property
    def data_loss(self) -> bool:
        return self.mismatched > 0 or self.verified_objects < self.objects

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "data_loss": self.data_loss}

    def note(self, kind: str, **detail: Any) -> None:
        self.events.append({"kind": kind, **detail})

    def describe_telemetry(self) -> str:
        summary = self.telemetry
        fires = sum(a.get("state") == "firing" for a in summary["alerts"])
        return (
            f"telemetry: {summary['samples']} samples, "
            f"{fires} alert(s) fired, "
            f"{len(summary['firing'])} still firing "
            f"-> {summary['timeline']}"
        )


class Fleet:
    """Processes, membership, telemetry and teardown for one live run.

    A context manager.  ``work_dir`` holds WALs and a federation's
    manifest; ``None`` means a private temp dir, removed at teardown.
    """

    def __init__(
        self,
        seed: SeedLike,
        *,
        block_size: int,
        trace_dir: str | None = None,
        work_dir: str | None = None,
        obs_dir: str | None = None,
    ):
        self.seed = seed
        self._seeds_drawn = 0
        self.block_size = block_size
        self.trace_dir = trace_dir
        self.cells: list[Cell] = []
        self.gateway: FleetProcess | None = None
        self.client: ClusterClient | None = None
        self._work_dir = work_dir
        self._owns_work_dir = False
        self._started: list[FleetProcess] = []
        self.telemetry = FleetTelemetry(self, obs_dir)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.teardown()

    def next_seed_sequence(self) -> np.random.SeedSequence:
        """The next entry of the seed ledger: child *i* of the run seed
        on the *i*-th draw, so the order of draws is the contract."""
        self._seeds_drawn += 1
        return spawn_seeds(self.seed, self._seeds_drawn)[-1]

    def next_seed(self) -> int:
        return derive_seed(self.next_seed_sequence())

    @property
    def work_dir(self) -> str:
        if self._work_dir is None:
            self._work_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            self._owns_work_dir = True
        os.makedirs(self._work_dir, exist_ok=True)
        return self._work_dir

    def trace_path(self, stem: str) -> str | None:
        if not self.trace_dir:
            return None
        return os.path.join(self.trace_dir, f"{stem}.jsonl")

    def spawn(self, role: str, argv: Sequence[str]) -> FleetProcess:
        """Start one daemon and wait for its ready line."""
        child = FleetProcess(role, argv)
        # Registered before the handshake: a child that never becomes
        # ready is still reaped by teardown.
        self._started.append(child)
        child.await_ready()
        return child

    def add_cell(
        self,
        node_ids: Sequence[str],
        *,
        name: str | None = None,
        wal: bool = False,
        **flags: Any,
    ) -> Cell:
        """Start a coordinator and its nodes; with ``wal`` it journals
        under :attr:`work_dir` and can be recovered from there."""
        wal_dir = None
        if wal:
            wal_dir = self.work_dir
            if name:
                wal_dir = os.path.join(wal_dir, f"wal-{name}")
        cell = Cell(self, name, node_ids, wal_dir, flags)
        self.cells.append(cell)
        cell.start()
        return cell

    def add_federation(
        self,
        manifest: Any,
        nodes_per_site: int,
        *,
        rpc_timeout: float,
    ) -> dict[str, Cell]:
        """One WAL-backed cell per site of the
        :class:`~repro.sites.manifest.FederationManifest` (each deploys
        its assigned catalog graph), then the gateway over all of them."""
        manifest_path = os.path.join(self.work_dir, "federation.json")
        manifest.save(manifest_path)
        cells = {
            site.site_id: self.add_cell(
                [f"{site.site_id}-n{i}" for i in range(nodes_per_site)],
                name=site.site_id,
                wal=True,
                catalog=site.graph_number,
                rpc_timeout=rpc_timeout,
            )
            for site in manifest.sites
        }
        argv = _daemon_argv(
            "sites",
            "gateway",
            manifest=manifest_path,
            port=0,
            seed=self.next_seed(),
            block_size=self.block_size,
            rpc_timeout=rpc_timeout,
            trace=self.trace_path("gateway"),
        )
        for site_id, cell in cells.items():
            at = cell.coordinator
            argv += ["--attach", f"{site_id}={at.host}:{at.port}"]
        self.gateway = self.spawn("gateway", argv)
        return cells

    def scrape_targets(self) -> tuple[ScrapeTarget, ...]:
        """Every process of the live membership, gateway first."""
        members = []
        if self.gateway is not None:
            members.append(("gateway", "gateway", self.gateway))
        for cell in self.cells:
            prefix = f"{cell.name}-" if cell.name else ""
            members.append(
                ("coordinator", f"{prefix}coordinator", cell.coordinator)
            )
            for node_id, child in sorted(cell.nodes.items()):
                members.append(("node", node_id, child))
        return tuple(
            ScrapeTarget(role, target_id, child.host, child.port)
            for role, target_id, child in members
        )

    def connect(self, process, *, timeout: float = 30.0) -> ClusterClient:
        """A plain client to one coordinator or node; the caller closes."""
        return ClusterClient(process.host, process.port, timeout=timeout)

    def open_client(self, *, retry: bool = True) -> ClusterClient:
        """The run's client: to the gateway, else the first coordinator
        (both serve the archive ops; only a coordinator the admin ones).

        Chaos runs ride out restarts and dark sites on a seeded retry
        policy; an open-loop load run counts every failure instead.
        """
        at = self.gateway or self.cells[0].coordinator
        options: dict[str, Any] = {}
        if retry:
            options["timeout"] = 60.0
            options["retry"] = RetryPolicy(
                max_attempts=5,
                base_delay=0.2,
                max_delay=1.0,
                seed=derive_seed(self.seed),
            )
        self.client = ClusterClient(at.host, at.port, **options)
        return self.client

    def seed_objects(
        self, count: int, size: int, rng: np.random.Generator
    ) -> dict[str, str]:
        """Put ``object-000`` … with seeded payloads; name → SHA-256.

        Hashed *here*: a coordinator that digested already-damaged
        bytes must not pass its own check.  A differing ack fails the run.
        """
        digests: dict[str, str] = {}
        for i in range(count):
            name = f"object-{i:03d}"
            payload = rng.bytes(size)
            digests[name] = hashlib.sha256(payload).hexdigest()
            acked = self.client.put(name, payload)["sha256"]
            if acked != digests[name]:
                raise RuntimeError(
                    f"put of {name} acked sha256 {acked}, but the "
                    f"payload hashes to {digests[name]}"
                )
        return digests

    def read(self, name: str, digest: str, client: Any = None) -> str | None:
        """One digest-checked read: ``None`` when it verified, else
        ``"mismatch"`` or the type name of the error it raised."""
        try:
            info = (client or self.client).get(name)
        except Exception as exc:  # noqa: BLE001 — a failed read is an
            # outcome the scenario counts, whatever raised it.
            return type(exc).__name__
        return None if info.sha256 == digest else "mismatch"

    def verify(self, digests: dict[str, str], client: Any = None) -> int:
        """How many of ``digests`` read back verified."""
        return sum(
            self.read(name, digest, client) is None
            for name, digest in digests.items()
        )

    @staticmethod
    def paced(
        names: Sequence[str], *, requests: int, rate: float, seed: SeedLike
    ) -> Iterator[tuple[int, str, float]]:
        """Seeded open-loop arrivals: sleep to each instant of the
        :func:`~repro.serve.loadgen.arrival_schedule`, then yield
        ``(index, name, due)``; latency measured from ``due`` is
        coordinated-omission-corrected."""
        gaps, picks = arrival_schedule(
            names, LoadGenConfig(requests=requests, rate=rate, seed=seed)
        )
        due = time.perf_counter()
        for i, (gap, name) in enumerate(zip(gaps, picks)):
            due += gap
            lag = due - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
            yield i, name, due

    def teardown(self) -> None:
        """Stop everything this fleet started; safe to call twice."""
        if self.client is not None:
            self.client.close()
        for child in reversed(self._started):
            child.terminate()
        self.telemetry.close()
        if self._owns_work_dir:
            shutil.rmtree(self._work_dir, ignore_errors=True)
