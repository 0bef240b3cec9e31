"""Deterministic synthetic load generation for the serving layer.

Open-loop arrivals: request launch times follow a seeded exponential
interarrival process (a Poisson stream at ``rate`` req/s), independent
of how fast the service responds — which is what exposes backpressure:
a service slower than the offered load accumulates queue depth and
ultimately sheds, rather than silently slowing the generator down.
Latencies are measured from each request's *scheduled* arrival time
(coordinated-omission correction), so queueing behind a saturated
service shows up in the percentiles instead of vanishing.  The
*workload* (arrival gaps and object choices) is a pure function of the
seed, so batched and unbatched scenarios replay identical request
streams; only the measured latencies are wall-clock.

:func:`seeded_archive` builds the standard benchmark fixture — a
catalog-graph archive with seeded payloads and a seeded set of failed
devices (``severity``) — shared by the CLI verbs, the example, the
serving benchmark, and CI's serve-smoke job.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .._checks import check_count, check_seconds
from ..core.graph import ErasureGraph
from ..obs.seeding import SeedLike, resolve_rng, spawn_seeds
from ..obs.trace import trace_span
from ..storage.archive import TornadoArchive
from ..storage.device import DeviceArray
from .errors import DeadlineExceededError, ServiceOverloadedError
from .service import ReconstructionService

__all__ = [
    "LoadGenConfig",
    "LoadReport",
    "arrival_schedule",
    "run_loadgen",
    "seeded_archive",
]


@dataclass(frozen=True)
class LoadGenConfig:
    """Workload shape: ``requests`` arrivals at ``rate``/s, seeded."""

    requests: int = 200
    rate: float = 500.0
    seed: SeedLike = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        check_count(self.requests, "requests", 1)
        check_seconds(self.rate, "rate")
        check_seconds(self.deadline, "deadline")


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    requests: int
    completed: int
    shed: int
    deadline_exceeded: int
    errors: int
    elapsed_seconds: float
    bytes_served: int
    latency: dict[str, float]  # p50/p95/p99/mean seconds (completed)

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "bytes_served": self.bytes_served,
            "latency": self.latency,
        }

    def describe(self) -> str:
        lat = self.latency
        return (
            f"{self.completed}/{self.requests} completed "
            f"({self.shed} shed, {self.deadline_exceeded} deadline, "
            f"{self.errors} errors) in {self.elapsed_seconds:.3f}s "
            f"-> {self.throughput_rps:.0f} req/s; latency "
            f"p50 {lat.get('p50', 0) * 1e3:.2f}ms "
            f"p95 {lat.get('p95', 0) * 1e3:.2f}ms "
            f"p99 {lat.get('p99', 0) * 1e3:.2f}ms"
        )


def arrival_schedule(
    names: Sequence[str], config: LoadGenConfig
) -> tuple[list[float], list[str]]:
    """The deterministic workload: interarrival gaps + object choices.

    Exposed separately so tests can assert that one seed means one
    workload, independent of service timing.
    """
    rng = resolve_rng(config.seed)
    gaps = rng.exponential(
        1.0 / config.rate, size=config.requests
    ).tolist()
    picks = rng.integers(0, len(names), size=config.requests)
    return gaps, [names[int(i)] for i in picks]


async def run_loadgen(
    service: ReconstructionService,
    names: Sequence[str],
    config: LoadGenConfig | None = None,
) -> LoadReport:
    """Drive ``service`` with a seeded open-loop workload.

    Every outcome is accounted: completions (with latency), sheds,
    deadline misses, and hard errors (data loss, service closed).
    """
    config = config or LoadGenConfig()
    if not names:
        raise ValueError("need at least one object name to request")
    gaps, picks = arrival_schedule(names, config)

    latencies: list[float] = []
    counts = {"completed": 0, "shed": 0, "deadline": 0, "errors": 0}
    bytes_served = 0

    async def one(name: str, t0: float) -> None:
        # ``t0`` is the *scheduled* arrival time, not when this task got
        # to run: open-loop latency must include time the request spent
        # waiting behind a congested service (avoiding coordinated
        # omission), not just service time after admission.
        nonlocal bytes_served
        try:
            data = await service.submit(name, deadline=config.deadline)
        except ServiceOverloadedError:
            counts["shed"] += 1
        except DeadlineExceededError:
            counts["deadline"] += 1
        except Exception:
            counts["errors"] += 1
        else:
            counts["completed"] += 1
            latencies.append(time.perf_counter() - t0)
            bytes_served += len(data)

    # Pace against absolute scheduled times: sleep only when ahead of
    # schedule and catch up in bursts when behind, so the offered load
    # is independent of how fast the service absorbs it.  The umbrella
    # span makes every request span a child of this run, so a traced
    # loadgen produces one tree per request under one loadgen root.
    with trace_span(
        "loadgen.run", requests=config.requests, rate=config.rate
    ) as run_span:
        t_start = time.perf_counter()
        scheduled = t_start
        tasks = []
        for gap, name in zip(gaps, picks):
            scheduled += gap
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(name, scheduled)))
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - t_start
        run_span.set_attr("completed", counts["completed"])

    if latencies:
        arr = np.asarray(latencies)
        latency = {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }
    else:
        latency = {}
    return LoadReport(
        requests=config.requests,
        completed=counts["completed"],
        shed=counts["shed"],
        deadline_exceeded=counts["deadline"],
        errors=counts["errors"],
        elapsed_seconds=elapsed,
        bytes_served=bytes_served,
        latency=latency,
    )


def seeded_archive(
    graph: ErasureGraph | None = None,
    *,
    objects: int = 4,
    object_size: int = 4096,
    block_size: int = 256,
    severity: int = 0,
    seed: SeedLike = 0,
) -> tuple[TornadoArchive, list[str]]:
    """Standard serving fixture: seeded archive + damaged devices.

    Stores ``objects`` seeded payloads on a pool sized to the graph and
    fails ``severity`` devices (seeded), so every consumer — CLI verbs,
    benchmark, CI smoke, example — reconstructs the same world from the
    same arguments.  Returns the archive and the stored object names.
    """
    if graph is None:
        from ..graphs import tornado_catalog_graph

        graph = tornado_catalog_graph(3)
    check_count(objects, "objects", 1)
    check_count(object_size, "object_size")
    if severity >= graph.num_nodes:
        raise ValueError(
            f"severity {severity} would fail every one of the "
            f"{graph.num_nodes} devices"
        )
    archive = TornadoArchive(
        graph, DeviceArray(graph.num_nodes), block_size=block_size
    )
    payload_seed, damage_seed = spawn_seeds(seed, 2)
    payload_rng = resolve_rng(payload_seed)
    names = []
    for i in range(objects):
        name = f"object-{i:03d}"
        archive.put(name, payload_rng.bytes(object_size))
        names.append(name)
    if severity > 0:
        archive.devices.fail_random(severity, resolve_rng(damage_seed))
    return archive, names
