"""X12 — serving throughput: micro-batched vs unbatched reconstruction.

The serving layer's claim (docs/SERVE.md): under a saturating open-loop
workload with a hot object set, micro-batching plus plan caching turns
redundant concurrent reconstructions into shared decodes, multiplying
throughput while *lowering* tail latency — the unbatched baseline pays
queueing delay for every redundant decode it performs.

Two campaigns over one seeded world (4 hot objects on a severity-12
catalog-3 archive, identical request streams):

* ``unbatched``  — zero window, no plan cache: every request plans and
  decodes alone (the pre-serve behaviour).
* ``batched``    — 5 ms window, plan-cached, coalescing up to 64
  requests per dispatch.

Latency percentiles are coordinated-omission corrected (measured from
each request's scheduled arrival), so the unbatched baseline's queueing
is visible rather than silently shed by a slowed generator.

Scale knobs: ``REPRO_BENCH_SERVE_REQUESTS`` (default 400) and
``REPRO_BENCH_SERVE_RATE`` (offered req/s, default 10000).

The timed kernel is a reduced micro-batched campaign; the full
comparison runs once and lands in
``benchmarks/results/x12_serve_throughput.txt``.
"""

import asyncio
import os

from _bench_utils import write_result
from repro.analysis import format_table
from repro.serve import (
    LoadGenConfig,
    ReconstructionService,
    ServeConfig,
    run_loadgen,
    seeded_archive,
)

REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "400"))
RATE = float(os.environ.get("REPRO_BENCH_SERVE_RATE", "10000"))

WORLD = dict(
    objects=4, object_size=393216, block_size=4096, severity=12, seed=11
)
WINDOW = 0.005
MAX_BATCH = 64


def _config(mode: str) -> ServeConfig:
    unbatched = mode == "unbatched"
    return ServeConfig(
        queue_limit=10_000,
        batch_window=0.0 if unbatched else WINDOW,
        max_batch=MAX_BATCH,
        plan_capacity=0 if unbatched else 256,
    )


def _run(mode: str, requests: int = REQUESTS):
    archive, names = seeded_archive(**WORLD)
    load = LoadGenConfig(requests=requests, rate=RATE, seed=7)

    async def go():
        async with ReconstructionService(archive, _config(mode)) as svc:
            report = await run_loadgen(svc, names, load)
            return report, svc.stats()

    report, stats = asyncio.run(go())
    counters = stats["counters"]
    return {
        "report": report.to_dict(),
        "batches": counters.get("serve.batches", 0),
        "coalesced": counters.get("serve.coalesced", 0),
        "plan_cache_hits": counters.get("serve.plan_cache.hits", 0),
        "retries": counters.get("serve.retries", 0),
        "shed": counters.get("serve.shed", 0),
    }


def test_x12_serve_throughput(benchmark):
    benchmark(_run, "batched", min(100, REQUESTS))

    results = {mode: _run(mode) for mode in ("unbatched", "batched")}
    unb = results["unbatched"]["report"]
    bat = results["batched"]["report"]
    speedup = bat["throughput_rps"] / unb["throughput_rps"]

    rows = []
    for mode, res in results.items():
        rep = res["report"]
        lat = rep["latency"]
        rows.append(
            [
                mode,
                rep["completed"],
                f"{rep['throughput_rps']:.0f}",
                f"{lat.get('p50', 0) * 1e3:.1f}",
                f"{lat.get('p99', 0) * 1e3:.1f}",
                res["batches"],
                res["coalesced"],
            ]
        )
    table = format_table(
        [
            "mode",
            "completed",
            "req/s",
            "p50 ms",
            "p99 ms",
            "batches",
            "coalesced",
        ],
        rows,
    )
    write_result(
        "x12_serve_throughput",
        f"X12 - reconstruction serving, {REQUESTS} requests offered at "
        f"{RATE:.0f} req/s\n(4 hot objects, severity 12, seed 11; "
        f"batched = {WINDOW * 1e3:.0f}ms window)\n\n"
        + table
        + f"\n\nmicro-batched speedup: {speedup:.2f}x",
    )

    # Every offered request is accounted for in every campaign.
    for res in results.values():
        rep = res["report"]
        assert (
            rep["completed"] + rep["shed"] + rep["deadline_exceeded"]
            + rep["errors"]
            == REQUESTS
        )
        assert rep["errors"] == 0
    # The headline claim: batching multiplies throughput while cutting
    # the coordinated-omission-corrected tail.
    assert speedup >= 2.0
    assert bat["latency"]["p99"] <= unb["latency"]["p99"]
    assert results["batched"]["coalesced"] > 0
    assert results["batched"]["plan_cache_hits"] > 0
