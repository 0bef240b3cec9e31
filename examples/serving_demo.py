#!/usr/bin/env python3
"""Serving reconstructions under load (docs/SERVE.md).

An archival store is not just a decoder — it answers retrieval traffic.
This demo runs the asyncio reconstruction service against a seeded,
damaged archive and walks its operational behaviours:

1. micro-batching: concurrent requests for hot objects coalesce into
   shared decodes with cached peeling plans;
2. backpressure: a tiny admission queue sheds a burst *visibly*
   (``ServiceOverloadedError``), never silently.

Run:  python examples/serving_demo.py
"""

import asyncio

from repro.serve import (
    ReconstructionService,
    ServeConfig,
    ServiceOverloadedError,
    seeded_archive,
)

archive, names = seeded_archive(objects=4, severity=4, seed=7)
print(
    f"seeded archive: {len(names)} objects on {archive.graph.name}, "
    f"4 devices failed\n"
)


async def batching_demo() -> None:
    print("-- micro-batching: 32 concurrent requests, 4 hot objects")
    config = ServeConfig(batch_window=0.005, max_batch=64)
    async with ReconstructionService(archive, config) as service:
        payloads = await asyncio.gather(
            *(service.submit(names[i % len(names)]) for i in range(32))
        )
        counters = service.stats()["counters"]
        intact = sum(
            data == archive.get(names[i % len(names)])
            for i, data in enumerate(payloads)
        )
        print(f"   {intact}/{len(payloads)} requests served intact")
        print(
            f"   batches {counters['serve.batches']}, "
            f"coalesced {counters.get('serve.coalesced', 0)}, "
            f"plan-cache hits {counters.get('serve.plan_cache.hits', 0)}"
        )


async def backpressure_demo() -> None:
    print("\n-- backpressure: queue_limit=4 under a burst of 16")
    config = ServeConfig(batch_window=0.005, queue_limit=4)
    async with ReconstructionService(archive, config) as service:
        admitted, shed = [], 0
        for i in range(16):
            try:
                admitted.append(service.try_submit(names[i % len(names)]))
            except ServiceOverloadedError:
                shed += 1
        await asyncio.gather(*admitted)
        print(
            f"   admitted {len(admitted)}, shed {shed} "
            "(every shed is an explicit error + counter, not a drop)"
        )


async def main() -> None:
    await batching_demo()
    await backpressure_demo()


if __name__ == "__main__":
    asyncio.run(main())
