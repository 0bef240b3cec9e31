"""Decode work executed in pool workers (must stay import-safe).

The service ships each batch to a worker as one plain-dict payload —
constraint membership, the precomputed peeling schedules, and raw block
bytes — so the worker needs *no* live objects from the parent: it
reconstructs NumPy views, replays the XOR schedules, and returns the
decoded payloads together with a metrics snapshot the parent merges
back (same convention as ``profile_graph``'s pool workers).

Keeping the functions at module top level makes them picklable for
``ProcessPoolExecutor`` under every start method; keeping them free of
service state means the inline (``workers=0``) path can call them
directly for deterministic tests.

Trace propagation: the payload optionally carries a ``trace`` context
(``{"trace_id", "span_id"}``) serialised by the service.  The worker
rehydrates it into a local, deterministically seeded
:class:`~repro.obs.trace.Tracer` (IDs derive from the parent context,
not from ``uuid`` or the pid), wraps the decode in a child span, and
ships the finished span records back in the result for the parent
tracer to ingest — so a slow decode in a pool worker still appears in
the request's span tree.

:func:`crash` is the fault-injection hook: submitting it hard-kills the
worker process, which surfaces in the parent as ``BrokenProcessPool``
— exactly the failure the service's pool-rebuild path must absorb.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..core.codec import replay_steps
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer, context_seed

__all__ = ["crash", "decode_jobs"]


def decode_jobs(payload: dict[str, Any]) -> dict[str, Any]:
    """Decode every object job in a batch payload.

    ``payload`` carries the graph's constraint ``members`` (list of
    member tuples), ``data_nodes``, ``num_nodes``, ``block_size``, and
    ``jobs`` — one entry per distinct object, each a list of stripe
    dicts with raw ``blocks`` bytes, a ``present`` byte mask, the
    peeling ``steps`` schedule, and the stripe's payload ``length``.
    An optional ``trace`` context links the work into the dispatching
    request's trace (see module docstring).

    Returns ``{"payloads": [bytes, ...], "metrics": snapshot,
    "spans": [record, ...]}`` with payloads aligned to ``jobs``.
    """
    members = payload["members"]
    data_nodes = list(payload["data_nodes"])
    num_nodes = int(payload["num_nodes"])
    block_size = int(payload["block_size"])
    metrics = MetricsRegistry()
    stripes_decoded = metrics.counter("serve.worker.stripes_decoded")
    xor_steps = metrics.counter("serve.worker.xor_steps")

    ctx = payload.get("trace")
    tracer = None
    span = None
    if ctx is not None:
        tracer = Tracer(seed=context_seed(ctx, "serve.worker"))
        span = tracer.start_span(
            "serve.worker.decode",
            parent=ctx,
            activate=False,
            objects=len(payload["jobs"]),
        )

    payloads: list[bytes] = []
    for job in payload["jobs"]:
        parts: list[bytes] = []
        for stripe in job:
            work = (
                np.frombuffer(stripe["blocks"], dtype=np.uint8)
                .reshape(num_nodes, block_size)
                .copy()
            )
            present = np.frombuffer(stripe["present"], dtype=bool)
            work[~present] = 0
            replay_steps(work, members, stripe["steps"])
            xor_steps.inc(len(stripe["steps"]))
            data = work[data_nodes]
            parts.append(data.tobytes()[: stripe["length"]])
            stripes_decoded.inc()
        payloads.append(b"".join(parts))
    if span is not None:
        span.end(stripes=stripes_decoded.value)
    return {
        "payloads": payloads,
        "metrics": metrics.snapshot(),
        "spans": tracer.export() if tracer is not None else [],
    }


def crash(_ignored: Any = None) -> None:  # pragma: no cover - kills itself
    """Hard-kill the current worker process (fault-injection drill)."""
    os._exit(1)
