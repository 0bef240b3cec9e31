"""Layer boundaries recorded from outside ``src/``.

The traced run sees the program through two instruments:

* the program's own ``repro.obs`` spans (``client.*``, ``cluster.rpc.*``,
  ``node.*``, ``cluster.repair.*``, ``profile.*``), switched on by the
  runner through the public ``repro.trace_capture``;
* the wrappers installed here around the public callables that mark a
  layer's edge and carry no span of their own.  A wrapper appends one
  ``(start, end, extra)`` tuple to an in-memory list and does nothing
  else, so the boundary costs two clock reads.

Wrappers exist only between :func:`installed`'s enter and exit; the
untraced rounds that produce the end-to-end numbers run the program
exactly as shipped.

Names the program imports with ``from x import f`` are bound in the
importing module, so the framing functions are wrapped where they are
*called* (client, coordinator, line server), which is also what tells the
hops apart.
"""

from __future__ import annotations

import asyncio
import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.cluster.coordinator as coordinator_mod
import repro.serve.client as client_mod
import repro.serve.lineserver as lineserver_mod
import repro.sim.montecarlo as montecarlo_mod
from repro import (
    BitsetBatchDecoder,
    ClusterCoordinator,
    SparseBitsetDecoder,
    StorageNode,
    TornadoCodec,
)
from repro.cluster import CoordinatorWal
from repro.serve.plancache import PlanCache
from repro.storage.blockstore import LocalBlockStore

Record = tuple[float, float, Any]


class Recorder:
    """In-memory store of wrapper records, one list per layer key."""

    def __init__(self) -> None:
        self.records: dict[str, list[Record]] = defaultdict(list)

    def intervals(self, *keys: str) -> list[tuple[float, float]]:
        return [
            (start, end) for key in keys
            for start, end, _ in self.records.get(key, ())
        ]


def _timed(fn: Callable, sink: list[Record], extra: Callable | None) -> Callable:
    """``fn`` with its call interval appended to ``sink``.

    ``extra(args, result)`` adds a count (bytes, cases) to the record.
    A coroutine function stays one: the interval spans the whole await.
    """
    if asyncio.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            result = await fn(*args, **kwargs)
            sink.append((start, perf_counter(), None))
            return result

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        sink.append(
            (start, perf_counter(), extra(args, result) if extra else None)
        )
        return result

    return wrapper


def _plan_lookup(fn: Callable, sink: list[Record], extra: None) -> Callable:
    """``PlanCache.schedule`` with hit/miss read off the cache's counter."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        hits = self.hits
        start = perf_counter()
        result = fn(self, *args, **kwargs)
        sink.append((start, perf_counter(), self.hits > hits))
        return result

    return wrapper


def _bytes_out(args, result) -> int:
    return len(result)


def _bytes_in(args, result) -> int:
    return len(args[0])


def _batch_cases(args, result) -> int:
    return int(args[2])  # packed_*_loss_masks(num_nodes, k, batch, rng)


def _decoded_cases(args, result) -> int:
    return int(result.shape[0])


def _payload_len(args, result) -> int:
    return len(args[1])  # TornadoCodec.encode_payload(self, payload)


def _result_nbytes(args, result) -> int:
    return int(result.nbytes)


# (owner, attribute, layer key, extra, wrapper factory)
_BOUNDARIES = [
    # serve.protocol framing, per call site (= per hop and direction)
    (client_mod, "encode_request", "protocol.encode", _bytes_out, _timed),
    (client_mod, "parse_response", "protocol.parse", _bytes_in, _timed),
    (coordinator_mod, "encode_request", "protocol.encode", _bytes_out, _timed),
    (coordinator_mod, "parse_response", "protocol.parse", _bytes_in, _timed),
    (lineserver_mod, "parse_request", "protocol.parse", _bytes_in, _timed),
    (lineserver_mod, "encode_frame", "protocol.encode", _bytes_out, _timed),
    # cluster
    (ClusterCoordinator, "put", "coordinator.put", None, _timed),
    (ClusterCoordinator, "get", "coordinator.get", None, _timed),
    (StorageNode, "handle", "node.handle", None, _timed),
    (LocalBlockStore, "put", "blockstore.put", None, _timed),
    (LocalBlockStore, "get", "blockstore.get", None, _timed),
    (CoordinatorWal, "append", "wal.append", None, _timed),
    # core.codec and the plan cache
    (TornadoCodec, "encode_payload", "codec.encode", _payload_len, _timed),
    (TornadoCodec, "encode_blocks", "codec.encode_blocks", None, _timed),
    (TornadoCodec, "decode_blocks_with_schedule", "codec.replay",
     _result_nbytes, _timed),
    (PlanCache, "schedule", "plancache.schedule", None, _plan_lookup),
    # Monte Carlo sweep
    (montecarlo_mod, "packed_random_loss_masks", "maskgen", _batch_cases,
     _timed),
    (montecarlo_mod, "packed_sparse_loss_masks", "maskgen", _batch_cases,
     _timed),
    (BitsetBatchDecoder, "decode_packed", "kernel", _decoded_cases, _timed),
    (SparseBitsetDecoder, "decode_packed", "kernel", _decoded_cases, _timed),
    (montecarlo_mod, "minimal_bad_stopping_sets", "exact", None, _timed),
    (montecarlo_mod, "count_failing_sets", "exact", None, _timed),
    (montecarlo_mod, "make_batch_decoder", "decoder.build", None, _timed),
]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer boundary for the duration of the block."""
    originals = [
        (owner, name, owner.__dict__[name]) for owner, name, *_ in _BOUNDARIES
    ]
    try:
        for owner, name, key, extra, wrap in _BOUNDARIES:
            original = owner.__dict__[name]
            setattr(owner, name, wrap(original, recorder.records[key], extra))
        yield recorder
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
