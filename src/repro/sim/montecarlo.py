"""Monte Carlo failure-fraction estimation (paper §3 test suite).

The paper's second test suite samples random loss patterns for each
offline-device count — 962,144,153 cases and 34 CPU-days per graph.
This module reproduces the estimator with two scaling levers:

* the **vectorised batch decoder** pushes thousands of cases through
  each decode round, peeling 64 cases per ``uint64`` word — the bitset
  kernel (:mod:`repro.core.bitdecoder`) or, from 2^14 nodes up, the
  sparse one (:mod:`repro.core.sparse`), picked from the graph's size
  by :func:`~repro.core.decoder.make_batch_decoder`; both produce
  byte-identical profiles, and
* sweeps across offline counts fan out over a **process pool**, one
  task per k cell, seeded deterministically through
  ``numpy.random.SeedSequence.spawn`` so results are reproducible at any
  worker count.  Every cell — in-process or pooled — runs through one
  function, :func:`_sweep_cells`, which fuses the mask batches of
  consecutive small cells into kernel calls of the kernel's fused
  width; each pool worker receives the graph once, through the pool
  initializer, builds its kernel there, and runs one cell per task.

For the small-``k`` head where failure probabilities sit near 1e-7,
sampling is hopeless at laptop budgets; :func:`profile_graph` splices in
exact probabilities from the critical-set inclusion–exclusion counts
instead (strictly better than the paper's sampling there).  At the
other end, with more than ``num_nodes - num_data`` nodes offline fewer
blocks survive than the data holds, so every case fails whatever the
graph: those cells are written as exactly 1 and never sampled (the
paper's battery likewise stops at ``num_devices / 2``).

Crash tolerance (``docs/RESILIENCE.md``): a multi-hour sweep survives
worker crashes and hangs instead of dying with nothing saved.  Each
completed k-cell can be appended to a JSONL **checkpoint** file;
``resume=True`` restarts only the unfinished cells (producing a result
byte-identical to an uninterrupted run at the same seed, because cell
seeds are spawned positionally over the full k-grid).  A crashed pool
worker, or a cell past ``cell_timeout``, stops the pool, and the cells
it did not finish run in-process on the same seeds: one failure path,
and the same bytes as an uninterrupted sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    TimeoutError as CellTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from math import comb
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .._checks import check_count, check_seconds
from ..core import lossmasks
from ..core.critical import (
    CountBudgetExceeded,
    count_failing_sets,
    minimal_bad_stopping_sets,
)
from ..core.bitdecoder import packed_random_loss_masks
from ..core.decoder import make_batch_decoder
from ..core.lossmasks import boolean_loss_masks
from ..core.plancache import graph_key
from ..core.sparse import packed_sparse_loss_masks
from ..obs.registry import MetricsRegistry, capture, registry
from ..obs.seeding import SeedLike, resolve_rng, spawn_seeds
from ..obs.trace import Tracer, context_seed, start_span, tracer
from .results import FailureProfile

__all__ = [
    "sample_fail_fraction",
    "profile_graph",
    "DEFAULT_SAMPLES_PER_K",
    "DEFAULT_EXACT_UPTO",
]

DEFAULT_SAMPLES_PER_K = 20_000
DEFAULT_EXACT_UPTO = 6

# Cases per generator call and decode under the dense leaf rule.  Its
# draws are row-major, so the batch changes no bit: 16 384 makes a
# 16 384-sample cell one generator call and one decode.
_DENSE_BATCH = 16_384

# Cap on the bounded rule's batch.  Each bounded call draws its own
# hypergeometric leaf counts first, so the batch is part of that
# stream: it stays 8 192.
_MAX_BATCH = 8_192

# Largest graph sampled under the dense leaf rule (one (batch, N) score
# matrix).  Up to here the RNG stream — and therefore every existing
# profile and checkpoint — is the historical one; above it masks follow
# the bounded leaf rule (hypergeometric leaf counts) with a
# size-adaptive batch.  See repro.core.lossmasks.
_DENSE_MASK_MAX_NODES = 1 << 13


def _mask_batch(num_nodes: int) -> int:
    """Per-decode batch size: 16 384 up to 2^13 nodes, at most 8 192
    above, shrinking with the graph.

    The bounded cap keeps the packed case matrix — ``num_nodes * batch
    / 8`` bytes, the one mask-generation allocation that scales with
    batch times nodes — at or under 128 MiB at any graph size (the dense
    one is at most 16 MiB); always a multiple of 64 so packed words
    have no dead pad lanes mid-run.
    """
    if num_nodes <= _DENSE_MASK_MAX_NODES:
        return _DENSE_BATCH
    return max(64, min(_MAX_BATCH, ((1 << 30) // num_nodes) & ~63))


def _packed_masks(
    num_nodes: int, k: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Packed exactly-k loss masks via the size-appropriate generator."""
    if num_nodes <= _DENSE_MASK_MAX_NODES:
        return packed_random_loss_masks(num_nodes, k, batch, rng)
    return packed_sparse_loss_masks(num_nodes, k, batch, rng)


def sample_fail_fraction(
    graph,
    k: int,
    n_samples: int,
    rng: SeedLike = None,
    decoder=None,
    engine: str = "auto",
) -> float:
    """Estimate P(fail | k offline) from ``n_samples`` random loss sets.

    ``rng`` follows the unified seeding convention: an int seed, an
    existing :class:`numpy.random.Generator`, or ``None`` for fresh
    entropy (see :func:`repro.obs.seeding.resolve_rng`).  When no
    ``decoder`` is supplied the kernel comes from
    :func:`repro.core.decoder.make_batch_decoder` (``engine`` pins one
    for the differential tests); both kernels consume the same RNG
    stream, so estimates are identical at the same seed.  They decode
    packed masks directly, skipping the ``(batch, num_nodes)`` boolean
    intermediate; a supplied ``decoder`` offering only ``decode_batch``
    (a scalar reference, say) is fed the same masks unpacked.  Above
    ``_DENSE_MASK_MAX_NODES`` nodes masks come from the bounded-memory
    sparse generator with a size-adaptive batch.  A packed estimate is
    a one-cell :func:`_sweep_cells` call, so a cell of several small
    batches is decoded in as few kernel calls as a sweep would use.  To
    spread estimates over processes, sweep cells with
    :func:`profile_graph`.  ``k`` and ``n_samples`` must be integers
    (``TypeError`` otherwise, bool included, before anything is drawn).
    """
    k = check_count(k, "k")
    n_samples = check_count(n_samples, "n_samples", 1)
    if k == 0:
        return 0.0
    if k > graph.num_nodes:
        raise ValueError(f"k={k} exceeds {graph.num_nodes} nodes")
    rng = resolve_rng(rng)
    if decoder is None:
        decoder = make_batch_decoder(graph, engine=engine)
    if hasattr(decoder, "decode_packed"):
        ((_, frac, _, _, _),) = _sweep_cells(
            graph, decoder, [(k, n_samples, rng, False, None)]
        )
        return frac
    max_batch = _mask_batch(graph.num_nodes)
    failures = 0
    for start in range(0, n_samples, max_batch):
        batch = min(max_batch, n_samples - start)
        masks = boolean_loss_masks(graph.num_nodes, k, batch, rng)
        failures += int(batch - decoder.decode_batch(masks).sum())
    return failures / n_samples


# ----------------------------------------------------------------------
# Sweep cells: one runner, in-process or on the pool
# ----------------------------------------------------------------------


class _Cell:
    """One sampled k-cell in flight: its stream, its span, its tally."""

    def __init__(self, task: tuple):
        self.k, self.n_samples, seed_seq, _, ctx = task
        self.tracer = None
        self.span = None
        if ctx is not None:
            self.tracer = Tracer(
                seed=context_seed(ctx, "profile.cell", self.k)
            )
            self.span = self.tracer.start_span(
                "profile.cell",
                parent=ctx,
                activate=False,
                k=self.k,
                samples=self.n_samples,
            )
        # The spawned SeedSequence is passed whole (it pickles fine):
        # reconstructing from `.entropy` alone would drop the spawn_key
        # and hand every cell the same stream.
        self.rng = np.random.default_rng(seed_seq)
        self.decoded = 0
        self.failures = 0
        self.seconds = 0.0

    def result(self, snapshot: dict | None) -> tuple:
        frac = self.failures / self.n_samples
        if self.span is not None:
            self.span.end(frac=frac)
        spans = self.tracer.export() if self.tracer is not None else []
        return self.k, frac, self.seconds, snapshot, spans


def _side_by_side(pieces: list, num_nodes: int, lanes: int) -> np.ndarray:
    """The pieces' cases in one packed ``(N, ceil(lanes / 64))`` matrix,
    lane after lane with no pad lane between pieces, so that
    ``decode_packed(words, lanes)`` counts exactly their cases.  A
    piece's own pad lanes are zero (:func:`_packed_masks` layout)."""
    if len(pieces) == 1:
        return pieces[0][2]
    words = np.zeros((num_nodes, -(-lanes // 64)), dtype=np.uint64)
    lane = 0
    for _, batch, packed in pieces:
        q, s = divmod(lane, 64)
        width = packed.shape[1]
        words[:, q:q + width] |= packed << np.uint64(s)
        if s:
            spill = min(width, words.shape[1] - q - 1)
            words[:, q + 1:q + 1 + spill] |= (
                packed[:, :spill] >> np.uint64(64 - s)
            )
        lane += batch
    return words


def _sweep_cells(graph, decoder, tasks: Sequence[tuple]):
    """Run sampled k-cells of a profile sweep — the only cell runner.

    Each task is ``(k, n_samples, seed_seq, collect_metrics, ctx)``,
    ``seed_seq`` the cell's spawned ``SeedSequence`` (or, from
    :func:`sample_fail_fraction`, the caller's ``Generator``).
    :func:`profile_graph` passes every pending cell in-process, with
    the decoder it built; a pool worker passes one, through
    :func:`_pool_cell`, with the decoder its initializer built.

    The unit of decode work is a *piece*: one mask batch of one cell,
    drawn in order from that cell's own stream.  Pieces join a group
    until it holds the kernel's ``_fused_words`` node-words (for the
    sparse kernel ``_cpu_count() * _range_floor``, the width at which
    ``decode_packed`` gives every CPU a range of at least the floor) —
    and the group is decoded in one call, each piece
    charged the failures of its own lanes.  Cases never read each
    other's bits, so a cell's estimate is the same whatever it shares a
    call with; a cell wider than the target fills groups by itself.

    Each cell's span comes from a tracer seeded by the sweep context
    ``ctx`` and ``k``, so span IDs are the same wherever, in whatever
    order and in whatever company cells run.  With ``collect_metrics``
    the decoder's counters land in a fresh registry whose snapshot
    rides on the call's last cell, for the parent to merge (a pool
    worker's registry is not the parent's).

    Yields ``(k, frac, seconds, snapshot, spans)`` per cell, in task
    order, once its last piece is decoded; ``seconds`` is the cell's
    own generation time plus its case share of each decode it joined.
    """
    n = graph.num_nodes
    max_batch = _mask_batch(n)
    target = decoder._fused_words or (
        lossmasks._cpu_count() * decoder._range_floor
    )
    reg = MetricsRegistry() if any(task[3] for task in tasks) else None
    final = None
    group: list[tuple[_Cell, int, np.ndarray]] = []
    lanes = 0

    def decode() -> list[tuple]:
        t0 = time.perf_counter()
        with capture(reg) if reg is not None else nullcontext():
            ok = decoder.decode_packed(_side_by_side(group, n, lanes), lanes)
        share = (time.perf_counter() - t0) / lanes
        done = []
        lane = 0
        for cell, batch, _ in group:
            cell.failures += int(batch - ok[lane:lane + batch].sum())
            cell.seconds += share * batch
            cell.decoded += batch
            lane += batch
            if cell.decoded == cell.n_samples:
                last = reg is not None and cell is final
                done.append(cell.result(reg.snapshot() if last else None))
        return done

    for i, task in enumerate(tasks):
        cell = _Cell(task)
        if i == len(tasks) - 1:
            final = cell
        for start in range(0, cell.n_samples, max_batch):
            batch = min(max_batch, cell.n_samples - start)
            t0 = time.perf_counter()
            packed = _packed_masks(n, cell.k, batch, cell.rng)
            cell.seconds += time.perf_counter() - t0
            group.append((cell, batch, packed))
            lanes += batch
            if n * -(-lanes // 64) >= target:
                yield from decode()
                group, lanes = [], 0
    if group:
        yield from decode()


# A pool worker's (graph, decoder), set once per process by
# `_init_worker`: every cell the worker runs reuses both.
_WORKER: tuple = ()


def _init_worker(graph, engine: str) -> None:
    """Pool initializer: adopt the sweep's graph, build its kernel once.

    The graph arrives as an initializer argument — inherited without
    pickling under the fork start method, pickled once per worker under
    spawn — so task tuples never carry it.
    """
    global _WORKER
    _WORKER = (graph, make_batch_decoder(graph, engine=engine))


def _pool_cell(task: tuple):
    """Pool entry point: the fault drills, then :func:`_sweep_cells`
    on the one cell.

    The drills live here, not in :func:`_sweep_cells`, so a cell run
    in-process can never ``os._exit`` its caller.
    """
    _fault_drill(task[0])
    (result,) = _sweep_cells(*_WORKER, [task])
    return result


def _fault_drill(k: int) -> None:
    """Deliberate worker-fault hooks for the resilience test-suite.

    ``REPRO_FAULT_CRASH_K=<k>`` makes the worker for that cell die
    abruptly (simulating an OOM-killed or segfaulted process);
    ``REPRO_FAULT_HANG_K=<k>`` makes it sleep
    ``REPRO_FAULT_HANG_SECS`` (default 30) seconds, simulating a hung
    worker.  Both are inert unless the variables are set.
    """
    crash = os.environ.get("REPRO_FAULT_CRASH_K")
    if crash is not None and int(crash) == k:
        os._exit(3)
    hang = os.environ.get("REPRO_FAULT_HANG_K")
    if hang is not None and int(hang) == k:
        time.sleep(float(os.environ.get("REPRO_FAULT_HANG_SECS", "30")))


# ----------------------------------------------------------------------
# Sweep checkpoints (crash-tolerant resumable sweeps)
# ----------------------------------------------------------------------


def _graph_digest(graph) -> str:
    """:func:`~repro.core.plancache.graph_key` of ``graph``; for a
    :class:`~repro.core.csrgraph.CsrGraph`, the same truncated SHA-256
    over its three arrays."""
    if hasattr(graph, "constraints"):
        return graph_key(graph)
    digest = hashlib.sha256()
    for arr in (graph.con_nodes, graph.con_indptr, graph.data_nodes):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def _sampling_grid(
    ks: Sequence[int] | None, exact_upto: int, num_nodes: int
) -> list[int]:
    """The sampled k's in seed order: the requested ``ks`` (all by
    default) between the exact head and ``num_nodes``.  Cell seeds are
    spawned positionally over this list."""
    return [
        k
        for k in (ks if ks is not None else range(exact_upto + 1, num_nodes))
        if exact_upto < k < num_nodes
    ]


def _checkpoint_header(
    graph,
    samples_per_k: int,
    exact_upto: int,
    seed: SeedLike,
    ks: Sequence[int] | None,
) -> dict[str, Any]:
    seed_fp = int(seed) if isinstance(seed, (int, np.integer)) else None
    return {
        "record": "header",
        "graph": graph.name,
        "num_nodes": graph.num_nodes,
        "samples_per_k": samples_per_k,
        "exact_upto": exact_upto,
        "seed": seed_fp,
        # Same-named graphs can differ in structure, and cell seeds are
        # positional over the requested grid, so both are checked too.
        "graph_key": _graph_digest(graph),
        "ks": None if ks is None else [int(k) for k in ks],
    }


def _read_checkpoint(
    path: Path, header: dict[str, Any], grid: list[int]
) -> dict[int, float]:
    """Completed cells from a checkpoint, validated against ``header``.

    Tolerates a truncated final line (the run died mid-write).  Raises
    ``ValueError`` if the file belongs to a different sweep — resuming
    someone else's cells would silently corrupt the profile.  A key
    either header lacks (an older file's, say) or leaves ``None`` is
    not compared.  The two sampling grids must agree wherever both
    have a cell (one a prefix of the other): that is what puts every
    reused cell on the seed it was drawn with.
    """
    done: dict[int, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from the interrupted run
            if record.get("record") == "header":
                for key, ours in header.items():
                    theirs = record.get(key)
                    if key == "ks":
                        if key not in record:
                            continue
                        their_grid = _sampling_grid(
                            theirs, header["exact_upto"], header["num_nodes"]
                        )
                        common = min(len(grid), len(their_grid))
                        if their_grid[:common] == grid[:common]:
                            continue
                    elif ours is None or theirs is None or ours == theirs:
                        continue
                    raise ValueError(
                        f"checkpoint {path} is from a different sweep: "
                        f"{key}={theirs!r}, expected {ours!r}"
                    )
            elif record.get("record") == "cell":
                done[int(record["k"])] = float(record["frac"])
    return done


class _CheckpointWriter:
    """Append-per-cell JSONL writer; flushes every line."""

    def __init__(self, path: Path, header: dict[str, Any], fresh: bool):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w" if fresh else "a", encoding="utf-8")
        if fresh or path.stat().st_size == 0:
            self._emit(header)

    def _emit(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def cell(self, k: int, frac: float, samples: int) -> None:
        self._emit(
            {"record": "cell", "k": k, "frac": frac, "samples": samples}
        )

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# Fault-tolerant parallel execution
# ----------------------------------------------------------------------


def _run_cells_parallel(
    graph,
    engine: str,
    tasks: list[tuple],
    n_jobs: int,
    cell_timeout: float | None,
    on_result,
) -> list[tuple]:
    """Run cells over a process pool; return the ones it did not finish.

    Each worker gets ``graph`` once, through the pool initializer
    (:func:`_init_worker`), and builds its ``engine`` kernel there;
    tasks are the bare :func:`_sweep_cells` tuples, one cell each.

    Results are collected in task order, each within ``cell_timeout``.
    The first crashed worker (``BrokenProcessPool``) or overdue cell
    stops the pool without waiting for it (an overdue cell's workers
    are killed): every cell the pool had finished is kept, and the rest
    are returned, for the caller to run in-process on the same seeds.
    Any other exception is the cell's own, and propagates.
    """
    reg = registry()
    workers = min(n_jobs, os.cpu_count() or 1, len(tasks))
    reg.gauge("profile.workers").set(workers)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(graph, engine),
    )
    futures = [(pool.submit(_pool_cell, task), task) for task in tasks]
    unfinished: list[tuple] = []
    try:
        for future, task in futures:
            try:
                # Once the pool is stopped, only a finished cell counts.
                result = future.result(0 if unfinished else cell_timeout)
            except (CellTimeout, CancelledError, BrokenProcessPool) as exc:
                if not unfinished:
                    if isinstance(exc, BrokenProcessPool):
                        reg.counter("profile.worker_crashes").inc()
                        reg.event("profile.worker_crash", k=task[0])
                    else:
                        reg.counter("profile.cell_timeouts").inc()
                        reg.event("profile.cell_timeout", k=task[0])
                        # A hung worker would run on and hold up exit
                        # (a broken pool has already ended its workers).
                        # ``_processes`` is private: read on CPython 3.11,
                        # and CI's hang tests run it on 3.10 and 3.12.
                        for worker in list(pool._processes.values()):
                            worker.kill()
                    pool.shutdown(wait=False, cancel_futures=True)
                unfinished.append(task)
            else:
                on_result(result)
    finally:
        pool.shutdown(wait=not unfinished, cancel_futures=True)
    return unfinished


def profile_graph(
    graph,
    *,
    samples_per_k: int = DEFAULT_SAMPLES_PER_K,
    exact_upto: int = DEFAULT_EXACT_UPTO,
    ks: Sequence[int] | None = None,
    seed: SeedLike = 0,
    n_jobs: int = 1,
    cell_timeout: float | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    engine: str = "auto",
) -> FailureProfile:
    """Full failure profile of a graph (the paper's per-graph curve).

    Exact inclusion–exclusion probabilities cover ``k <= exact_upto``
    and ``k > num_nodes - num_data`` is exactly 1 (fewer survivors than
    data blocks); Monte Carlo covers the cells between (or the explicit
    ``ks`` subset, other entries filled by monotone interpolation
    between the requested ones).  Exact cells keep ``samples[k] == 0``.
    ``ks`` entries must be distinct integers in ``[0, num_nodes]``,
    ``samples_per_k`` at least 1, ``exact_upto`` non-negative,
    ``n_jobs`` at least 1 and ``cell_timeout`` positive.  A count that
    is not an integer (a bool or a float included) is a ``TypeError``,
    a value out of range a ``ValueError``; all are checked before any
    seed is spawned or checkpoint opened.
    ``n_jobs > 1`` distributes k-cells over processes.  ``seed``
    accepts an int or an existing :class:`numpy.random.Generator`
    (unified seeding convention).

    Crash tolerance:

    * ``checkpoint=`` appends each completed k-cell to a JSONL file as
      it lands, so an interrupted sweep keeps its work;
    * ``resume=True`` (re-)reads that file and reruns only unfinished
      cells — byte-identical to an uninterrupted run at the same seed;
    * with ``n_jobs > 1``, a crashed worker, or a cell still running
      ``cell_timeout=`` seconds after its turn came, stops the pool;
      the cells it did not finish run in-process on their own seeds,
      so the call returns the same bytes as an uninterrupted sweep.
      ``cell_timeout`` bounds nothing in-process: a crash or hang that
      comes from the cell itself recurs in the caller's process (an
      exception raises, an abort ends it, a hang hangs it), and the
      checkpoint keeps every finished cell for ``resume``.

    Metrics: per-cell timings, sample counts, and worker fan-out are
    recorded in the parent's registry regardless of ``n_jobs``; pool
    workers snapshot their ``decoder.*`` counters per cell and the
    parent merges them back.

    The batch decode kernel is the one
    :func:`repro.core.decoder.make_batch_decoder` builds for ``graph``
    (bitset, or sparse from the size cutoff up; ``engine`` pins one for
    the differential tests).  Both draw the same RNG stream, so profiles
    — and checkpoints — are byte-identical whichever ran; the built
    decoder's ``engine`` is recorded on the ``profile.sweep`` span and
    in the ``profile.done`` event.

    ``graph`` may also be a :class:`~repro.core.csrgraph.CsrGraph`
    (always the sparse kernel).  CSR graphs skip the exact
    inclusion–exclusion stage — enumerating minimal stopping sets needs
    the constraint-object view — and sample every requested cell
    instead.

    Every sampled cell runs through :func:`_sweep_cells`: in-process,
    all pending cells in one call on the decoder built here, their
    small mask batches fused into wide kernel calls; or with
    ``n_jobs > 1`` one cell per task on a pool
    whose workers each receive the graph once, through the pool
    initializer (task tuples carry no graph and no decoder), with any
    cells a stopped pool left unfinished run in-process after it.
    """
    samples_per_k = check_count(samples_per_k, "samples_per_k", 1)
    exact_upto = check_count(exact_upto, "exact_upto")
    n_jobs = check_count(n_jobs, "n_jobs", 1)
    check_seconds(cell_timeout, "cell_timeout")
    if ks is not None:
        ks = [check_count(k, "k") for k in ks]
        # Cell seeds are positional over `ks`: a repeated k would shift
        # every later cell's seed, and a k off the curve would be
        # dropped unreported.
        if len(set(ks)) < len(ks):
            raise ValueError(f"ks repeats a k: {list(ks)}")
        outside = [k for k in ks if not 0 <= k <= graph.num_nodes]
        if outside:
            raise ValueError(
                f"ks {outside} outside [0, {graph.num_nodes}]"
            )
    reg = registry()
    t_start = time.perf_counter() if reg.enabled else 0.0
    decoder = make_batch_decoder(graph, engine=engine)
    engine = decoder.engine
    n = graph.num_nodes
    fail = np.zeros(n + 1, dtype=float)
    samples = np.zeros(n + 1, dtype=np.int64)

    exact_upto = min(exact_upto, n)
    if not hasattr(graph, "constraints"):
        # CsrGraph: no constraint-object view for the stopping-set
        # enumeration; Monte Carlo covers the whole grid (k=0 stays
        # exactly 0 — no loss cannot fail).
        exact_upto = 0
    else:
        with reg.timer("profile.exact_seconds"):
            minimal = minimal_bad_stopping_sets(
                graph, max_size=exact_upto
            )
            for k in range(exact_upto + 1):
                try:
                    fail[k] = (
                        count_failing_sets(n, k, minimal) / comb(n, k)
                    )
                except CountBudgetExceeded:
                    # Pathological critical-set family: sample this k
                    # instead.
                    exact_upto = k - 1
                    break

    grid = _sampling_grid(ks, exact_upto, n)
    # Seeds are spawned positionally over the FULL k-grid before the
    # certain cells and any resumed ones are filtered out, so every
    # sampled cell sees the same stream at any grid cut.
    children = spawn_seeds(seed, len(grid))
    # Counting bound: with more than n - num_data nodes offline, fewer
    # blocks survive than there are data blocks, and no decoder of any
    # linear code can return the data.  Those cells are exactly 1:
    # pinned, never sampled, their samples left at 0 like the exact
    # head's.
    max_decodable = n - graph.num_data
    fail[max_decodable + 1:] = 1.0
    certain = [k for k in grid if k > max_decodable]
    cell_seeds = {
        k: child for k, child in zip(grid, children) if k <= max_decodable
    }

    done: dict[int, float] = {}
    writer: _CheckpointWriter | None = None
    if checkpoint is not None:
        header = _checkpoint_header(
            graph, samples_per_k, exact_upto, seed, ks
        )
        ckpt_path = Path(checkpoint)
        resuming = resume and ckpt_path.exists()
        if resuming:
            done = _read_checkpoint(ckpt_path, header, grid)
        writer = _CheckpointWriter(ckpt_path, header, fresh=not resuming)

    for k, frac in done.items():
        if k in cell_seeds:
            fail[k] = frac
            samples[k] = samples_per_k
    if done:
        reg.counter("profile.cells_resumed").inc(
            sum(1 for k in done if k in cell_seeds)
        )

    # Sweep-level span: cells (local or pool-side) parent under it, so
    # a traced sweep reassembles into one tree per profile_graph call.
    sweep_span = start_span(
        "profile.sweep",
        graph=graph.name,
        engine=engine,
        cells=len(cell_seeds),
        samples_per_k=samples_per_k,
    )
    sweep_ctx = sweep_span.context()

    pending = [k for k in cell_seeds if k not in done]
    pooled = n_jobs > 1 and len(pending) > 1
    # Only a pool worker's decoder counters need shipping back; an
    # in-process cell records straight into this registry.
    collect_metrics = pooled and bool(reg.enabled)
    tasks = [
        (k, samples_per_k, cell_seeds[k], collect_metrics, sweep_ctx)
        for k in pending
    ]

    def on_result(result) -> None:
        k, frac, cell_seconds, snapshot, spans = result
        fail[k] = frac
        samples[k] = samples_per_k
        if writer is not None:
            writer.cell(k, frac, samples_per_k)
        if reg.enabled:
            reg.histogram("profile.cell_seconds").observe(cell_seconds)
            reg.event(
                "profile.cell",
                graph=graph.name,
                k=k,
                samples=samples_per_k,
                seconds=cell_seconds,
                samples_per_sec=(
                    samples_per_k / cell_seconds if cell_seconds > 0
                    else None
                ),
            )
            if snapshot is not None:
                reg.merge_snapshot(snapshot)
        if spans:
            active = tracer()
            if active is not None:
                active.ingest(spans)

    try:
        if pooled:
            tasks = _run_cells_parallel(
                graph, engine, tasks, n_jobs, cell_timeout, on_result
            )
        else:
            reg.gauge("profile.workers").set(1)
        # In-process: every cell, or those a stopped pool left unfinished.
        for result in _sweep_cells(graph, decoder, tasks):
            on_result(result)
    finally:
        sweep_span.end()
        if writer is not None:
            writer.close()

    # Fill the cells a sparse k-grid leaves out by monotone
    # interpolation so profile metrics stay meaningful.
    if ks is not None:
        known = np.flatnonzero((samples > 0) | (np.arange(n + 1) <= exact_upto))
        known = np.union1d(known, certain + [n])
        fail = np.interp(np.arange(n + 1), known, fail[known])

    reg.counter("profile.graphs").inc()
    reg.counter("profile.samples").inc(int(samples.sum()))
    if reg.enabled:
        total = time.perf_counter() - t_start
        reg.histogram("profile.graph_seconds").observe(total)
        reg.event(
            "profile.done",
            graph=graph.name,
            engine=engine,
            cells=len(pending),
            samples=int(samples.sum()),
            seconds=total,
        )
    return FailureProfile(
        system_name=graph.name,
        num_devices=n,
        num_data=graph.num_data,
        fail_fraction=np.clip(fail, 0.0, 1.0),
        samples=samples,
    )
