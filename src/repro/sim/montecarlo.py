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
  function, :func:`_sweep_cell`; each pool worker receives the graph
  once, through the pool initializer, and builds its kernel there.

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
seeds are spawned positionally over the full k-grid).  ``cell_timeout``
bounds how long one cell may run, ``max_retries`` bounds re-dispatch
after a crash or timeout, and cells that still fail are *excluded* from
the profile via its explicit coverage mask rather than killing the
sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as CellTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from math import comb
from pathlib import Path
from typing import Any, Sequence

import numpy as np

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
_MAX_BATCH = 8_192

# Largest graph sampled under the dense leaf rule (one (batch, N) score
# matrix) at the full `_MAX_BATCH`.  Up to here the RNG stream — and
# therefore every existing profile and checkpoint — is the historical
# one; above it masks follow the bounded leaf rule (hypergeometric leaf
# counts) with a size-adaptive batch.  See repro.core.lossmasks.
_DENSE_MASK_MAX_NODES = 1 << 13


def _mask_batch(num_nodes: int) -> int:
    """Per-decode batch size: 8192 up to 2^13 nodes, shrinking above.

    The cap keeps the packed case matrix — ``num_nodes * batch / 8``
    bytes, the one mask-generation allocation that scales with batch
    times nodes — at or under 128 MiB at any graph size; always a
    multiple of 64 so packed words have no dead pad lanes mid-run.
    """
    if num_nodes <= _DENSE_MASK_MAX_NODES:
        return _MAX_BATCH
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
    sparse generator with a size-adaptive batch.  To spread estimates
    over processes, sweep cells with :func:`profile_graph`.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if k == 0:
        return 0.0
    if k > graph.num_nodes:
        raise ValueError(f"k={k} exceeds {graph.num_nodes} nodes")
    rng = resolve_rng(rng)
    if decoder is None:
        decoder = make_batch_decoder(graph, engine=engine)
    packed_path = hasattr(decoder, "decode_packed")
    max_batch = _mask_batch(graph.num_nodes)
    failures = 0
    remaining = n_samples
    while remaining > 0:
        batch = min(remaining, max_batch)
        if packed_path:
            packed = _packed_masks(graph.num_nodes, k, batch, rng)
            ok = decoder.decode_packed(packed, batch)
        else:
            masks = boolean_loss_masks(graph.num_nodes, k, batch, rng)
            ok = decoder.decode_batch(masks)
        failures += int(batch - ok.sum())
        remaining -= batch
    return failures / n_samples


# ----------------------------------------------------------------------
# Sweep cells: one runner, in-process or on the pool
# ----------------------------------------------------------------------


def _sweep_cell(graph, decoder, task: tuple):
    """Run one sampled k-cell of a profile sweep — the only cell runner.

    ``task`` is ``(k, n_samples, seed_seq, collect_metrics, ctx)``.
    :func:`profile_graph` calls this in-process with the decoder it
    built; pool workers call it through :func:`_pool_cell` with the
    one their initializer built.  The cell span comes from a tracer
    seeded by the sweep context ``ctx`` and ``k``, so span IDs are the
    same wherever and in whatever order cells run.  With
    ``collect_metrics`` the decoder's counters land in a fresh registry
    whose snapshot the parent merges (a pool worker's registry is not
    the parent's).  Returns ``(k, frac, seconds, snapshot, spans)``.
    """
    k, n_samples, seed_seq, collect_metrics, ctx = task
    cell_tracer = None
    span = None
    if ctx is not None:
        cell_tracer = Tracer(seed=context_seed(ctx, "profile.cell", k))
        span = cell_tracer.start_span(
            "profile.cell",
            parent=ctx,
            activate=False,
            k=k,
            samples=n_samples,
        )
    # The spawned SeedSequence is passed whole (it pickles fine):
    # reconstructing from `.entropy` alone would drop the spawn_key and
    # hand every cell the same stream.
    rng = np.random.default_rng(seed_seq)
    t0 = time.perf_counter()
    scope = capture(MetricsRegistry()) if collect_metrics else nullcontext()
    with scope as reg:
        frac = sample_fail_fraction(graph, k, n_samples, rng, decoder)
    snapshot = reg.snapshot() if collect_metrics else None
    if span is not None:
        span.end(frac=frac)
    spans = cell_tracer.export() if cell_tracer is not None else []
    return k, frac, time.perf_counter() - t0, snapshot, spans


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
    """Pool entry point: the fault drills, then :func:`_sweep_cell`.

    The drills live here, not in :func:`_sweep_cell`, so a cell run
    in-process can never ``os._exit`` its caller.
    """
    _fault_drill(task[0])
    return _sweep_cell(*_WORKER, task)


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
    tasks: dict[int, tuple],
    n_jobs: int,
    cell_timeout: float | None,
    max_retries: int,
    on_result,
) -> list[int]:
    """Run cells over a process pool, surviving crashes and hangs.

    Each worker gets ``graph`` once, through the pool initializer
    (:func:`_init_worker`), and builds its ``engine`` kernel there;
    tasks are the bare :func:`_sweep_cell` tuples.

    Dispatches every pending cell, collects results with a per-cell
    timeout, and re-dispatches cells whose worker crashed
    (``BrokenProcessPool``) or hung past the timeout — on a fresh pool,
    since a casualty poisons its pool.  A hang cannot be attributed to
    one cell with certainty (a queued cell can time out behind a hung
    neighbour), so only the *first* casualty of each round is charged
    an attempt; the rest re-dispatch free.  A pool break fails every
    in-flight future alike, so with several workers it is charged to
    nobody: the first casualty then runs alone, where a second crash is
    its own and a clean finish clears it.  A lone repeat offender is
    therefore charged until it exhausts ``max_retries`` while its
    innocent neighbours complete, and total rounds stay bounded by
    ``2 × cells × (max_retries + 1)``.  Returns the k's that
    exhausted their retries (the caller marks them uncovered).
    """
    reg = registry()
    pending = dict(tasks)
    attempts: dict[int, int] = {k: 0 for k in tasks}
    uncovered: list[int] = []
    isolate = False  # the last break had several suspects in flight
    while pending:
        if isolate:
            first = next(iter(pending))
            batch = {first: pending[first]}
        else:
            batch = pending
        workers = min(n_jobs, os.cpu_count() or 1, len(batch))
        reg.gauge("profile.workers").set(workers)
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(graph, engine),
        )
        futures = {
            pool.submit(_pool_cell, task): k for k, task in batch.items()
        }
        isolate = False
        pool_poisoned = False
        charged: int | None = None  # first casualty spends an attempt
        for future, k in futures.items():
            try:
                result = future.result(timeout=cell_timeout)
            except CellTimeout:
                pool_poisoned = True
                if future.cancel():
                    continue  # never dispatched: re-run free
                reg.counter("profile.cell_timeouts").inc()
                reg.event("profile.cell_timeout", k=k)
                charged = k if charged is None else charged
            except Exception as exc:
                pool_poisoned = True
                if isinstance(exc, BrokenProcessPool):
                    reg.counter("profile.worker_crashes").inc()
                    reg.event("profile.worker_crash", k=k)
                    isolate = workers > 1
                charged = k if charged is None else charged
            else:
                on_result(result)
                del pending[k]
        pool.shutdown(wait=not pool_poisoned, cancel_futures=True)
        if charged is not None and not isolate:
            attempts[charged] += 1
            if attempts[charged] > max_retries:
                uncovered.append(charged)
                del pending[charged]
                reg.event("profile.cell_abandoned", k=charged)
    return sorted(uncovered)


def profile_graph(
    graph,
    *,
    samples_per_k: int = DEFAULT_SAMPLES_PER_K,
    exact_upto: int = DEFAULT_EXACT_UPTO,
    ks: Sequence[int] | None = None,
    seed: SeedLike = 0,
    n_jobs: int = 1,
    cell_timeout: float | None = None,
    max_retries: int = 2,
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
    ``n_jobs > 1`` distributes k-cells over processes.  ``seed``
    accepts an int or an existing :class:`numpy.random.Generator`
    (unified seeding convention).

    Crash tolerance:

    * ``checkpoint=`` appends each completed k-cell to a JSONL file as
      it lands, so an interrupted sweep keeps its work;
    * ``resume=True`` (re-)reads that file and reruns only unfinished
      cells — byte-identical to an uninterrupted run at the same seed;
    * ``cell_timeout=`` (seconds, ``n_jobs > 1`` only) bounds one
      cell's runtime; ``max_retries`` bounds re-dispatch after a
      worker crash or timeout.  Cells still failing are marked False in
      the profile's ``coverage`` mask and filled by monotone
      interpolation instead of aborting the sweep.

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

    Every sampled cell runs through :func:`_sweep_cell`: in-process on
    the decoder built here, or with ``n_jobs > 1`` on a pool whose
    workers each receive the graph once, through the pool initializer
    (task tuples carry no graph and no decoder).
    """
    if samples_per_k < 1:
        raise ValueError(
            f"samples_per_k must be positive, got {samples_per_k}"
        )
    reg = registry()
    t_start = time.perf_counter() if reg.enabled else 0.0
    decoder = make_batch_decoder(graph, engine=engine)
    engine = decoder.engine
    n = graph.num_nodes
    fail = np.zeros(n + 1, dtype=float)
    samples = np.zeros(n + 1, dtype=np.int64)
    coverage = np.ones(n + 1, dtype=bool)

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
    tasks = {
        k: (k, samples_per_k, cell_seeds[k], collect_metrics, sweep_ctx)
        for k in pending
    }

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

    uncovered: list[int] = []
    try:
        if pooled:
            uncovered = _run_cells_parallel(
                graph, engine, tasks, n_jobs, cell_timeout, max_retries,
                on_result,
            )
        else:
            reg.gauge("profile.workers").set(1)
            for task in tasks.values():
                on_result(_sweep_cell(graph, decoder, task))
    finally:
        sweep_span.end(uncovered=len(uncovered))
        if writer is not None:
            writer.close()

    for k in uncovered:
        coverage[k] = False

    # Fill unmeasured cells (sparse k-grid or crash-abandoned) by
    # monotone interpolation so profile metrics stay meaningful.
    if ks is not None or uncovered:
        known = np.flatnonzero(
            ((samples > 0) | (np.arange(n + 1) <= exact_upto))
            & coverage
        )
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
            cells=len(tasks),
            samples=int(samples.sum()),
            uncovered=uncovered,
            seconds=total,
        )
    return FailureProfile(
        system_name=graph.name,
        num_devices=n,
        num_data=graph.num_data,
        fail_fraction=np.clip(fail, 0.0, 1.0),
        samples=samples,
        coverage=coverage,
    )
