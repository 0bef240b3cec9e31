"""Asyncio block-reconstruction service over a :class:`TornadoArchive`.

This is the layer that turns the codec + storage + resilience stack
into a *system under load*: clients submit whole-object read requests;
the service admits them through a bounded queue (shedding visibly when
full), coalesces concurrent requests into micro-batches, and decodes
each object of a batch once, in place, with the calls ``archive.get``
makes — through its own :class:`~repro.core.codec.TornadoCodec`, whose
:class:`~repro.core.plancache.PlanCache` computes each peeling plan
once per (graph, erasure mask) — with per-request deadlines and
degraded-read retry.

Life cycle::

    service = ReconstructionService(archive, ServeConfig(...))
    async with service:                 # start() ... close()
        data = await service.submit("object-000")
        print(service.stats())          # snapshot endpoint

Backpressure semantics: admission control is a hard bound on *pending*
requests (queued + batched + in flight).  A submit over the bound
raises :class:`~repro.serve.errors.ServiceOverloadedError` immediately
— requests are never silently dropped, and every shed is counted in
``serve.shed``.  Deadlines are enforced at batch formation and at
completion; an expired request resolves with
:class:`~repro.serve.errors.DeadlineExceededError`.

Observability: the service owns an always-on
:class:`~repro.obs.MetricsRegistry` (queue-depth gauge, batch-size and
request-latency quantile histograms — ``stats()`` reports service-side
p50/p90/p99 — shed/retry counters); on :meth:`close` the
snapshot is merged into the process-wide registry when one is active,
so ``repro ... --metrics`` runs capture serving metrics alongside
everything else.  When tracing is enabled
(:func:`repro.obs.trace_capture`), every request gets a span, every
batch a child span parented under its first request (other coalesced
requests are linked by trace ID), and every batch's decode a further
``serve.decode`` child.  Each service lifecycle
additionally emits a :class:`~repro.obs.RunManifest` (config, graph
hash, engine, seed, final snapshot) to ``manifest_path``, mirroring
what the profile cache does for cached sweeps.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from .._checks import check_count, check_seconds
from ..core.codec import TornadoCodec
from ..core.decoder import _evaluate_headroom, make_batch_decoder
from ..core.plancache import PlanCache, graph_key
from ..obs.manifest import RunManifest
from ..obs.registry import MetricsRegistry, metrics_enabled, registry
from ..obs.trace import start_span, trace_span
from ..resilience.retry import NO_RETRY, RetryPolicy
from ..storage.archive import TornadoArchive, read_stripe
from ..storage.device import TransientUnavailableError
from .batcher import Batch, MicroBatcher
from .errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)

__all__ = ["ReconstructionService", "ServeConfig"]

_STOP = object()  # queue sentinel: drain requested


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the reconstruction service (see docs/SERVE.md).

    Parameters
    ----------
    queue_limit:
        Admission-control bound on pending requests; submits beyond it
        shed with :class:`ServiceOverloadedError`.
    batch_window:
        Seconds a micro-batch stays open collecting requests.  ``0``
        disables batching (each request dispatches alone).
    max_batch:
        Requests per batch before it closes early.
    default_deadline:
        Positive deadline in seconds applied to requests that do not
        carry one (``None`` = no deadline).
    plan_capacity:
        LRU capacity of the peeling-plan cache; ``0`` plans every
        request from scratch (the unbatched baseline).
    retry:
        Optional :class:`~repro.resilience.RetryPolicy` for degraded
        reads: when a stripe is undecodable only because devices are
        transiently unavailable, the object's read backs off and
        re-runs on the policy's deterministic schedule instead of
        failing.  A policy
        with an injected ``sleep`` hook is honoured (tests, virtual
        clocks); otherwise the service awaits ``asyncio.sleep`` so the
        event loop keeps serving other batches during backoff.
    """

    queue_limit: int = 256
    batch_window: float = 0.002
    max_batch: int = 32
    default_deadline: float | None = None
    plan_capacity: int = 256
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        check_count(self.queue_limit, "queue_limit", 1)
        check_seconds(self.batch_window, "batch_window", zero=True)
        check_count(self.max_batch, "max_batch", 1)
        check_seconds(self.default_deadline, "default_deadline")
        check_count(self.plan_capacity, "plan_capacity")


@dataclass
class _Request:
    """One admitted read request awaiting its batch."""

    name: str
    future: asyncio.Future
    submitted_at: float
    deadline_at: float | None = None
    done: bool = field(default=False, compare=False)
    span: Any = field(default=None, compare=False, repr=False)


class ReconstructionService:
    """Micro-batching asyncio front end for archive reconstructions.

    Parameters
    ----------
    archive:
        The :class:`~repro.storage.TornadoArchive` to serve.
    config:
        A :class:`ServeConfig`; defaults are sensible for simulation.
    clock:
        Injectable monotonic clock used for deadlines, batching, and
        latency metrics — tests drive it deterministically.
    seed:
        Provenance-only: recorded in the lifecycle
        :class:`~repro.obs.RunManifest` (the seed that built the
        archive fixture); the service itself draws no randomness.
    manifest_path:
        Where :meth:`close` writes the lifecycle manifest (JSON).
        ``None`` keeps it in-memory only (:attr:`manifest`).
    """

    def __init__(
        self,
        archive: TornadoArchive,
        config: ServeConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        seed: int | None = None,
        manifest_path: str | os.PathLike | None = None,
    ):
        self.archive = archive
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self._seed = seed
        self._manifest_path = manifest_path
        self.manifest: RunManifest | None = None
        self.plans = PlanCache(self.config.plan_capacity)
        # Schedules come from the service's own cache (not the
        # archive's): ``plan_capacity=0`` is the unbatched baseline.
        self.codec = TornadoCodec(
            archive.graph, archive.codec.block_size, self.plans
        )
        self._clock = clock
        self._batch_key = graph_key(archive.graph)
        self._batcher = MicroBatcher(
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
            clock=clock,
        )
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0
        self._state = "idle"
        self._dispatcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        # Batch kernel of the bulk what-if probe (degraded_headroom);
        # stats()/events report its own ``engine``.  Per-request XOR
        # replay is unaffected — schedules come from the scalar planner.
        self._headroom_decoder = make_batch_decoder(archive.graph)

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    async def start(self) -> "ReconstructionService":
        """Start the dispatch loop; idempotent errors on reuse."""
        if self._state != "idle":
            raise ServiceClosedError(f"service already {self._state}")
        self._state = "running"
        # Lifecycle provenance, mirroring ProfileCache's sidecars: one
        # manifest per service run, finished (wall time + final
        # snapshot) on close.
        cfg = self.config
        self.manifest = RunManifest.create(
            "serve",
            seed=self._seed,
            config={
                "queue_limit": cfg.queue_limit,
                "batch_window": cfg.batch_window,
                "max_batch": cfg.max_batch,
                "default_deadline": cfg.default_deadline,
                "plan_capacity": cfg.plan_capacity,
            },
            graph=self.archive.graph.name,
            graph_hash=self._batch_key,
            engine=self._headroom_decoder.engine,
            objects=len(self.archive.objects),
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def drain(self) -> None:
        """Stop admitting, flush open batches, finish in-flight work.

        Every request admitted before the drain completes normally;
        only *new* submits are refused (:class:`ServiceClosedError`).
        """
        if self._state == "running":
            self._state = "draining"
            self._queue.put_nowait(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        while self._inflight:
            await asyncio.gather(*list(self._inflight))

    async def close(self) -> None:
        """Drain, then publish final metrics.

        Publishes three things: the metrics snapshot into the global
        registry (when one is active), the finished lifecycle
        :class:`~repro.obs.RunManifest` (saved to ``manifest_path``
        and, under ``--metrics``, emitted as a ``serve.run_manifest``
        event), and — when tracing — nothing extra: spans were already
        recorded as they ended.
        """
        if self._state == "closed":
            return
        await self.drain()
        self._state = "closed"
        snapshot = self.metrics.snapshot()
        if self.manifest is not None:
            finished = self.manifest.finish()
            self.manifest = replace(
                finished,
                extra={**finished.extra, "final_snapshot": snapshot},
            )
            if self._manifest_path is not None:
                path = Path(self._manifest_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                self.manifest.save(path)
        if metrics_enabled():
            registry().merge_snapshot(snapshot)
            if self.manifest is not None:
                registry().event(
                    "serve.run_manifest", **self.manifest.to_dict()
                )

    async def __aenter__(self) -> "ReconstructionService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------

    async def submit(self, name: str, *, deadline: float | None = None):
        """Read object ``name``, reconstructing as needed.

        ``deadline`` is a positive number of seconds.  Returns the
        object's bytes.  Raises
        :class:`ServiceOverloadedError` (shed at admission),
        :class:`DeadlineExceededError`, :class:`ServiceClosedError`,
        :class:`~repro.storage.DataLossError`, or
        :class:`~repro.storage.TransientUnavailableError` (transient
        outage outlasted the retry policy).
        """
        return await self.try_submit(name, deadline=deadline)

    def try_submit(
        self, name: str, *, deadline: float | None = None
    ) -> asyncio.Future:
        """Admit a request synchronously; the future resolves later.

        Admission control happens here, in the caller's task, so a shed
        costs nothing but the exception.
        """
        check_seconds(deadline, "deadline")
        if self._state != "running":
            raise ServiceClosedError(
                f"service is {self._state}; not accepting requests"
            )
        if self._pending >= self.config.queue_limit:
            self.metrics.counter("serve.shed").inc()
            raise ServiceOverloadedError(
                f"queue at capacity ({self.config.queue_limit} pending)",
                queue_depth=self._pending,
            )
        now = self._clock()
        if deadline is None:
            deadline = self.config.default_deadline
        request = _Request(
            name=name,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=now,
            deadline_at=None if deadline is None else now + deadline,
            # Umbrella span for the request's whole lifetime; parented
            # under the submitter's ambient span (e.g. loadgen.run) but
            # not activated — it ends in the dispatch loop's context.
            span=start_span(
                "serve.request", activate=False, object=name
            ),
        )
        self._pending += 1
        self.metrics.counter("serve.requests").inc()
        self.metrics.gauge("serve.queue_depth").set(self._pending)
        self._queue.put_nowait(request)
        return request.future

    def stats(self) -> dict[str, Any]:
        """Snapshot endpoint: service state + plan cache + all metrics."""
        return {
            "state": self._state,
            "pending": self._pending,
            "engine": self._headroom_decoder.engine,
            "plan_cache": self.plans.stats(),
            **self.metrics.snapshot(),
        }

    def degraded_headroom(self) -> dict[str, Any]:
        """Bulk what-if probe: can the archive absorb one more failure?

        Builds one erasure case per archived stripe for the *current*
        loss state plus one case per (stripe, device still holding one
        of its blocks) for the state after that device additionally
        fails, and pushes all of them through a single batch decode
        (:func:`~repro.core.decoder.make_batch_decoder`).  This is the
        serve-layer consumer of the batch kernels: a pool of hundreds
        of scenarios decodes in one call instead of one scalar peel
        each.

        Returns the kernel that ran, probe size, stripes already
        unrecoverable, and the device ids whose failure would newly
        break at least one stripe.  Devices already unavailable add
        nothing beyond the current loss state, so they get no case and
        are never flagged.
        """
        archive = self.archive
        cases, base_ok, at_risk, failing_now = _evaluate_headroom(
            self._headroom_decoder,
            [
                ((name, r.index), r.placement.device_of, missing[r.index])
                for name, manifest in archive.objects.items()
                for missing in [archive.missing_blocks(name)]
                for r in manifest.stripes
            ],
        )
        engine = self._headroom_decoder.engine

        m = self.metrics
        m.counter("serve.headroom_probes").inc()
        m.histogram("serve.headroom_cases").observe(cases)
        m.gauge("serve.at_risk_devices").set(len(at_risk))
        m.event(
            "serve.headroom",
            engine=engine,
            cases=cases,
            at_risk_devices=at_risk,
            stripes_failing_now=len(failing_now),
        )
        return {
            "engine": engine,
            "stripes": len(base_ok),
            "devices": len(archive.devices),
            "cases": cases,
            "stripes_failing_now": failing_now,
            "at_risk_devices": at_risk,
            "tolerates_any_single_failure": (
                not at_risk and not failing_now
            ),
        }

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            due_at = self._batcher.next_due()
            if due_at is None:
                item = await self._queue.get()
            else:
                timeout = max(0.0, due_at - self._clock())
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), timeout
                    )
                except asyncio.TimeoutError:
                    for batch in self._batcher.pop_due():
                        self._launch(batch)
                    continue
            if item is _STOP:
                for batch in self._batcher.pop_all():
                    self._launch(batch)
                return
            closed = self._batcher.add(self._batch_key, item)
            if closed is not None:
                self._launch(closed)
            for batch in self._batcher.pop_due():
                self._launch(batch)

    def _launch(self, batch: Batch) -> None:
        task = asyncio.create_task(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def _finish(
        self,
        request: _Request,
        *,
        result: bytes | None = None,
        error: BaseException | None = None,
    ) -> None:
        if request.done:
            return
        request.done = True
        self._pending -= 1
        self.metrics.gauge("serve.queue_depth").set(self._pending)
        if request.span is not None:
            request.span.end(
                outcome="ok" if error is None else type(error).__name__
            )
        if not request.future.done():
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(result)

    def _expire(self, request: _Request, where: str) -> None:
        self.metrics.counter("serve.deadline_exceeded").inc()
        if request.span is not None:
            request.span.set_attr("expired_at", where)
        self._finish(
            request,
            error=DeadlineExceededError(
                f"request for {request.name!r} missed its deadline "
                f"({where})"
            ),
        )

    async def _run_batch(self, batch: Batch) -> None:
        m = self.metrics
        t0 = self._clock()
        live: list[_Request] = []
        for request in batch.items:
            if (
                request.deadline_at is not None
                and t0 >= request.deadline_at
            ):
                self._expire(request, "while batching")
            else:
                live.append(request)
        if not live:
            return
        m.counter("serve.batches").inc()
        m.histogram("serve.batch_size").observe(len(live))
        groups: dict[str, list[_Request]] = {}
        for request in live:
            groups.setdefault(request.name, []).append(request)
        m.counter("serve.coalesced").inc(len(live) - len(groups))

        # The batch span parents under the first request's span; other
        # coalesced requests from *different* traces are recorded as
        # links so no request loses its connection to the shared decode
        # (requests sharing the batch's own trace need no link — they
        # are siblings in the same tree).
        own_trace = live[0].span.trace_id if live[0].span else None
        links = sorted(
            {
                r.span.trace_id
                for r in live[1:]
                if r.span is not None
                and r.span.trace_id
                and r.span.trace_id != own_trace
            }
        )
        batch_span = start_span(
            "serve.batch",
            parent=live[0].span if live[0].span else None,
            activate=False,
            size=len(live),
            objects=len(groups),
        )
        if links:
            batch_span.set_attr("links", links)

        results: dict[str, bytes] = {}
        with trace_span("serve.decode", parent=batch_span):
            for name, requests in list(groups.items()):
                try:
                    results[name] = await self._read_object(name)
                except Exception as exc:
                    m.counter("serve.plan_failures").inc()
                    batch_span.add_event(
                        "plan_failure",
                        object=name,
                        error=type(exc).__name__,
                    )
                    for request in requests:
                        self._finish(request, error=exc)
                    del groups[name]
        if not groups:
            batch_span.end(error="plan_failure")
            return

        now = self._clock()
        for name, requests in groups.items():
            data = results[name]
            for request in requests:
                if (
                    request.deadline_at is not None
                    and now >= request.deadline_at
                ):
                    self._expire(request, "mid-batch")
                else:
                    m.counter("serve.completed").inc()
                    m.histogram("serve.request_latency_seconds").observe(
                        now - request.submitted_at
                    )
                    self._finish(request, result=data)
        batch_span.end()
        m.histogram("serve.batch_latency_seconds").observe(
            self._clock() - t0
        )

    # ------------------------------------------------------------------
    # Decoding (with degraded-read retry)
    # ------------------------------------------------------------------

    async def _read_object(self, name: str) -> bytes:
        manifest = self.archive.objects.get(name)
        if manifest is None:
            raise KeyError(f"no archived object named {name!r}")
        return await (self.config.retry or NO_RETRY).acall(
            self._decode_stripes,
            manifest,
            retry_on=TransientUnavailableError,
            counter=self.metrics.counter("serve.retries"),
        )

    async def _decode_stripes(self, manifest) -> bytes:
        """One object's bytes, each stripe decoded in place.

        The calls ``archive.get`` makes, through the service's own
        codec: a stripe with nothing missing is its data rows, a
        degraded one costs one plan lookup (counted as a
        ``serve.plan_cache`` hit or miss) and one XOR replay, and an
        undecodable one is typed by :func:`read_stripe`.
        """
        archive, plans = self.archive, self.plans
        parts: list[bytes] = []
        for record in manifest.stripes:
            blocks, present = archive.stripe_blocks(manifest.name, record)
            hits = plans.hits
            try:
                data = read_stripe(
                    self.codec,
                    blocks,
                    present,
                    name=manifest.name,
                    index=record.index,
                    dark=lambda: archive.transient_devices(record),
                )
            finally:
                if not present.all():
                    hit = plans.hits > hits
                    self.metrics.counter(
                        f"serve.plan_cache.{'hits' if hit else 'misses'}"
                    ).inc()
            parts.append(data.tobytes()[: record.payload_length])
        return b"".join(parts)
