"""Causal tracing: deterministic trace/span IDs across the pipeline.

Aggregate metrics (``repro.obs.registry``) answer *how much* and *how
slow*; they cannot answer *which request* — attribute one slow decode
back to the request, micro-batch, pool worker, or campaign step that
caused it.  This module adds that causal layer:

* a :class:`Span` is a named, timed scope with attributes and point
  events; spans form trees via ``parent_id`` and group into traces via
  ``trace_id``;
* a :class:`Tracer` mints IDs **deterministically** — every ID is a
  SHA-256 of ``(seed, counter)`` from the unified seeding layer, with
  no ``uuid`` or wall-clock dependence, so a seeded run produces the
  same IDs every time and tests can assert on them;
* the *current* span lives in a :class:`contextvars.ContextVar`, so
  spans nest automatically across ``async`` task boundaries, and
  :func:`current_context`/:func:`use_context` carry a span's identity
  across process boundaries (the service serialises it into pool-worker
  payloads; the worker rehydrates it and parents its spans under it);
* span records are plain dicts exported through any sink with an
  ``emit(dict)`` method (e.g. :class:`repro.obs.sink.JsonlSink`), or
  buffered on the tracer when no sink is attached; a span that gains a
  child or ships its context first writes a ``trace.open`` record to
  the sink, so a process killed mid-operation still leaves its open
  spans behind for the children to hang from.

Like metrics, tracing is off by default and the disabled path is a
couple of attribute lookups returning a shared no-op span::

    from repro.obs import JsonlSink, Tracer, trace_capture, trace_span

    with trace_capture(Tracer(sink=JsonlSink("trace.jsonl"), seed=0)):
        with trace_span("profile.sweep", graph="g1") as span:
            span.add_event("checkpoint", cells=12)

Analyse exported traces with :mod:`repro.obs.analyze` or ``repro obs
trace-tree``/``repro obs report`` from the CLI.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Iterator, Mapping

from .seeding import SeedLike, derive_seed

__all__ = [
    "Span",
    "Tracer",
    "add_trace_event",
    "context_seed",
    "current_context",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "start_span",
    "trace_capture",
    "trace_span",
    "tracer",
    "tracing_enabled",
    "use_context",
]

# Sentinel: "no explicit parent given — resolve from the ambient
# context" (distinct from parent=None, which forces a new root trace).
_AMBIENT = object()


def _id_from(*parts: Any) -> str:
    """16-hex-char ID derived purely from the given parts."""
    text = ":".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def context_seed(ctx: Mapping[str, Any], *salt: Any) -> int:
    """Deterministic integer seed derived from a trace context.

    Pool workers have no access to the parent's tracer, yet their span
    IDs must be reproducible; seeding a worker-local :class:`Tracer`
    with ``context_seed(ctx, k)`` ties the worker's ID stream to the
    exact span (and optional salt, e.g. the k-cell) that spawned it.
    """
    digest = _id_from(ctx.get("trace_id"), ctx.get("span_id"), *salt)
    return int(digest, 16)


class Span:
    """One named, timed scope in a trace.

    Created via :meth:`Tracer.start_span` (or the module-level
    :func:`start_span`/:func:`trace_span` helpers), finished with
    :meth:`end`.  Usable as a context manager.  Attributes set after
    ``end()`` are ignored; ``end()`` is idempotent.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "events",
        "start",
        "elapsed",
        "_tracer",
        "_token",
        "_ended",
        "_opened",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.events: list[dict[str, Any]] = []
        self._tracer = tracer
        self._token = None
        self._ended = False
        self._opened = False
        self.start = tracer._clock()
        self.elapsed: float | None = None

    def set_attr(self, key: str, value: Any) -> None:
        if not self._ended:
            self.attrs[key] = value

    def add_event(self, name: str, **fields: Any) -> None:
        """Record a point-in-time event inside this span."""
        if self._ended:
            return
        offset = self._tracer._clock() - self.start
        self.events.append({"name": name, "offset": offset, **fields})

    def context(self) -> dict[str, str]:
        """Serialisable identity of this span (ships across processes)."""
        self._open()
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def _open(self) -> None:
        """Write a ``trace.open`` record once, before the first child:
        a process killed mid-span never writes the span's own record,
        and its finished children need a parent.  A buffering tracer
        writes none; its buffer dies with the process.  Two threads
        racing here write two identical copies, read as one span."""
        if self._opened or self._ended or self._tracer.sink is None:
            return
        self._opened = True
        self._tracer.sink.emit({**self.to_record(), "event": "trace.open"})

    def end(self, **attrs: Any) -> None:
        """Finish the span, optionally setting final attributes."""
        if self._ended:
            return
        self.attrs.update(attrs)
        self.elapsed = self._tracer._clock() - self.start
        self._ended = True
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:
                # Ended from a different context than it was started in
                # (e.g. a request span finished by the dispatch loop);
                # the starting context's variable dies with its task.
                pass
            self._token = None
        self._tracer._record(self)

    def to_record(self) -> dict[str, Any]:
        return {
            "event": "trace.span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "elapsed": self.elapsed,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self.attrs:
            self.end(error=exc_type.__name__)
        else:
            self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class _NullSpan:
    """Shared no-op span for the disabled path (falsy, zero-cost API)."""

    __slots__ = ()

    name = None
    trace_id = None
    span_id = None
    parent_id = None

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **fields: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

_CURRENT: ContextVar[Span | None] = ContextVar("repro_current_span")
_CURRENT.set(None)
_REMOTE: ContextVar[dict | None] = ContextVar("repro_remote_parent")
_REMOTE.set(None)


class Tracer:
    """Mints deterministic span IDs and collects finished span records.

    Parameters
    ----------
    sink:
        Anything with an ``emit(dict)`` method (e.g.
        :class:`~repro.obs.sink.JsonlSink`).  Without a sink, records
        buffer in :attr:`records` — the mode pool workers use before
        shipping their spans back via :meth:`export`.
    seed:
        Unified seed (see :mod:`repro.obs.seeding`) anchoring the ID
        stream; the n-th ID minted by a tracer is a pure function of
        ``(seed, n)``.
    clock:
        Injectable monotonic clock for span timing (tests pass a fake).
    """

    def __init__(
        self,
        sink: Any | None = None,
        *,
        seed: SeedLike = 0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sink = sink
        self.records: list[dict[str, Any]] = []
        self.spans_finished = 0
        self._seed = derive_seed(seed)
        self._clock = clock
        self._counter = 0
        self._lock = threading.Lock()

    def new_id(self) -> str:
        with self._lock:
            n = self._counter
            self._counter += 1
        return _id_from(self._seed, n)

    def start_span(
        self,
        name: str,
        *,
        parent: Span | Mapping[str, Any] | None = _AMBIENT,
        activate: bool = True,
        **attrs: Any,
    ) -> Span:
        """Start a span.

        ``parent`` defaults to the ambient context: the current span of
        this task, or a context rehydrated with :func:`use_context`.
        Pass an explicit :class:`Span` or context dict to parent across
        tasks (the service parents batch spans under request spans this
        way), or ``None`` to force a new root trace.  ``activate=False``
        skips installing the span as the current one — for umbrella
        spans that outlive the task that created them.
        """
        if parent is _AMBIENT:
            parent = _CURRENT.get(None) or _REMOTE.get(None)
        if parent is None:
            trace_id = self.new_id()
            parent_id = None
        elif isinstance(parent, Span):
            parent._open()
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = parent["trace_id"]
            parent_id = parent["span_id"]
        span = Span(self, name, trace_id, self.new_id(), parent_id, attrs)
        if activate:
            span._token = _CURRENT.set(span)
        return span

    def _record(self, span: Span) -> None:
        self.emit(span.to_record())
        self.spans_finished += 1

    def emit(self, record: dict[str, Any]) -> None:
        """Write one record to the sink (or the in-memory buffer)."""
        if self.sink is not None:
            self.sink.emit(record)
        else:
            self.records.append(record)

    def ingest(self, records: Iterable[dict[str, Any]]) -> None:
        """Adopt span records produced elsewhere (pool workers)."""
        for record in records:
            self.emit(record)
            self.spans_finished += 1

    def export(self) -> list[dict[str, Any]]:
        """Drain buffered records (worker side of the ship-back path)."""
        out, self.records = self.records, []
        return out


class _TraceState:
    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active: Tracer | None = None


_STATE = _TraceState()


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _STATE.active


def tracing_enabled() -> bool:
    return _STATE.active is not None


def enable_tracing(t: Tracer | None = None) -> Tracer:
    """Install ``t`` (or a fresh buffering tracer) as the active tracer."""
    if t is None:
        t = Tracer()
    _STATE.active = t
    return t


def disable_tracing() -> None:
    _STATE.active = None


@contextmanager
def trace_capture(t: Tracer | None = None) -> Iterator[Tracer]:
    """Scoped tracing; restores the previous tracer on exit."""
    previous = _STATE.active
    active = enable_tracing(t)
    try:
        yield active
    finally:
        _STATE.active = previous


def current_span() -> Span | None:
    return _CURRENT.get(None)


def current_context() -> dict[str, str] | None:
    """Serialisable identity of the ambient span, if any.

    This is what crosses process boundaries: put it in the task
    payload, and rehydrate on the far side with :func:`use_context`.
    """
    span = _CURRENT.get(None)
    if span is not None:
        return span.context()
    return _REMOTE.get(None)


class use_context:
    """Adopt a remote span context as the ambient parent.

    Spans started inside the block (without an explicit parent) become
    children of the remote span — how pool workers link their work back
    to the request or sweep that dispatched it.  ``None`` is accepted
    and means "no remote parent" so call sites need no conditionals.
    A class, not a generator: the line server enters one per request.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Mapping[str, Any] | None) -> None:
        self._ctx = dict(ctx) if ctx else None

    def __enter__(self) -> None:
        self._token = _REMOTE.set(self._ctx)

    def __exit__(self, *exc: Any) -> None:
        _REMOTE.reset(self._token)


def start_span(
    name: str,
    *,
    parent: Span | Mapping[str, Any] | None = _AMBIENT,
    activate: bool = True,
    **attrs: Any,
) -> Span | _NullSpan:
    """Start a span on the active tracer; no-op span when disabled."""
    active = _STATE.active
    if active is None:
        return NULL_SPAN
    return active.start_span(
        name, parent=parent, activate=activate, **attrs
    )


@contextmanager
def trace_span(
    name: str,
    *,
    parent: Span | Mapping[str, Any] | None = _AMBIENT,
    **attrs: Any,
) -> Iterator[Span | _NullSpan]:
    """Context-managed span (started active, ended on exit)."""
    span = start_span(name, parent=parent, **attrs)
    try:
        yield span
    except BaseException as exc:
        span.end(error=type(exc).__name__)
        raise
    finally:
        span.end()


def add_trace_event(name: str, **fields: Any) -> None:
    """Attach a point event to the ambient span, if tracing is active."""
    span = _CURRENT.get(None)
    if span is not None:
        span.add_event(name, **fields)
