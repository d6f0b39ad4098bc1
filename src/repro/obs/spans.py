"""Hierarchical spans: who called what, how long it took, and why.

The metrics registry (:mod:`repro.engine.metrics`) answers *how much* — how
many Safra runs, how many emptiness calls, total milliseconds.  Spans answer
*which request*: one classification fans out into GPVW → Safra → emptiness
calls, and a span tree ties each leaf (with its fastpath route and cache
hit/miss attributes) back to the request that caused it.

Design constraints, in order:

1. **Zero cost when off.**  Tracing is disabled by default; every
   instrumented hot path pays one attribute load and one ``if``.  The
   ``<5%`` overhead gate in ``BENCH_obs.json`` holds even with tracing *on*
   because spans wrap operations (a determinization, a batch job), never
   per-state work.
2. **Parents survive executors.**  The active span lives in a
   :class:`contextvars.ContextVar`.  New threads start with an empty
   context, so the engine captures a :class:`SpanContext` before handing
   work to a ``ThreadPoolExecutor`` and re-activates it in the worker
   (:meth:`SpanTracer.activate`).  Process pools cannot share the tracer at
   all: the worker runs under its own process-local tracer and ships its
   finished spans back as plain dicts, which the parent re-stitches under
   the submitting span (:meth:`SpanTracer.adopt`).
3. **Plain data out.**  A finished span serializes to a JSON-safe dict
   (:meth:`Span.as_payload`); ``repro.obs.export`` turns those into JSONL,
   trees and profiles.

A pipeline stage (GPVW, Safra, emptiness, a batch, a census run) opens
:func:`stage` rather than a bare span: one clock pair per call feeds both
the stage's ``METRICS`` timer and, while tracing is on, its span, so the
two channels cannot disagree and the hot path reads the clock only twice.

This module is stdlib-only (like ``engine.metrics``) so any layer —
``logic``, ``omega``, ``fastpath``, ``engine``, ``qa`` — can instrument
itself without import cycles.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Attribute values are kept JSON-scalar so export never needs a custom encoder.
Scalar = bool | int | float | str | None


def _scalar(value: object) -> Scalar:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(frozen=True, slots=True)
class SpanContext:
    """The serializable identity of a span: enough to parent children on,
    small enough to cross a process boundary inside a job tuple."""

    trace_id: str
    span_id: str


@dataclass(slots=True)
class Span:
    """One timed operation.  Mutable while open, inert once finished."""

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    start: float
    end: float = 0.0
    attributes: dict[str, Scalar] = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = _scalar(value)

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def fail(self, exc: BaseException) -> None:
        self.status = "error"
        self.error = f"{type(exc).__name__}: {exc}"

    def as_payload(self) -> dict[str, Any]:
        """A JSON-safe flat dict (the JSONL line body)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> Span:
        span = cls(
            name=payload["name"],
            span_id=payload["span_id"],
            trace_id=payload["trace_id"],
            parent_id=payload.get("parent_id"),
            start=float(payload["start"]),
            end=float(payload["start"]) + float(payload["duration"]),
            status=payload.get("status", "ok"),
            error=payload.get("error"),
        )
        span.attributes.update(payload.get("attributes", {}))
        return span

    def __repr__(self) -> str:
        return f"Span({self.name}, {self.duration*1e3:.3f}ms, {self.attributes})"


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: The active span (or a bare :class:`SpanContext` re-activated from an
#: executor boundary).  One ContextVar for the whole process: tracers are
#: rare (usually just :data:`TRACER`) and context entries are cheap.
_CURRENT: contextvars.ContextVar[Span | SpanContext | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class SpanTracer:
    """A process-local collector of finished spans.

    ``enabled`` gates everything: while ``False`` (the default),
    :meth:`span` returns a shared no-op context manager and the hot paths
    pay only the flag check.
    """

    def __init__(self, *, capacity: int = 100_000) -> None:
        self.enabled = False
        self.capacity = capacity
        self.dropped = 0
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._seen_ids: set[str] = set()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._nonce = f"{self._pid:x}"

    # ----------------------------------------------------------- lifecycle

    def enable(self, *, capacity: int | None = None) -> None:
        """Start recording (clears previously finished spans)."""
        with self._lock:
            self._finished.clear()
            self._seen_ids.clear()
            self.dropped = 0
            if capacity is not None:
                self.capacity = capacity
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._seen_ids.clear()
            self.dropped = 0

    @contextmanager
    def tracing(self) -> Iterator[SpanTracer]:
        """Enable for a block, restoring the previous state on exit."""
        previous = self.enabled
        self.enable()
        try:
            yield self
        finally:
            self.enabled = previous

    # --------------------------------------------------------------- spans

    def _new_id(self) -> str:
        # Forked pool workers inherit the parent's tracer (nonce and counter
        # included); re-keying on the live pid keeps their ids collision-free.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._nonce = f"{pid:x}"
        return f"{self._nonce}-{next(self._ids):x}"

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Open a child span of the current one for the duration of a block.

        Exceptions mark the span ``status="error"`` (and propagate); the
        span is recorded either way.
        """
        if not self.enabled:
            yield NOOP_SPAN
            return
        span = self._open(name, attributes)
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException as exc:
            span.fail(exc)
            raise
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)
            self._record(span)

    def _open(self, name: str, attributes: dict[str, object]) -> Span:
        """A new child of the active span (or a new trace root), started now."""
        parent = _CURRENT.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = f"t{self._new_id()}", None
        span = Span(
            name=name,
            span_id=self._new_id(),
            trace_id=trace_id,
            parent_id=parent_id,
            start=time.perf_counter(),
        )
        for key, value in attributes.items():
            span.attributes[key] = _scalar(value)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.capacity:
                self.dropped += 1
            else:
                self._finished.append(span)
                self._seen_ids.add(span.span_id)

    # ---------------------------------------------------------- manual spans
    #
    # The context-manager form above owns the contextvar stack, which suits
    # nested synchronous work.  Request pipelines (the serve layer) need
    # spans that open in one coroutine/thread and close in another, without
    # ever touching the ambient context: ``start_manual``/``finish_manual``
    # for open-ended operations and ``record_span`` for stages whose
    # boundaries were measured retrospectively with ``perf_counter``.

    def start_manual(
        self,
        name: str,
        *,
        parent: Span | SpanContext | None = None,
        start: float | None = None,
        **attributes: object,
    ) -> Span | None:
        """Open a span without activating it; ``None`` while disabled.

        The caller keeps the span and must hand it to :meth:`finish_manual`.
        ``parent=None`` starts a fresh trace (manual spans never consult the
        contextvar — that is the point of them).
        """
        if not self.enabled:
            return None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = f"t{self._new_id()}", None
        span = Span(
            name=name,
            span_id=self._new_id(),
            trace_id=trace_id,
            parent_id=parent_id,
            start=time.perf_counter() if start is None else start,
        )
        for key, value in attributes.items():
            span.attributes[key] = _scalar(value)
        return span

    def finish_manual(
        self, span: Span | None, *, status: str = "ok", error: str | None = None
    ) -> None:
        """Close and record a span from :meth:`start_manual` (``None`` ok)."""
        if span is None:
            return
        span.end = time.perf_counter()
        span.status = status
        span.error = error
        self._record(span)

    def record_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: Span | SpanContext | None = None,
        trace_id: str | None = None,
        status: str = "ok",
        error: str | None = None,
        **attributes: object,
    ) -> Span | None:
        """Record an already-measured interval as a span; ``None`` if off.

        This is how the serve layer turns per-stage ``perf_counter`` marks
        into children of a request span after the fact.
        """
        if not self.enabled:
            return None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else f"t{self._new_id()}"
        span = Span(
            name=name,
            span_id=self._new_id(),
            trace_id=trace_id,
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            end=end,
            status=status,
            error=error,
        )
        for key, value in attributes.items():
            span.attributes[key] = _scalar(value)
        self._record(span)
        return span

    def record_tree(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: Span | SpanContext | None = None,
        status: str = "ok",
        error: str | None = None,
        children: Iterable[tuple[str, float, float]] = (),
        attributes: dict[str, object] | None = None,
    ) -> tuple[Span | None, tuple[Span, ...]]:
        """Record a root and its leaf children as one batch; ``(None, ())`` off.

        The per-request fast path of the serve layer: a root plus a handful
        of ``(name, start, end)`` stage children every few hundred
        microseconds.  Recording them one :meth:`record_span` at a time pays
        the pid check, the kwargs plumbing and the buffer lock once per
        span; this method pays each once per *tree*, which is what keeps
        the end-to-end telemetry overhead inside its ``BENCH_obs.json``
        budget.
        """
        if not self.enabled:
            return None, ()
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._nonce = f"{pid:x}"
        nonce, ids = self._nonce, self._ids
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = f"t{nonce}-{next(ids):x}", None
        root = Span(
            name=name,
            span_id=f"{nonce}-{next(ids):x}",
            trace_id=trace_id,
            parent_id=parent_id,
            start=start,
            end=end,
            status=status,
            error=error,
        )
        if attributes:
            for key, value in attributes.items():
                root.attributes[key] = _scalar(value)
        kids = tuple(
            Span(
                name=child_name,
                span_id=f"{nonce}-{next(ids):x}",
                trace_id=trace_id,
                parent_id=root.span_id,
                start=child_start,
                end=child_end,
            )
            for child_name, child_start, child_end in children
        )
        with self._lock:
            finished, seen = self._finished, self._seen_ids
            for span in (root, *kids):
                if len(finished) >= self.capacity:
                    self.dropped += 1
                else:
                    finished.append(span)
                    seen.add(span.span_id)
        return root, kids

    def traced(self, name: str, **attributes: object) -> Callable:
        """Decorator form of :meth:`span`."""

        def decorate(func: Callable) -> Callable:
            import functools

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.span(name, **attributes):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # --------------------------------------------- executor-boundary plumbing

    def current(self) -> Span | None:
        """The innermost open span of this context, if it is a real span."""
        active = _CURRENT.get()
        return active if isinstance(active, Span) else None

    def capture(self) -> SpanContext | None:
        """The active span's context, for re-activation in another thread."""
        active = _CURRENT.get()
        if isinstance(active, Span):
            return active.context()
        return active

    @contextmanager
    def activate(self, context: SpanContext | None) -> Iterator[None]:
        """Make ``context`` the parent for spans opened in this block.

        Used on the far side of a thread-pool boundary, where the worker
        thread's context is empty.  ``None`` is a no-op, so call sites can
        pass ``tracer.capture()`` through unconditionally.
        """
        if context is None:
            yield
            return
        token = _CURRENT.set(context)
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def adopt(
        self, payloads: Iterable[dict[str, Any]], parent: SpanContext | None
    ) -> list[Span]:
        """Re-stitch spans shipped back from a worker process.

        Worker-side root spans (``parent_id is None``) become children of
        ``parent``, and every adopted span joins the parent's trace so the
        request renders as one tree.  Span ids carry the worker's pid nonce,
        so they cannot collide with locally issued ids.  A payload whose
        span id was already recorded here is skipped: when client and server
        share one process (tests, the telemetry smoke) the server records
        its spans directly *and* ships them over the wire, and adopting the
        echo must not duplicate them.
        """
        adopted = []
        with self._lock:
            seen = set(self._seen_ids)
        for payload in payloads:
            span = Span.from_payload(payload)
            if span.span_id in seen:
                continue
            if parent is not None:
                if span.parent_id is None:
                    span.parent_id = parent.span_id
                span.trace_id = parent.trace_id
            adopted.append(span)
            self._record(span)
        return adopted

    # ------------------------------------------------------------ reporting

    def finished(self) -> list[Span]:
        """All recorded spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def export_payloads(self, *, since: int = 0) -> list[dict[str, Any]]:
        """Finished spans (from index ``since``) as plain dicts."""
        with self._lock:
            spans = self._finished[since:]
        return [span.as_payload() for span in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


#: The process-wide tracer the instrumented hot paths report into.
TRACER = SpanTracer()


def span(name: str, **attributes: object):
    """Shorthand for ``TRACER.span(name, **attributes)``."""
    return TRACER.span(name, **attributes)


class Stage:
    """The handle :func:`stage` yields: span attributes in, duration out."""

    __slots__ = ("span", "seconds")

    def __init__(self, span: Span | _NoopSpan) -> None:
        self.span = span
        #: The stage's duration, set when the block exits.
        self.seconds = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        self.span.set_attribute(key, value)


@contextmanager
def stage(name: str, *, metrics=None, **attributes: object) -> Iterator[Stage]:
    """Time one pipeline stage once and report it through both channels.

    The clock is read once at entry and once at exit.  That duration always
    feeds the ``name`` timer of ``metrics`` (default: the process-wide
    ``METRICS`` registry), errors included; while tracing is on the same
    interval is also recorded as a ``name`` span carrying ``attributes``.
    Exceptions mark the span ``status="error"`` and propagate.
    """
    # Imported per call: ``engine.cache`` imports this module at load time,
    # so a module-level import of the engine package would be circular.
    from repro.engine.metrics import METRICS

    timer = (metrics or METRICS).timer(name)
    if not TRACER.enabled:
        handle = Stage(NOOP_SPAN)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            handle.seconds = time.perf_counter() - start
            timer.observe(handle.seconds)
        return
    span = TRACER._open(name, attributes)
    handle = Stage(span)
    token = _CURRENT.set(span)
    try:
        yield handle
    except BaseException as exc:
        span.fail(exc)
        raise
    finally:
        span.end = time.perf_counter()
        handle.seconds = span.end - span.start
        _CURRENT.reset(token)
        TRACER._record(span)
        timer.observe(handle.seconds)


def current_span() -> Span | _NoopSpan:
    """The active span, or the no-op span — always safe to set attributes on."""
    active = TRACER.current()
    return active if active is not None else NOOP_SPAN


def annotate(key: str, value: object) -> None:
    """Set an attribute on the active span, if tracing is on and one is open.

    The single call instrumented chokepoints use (route selection, cache
    lookups): one flag check when tracing is off.
    """
    if not TRACER.enabled:
        return
    active = TRACER.current()
    if active is not None:
        active.set_attribute(key, value)
