"""The asyncio server core: accept → batch → dispatch → store → respond.

One :class:`ClassificationServer` owns four cooperating pieces:

* **accept** — an asyncio TCP (or unix-domain) server reads newline-framed
  JSON requests per connection.  ``stats``/``health`` are answered inline;
  ``classify``/``explain`` pass *admission control*: a draining server, a
  saturated ``max_inflight``, or an exhausted per-client quota each answer
  immediately with a typed, retryable error frame — backpressure is a
  protocol feature, never a hang or a reset.
* **batch** — admitted work lands on a queue; the dispatcher collects it
  into batching windows (first request opens a window of ``window_ms``,
  closed early at ``batch_max``) so one engine run amortizes cache and
  pool overhead over concurrent callers.
* **dispatch** — each window is processed off-loop in a worker thread:
  persistent-store lookups first, then one
  :class:`~repro.engine.batch.EvaluationEngine` run over the misses
  (structural dedupe included).  Under ``--executor process`` the engine
  runs on one crash-isolated worker pool, started before the server's
  threads (the pool forks) and joined at shutdown; a request whose job
  raised or killed its worker gets a non-retryable ``evaluation`` error
  frame while the rest of its window is answered.
* **store** — finished payloads are written through to the
  :class:`~repro.serve.store.PersistentStore`, so the *next* process to
  see these formulas answers from disk instead of re-running GPVW/Safra.

Graceful shutdown (:meth:`ClassificationServer.stop`) stops accepting,
answers new requests with retryable ``draining`` frames, waits for every
in-flight request to be answered, then closes connections and the store.

``repro.obs`` spans wrap each stage (``serve.accept``, ``serve.batch``,
``serve.dispatch``, ``serve.store.*``) and per-request latency lands in
the ``serve.latency_ms`` histogram, exported by the existing Prometheus
renderer — see ``docs/SERVING.md`` for the operations guide.

With tracing on, every request additionally gets a retrospective span
tree — a ``serve.request`` root (parented on the client's wire-propagated
span, when the frame carried a ``trace`` field) with
``serve.stage.{decode,admission,store,engine,encode}`` children — recorded
into the process tracer and the :class:`~repro.obs.telemetry.FlightRecorder`,
and echoed back on the response for client-side adoption.  Per-stage
latency histograms (``serve.stage_ms.*``) are always on.  With
``--telemetry-port`` set, a :class:`~repro.obs.telemetry.TelemetrySidecar`
serves ``/metrics``, ``/healthz``, ``/readyz``, ``/spans/recent``,
``/stats`` and ``/recorder/dump`` beside the service port — see
``docs/OBSERVABILITY.md`` ("Operating the service").
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import repro
from repro.engine.batch import ClassifyFormula, ClassifyOmega, EvaluationEngine, Job
from repro.engine.cache import CacheBank
from repro.engine.metrics import METRICS, MetricsRegistry
from repro.obs.spans import TRACER, Span, SpanContext, span
from repro.obs.telemetry.recorder import FlightRecorder, quantile
from repro.obs.telemetry.sidecar import TelemetrySidecar
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    decode_frame,
    encode_frame,
    error_response,
    explanation_payload,
    ok_response,
    parse_request,
    report_payload,
    verdict_payload,
)
from repro.serve.store import PersistentStore, store_key

#: Buckets for the per-request latency histogram (milliseconds).
LATENCY_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Buckets for the per-stage latency histograms (milliseconds).  Stages are
#: much shorter than whole requests (a decode is microseconds), so the
#: bucket floor sits two orders of magnitude lower.
STAGE_BOUNDS_MS = (0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 2000)

#: How many recent per-verb durations back the stats quantiles (p50/p90/p99).
LATENCY_WINDOW = 512


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``python -m repro serve`` can set from the command line."""

    host: str = "127.0.0.1"
    port: int | None = 0  #: 0 = ephemeral; None with ``socket_path`` set
    socket_path: str | None = None
    store_path: str | None = None
    window_ms: float = 10.0
    batch_max: int = 64
    max_inflight: int = 256
    client_quota: int = 64
    executor: str = "serial"
    max_workers: int | None = None
    drain_timeout: float = 10.0
    #: None = no sidecar; 0 = sidecar on an ephemeral port (published on
    #: :attr:`ClassificationServer.telemetry_port` once started).
    telemetry_port: int | None = None
    telemetry_host: str = "127.0.0.1"
    #: Enable span tracing at startup (per-request span trees, wire
    #: propagation, recorder capture).  Tracing already enabled on the
    #: process tracer is honored either way.
    trace: bool = False
    recorder_capacity: int = 256
    recorder_notable: int = 64


@dataclass(eq=False)  # identity hash: connections live in a set
class _Connection:
    """Per-connection state: the writer, its lock, and the live quota."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    inflight: int = 0
    closed: bool = False


@dataclass
class _WorkItem:
    """One admitted request on its way through batch → dispatch → respond."""

    request_id: Any
    verb: str
    subject: str
    key: str | None
    job: Job | None  # engine-batchable (classify); None for direct work
    compute: Callable[[], dict] | None  # direct payload thunk (explain)
    to_payload: Callable[[Any], dict] | None  # engine value → wire payload
    future: asyncio.Future = field(repr=False, default=None)
    enqueued: float = 0.0
    #: perf_counter at frame arrival — the request span's start.
    t_recv: float = 0.0
    #: stage → (start, end) perf_counter marks, turned into child spans and
    #: ``serve.stage_ms.*`` histogram samples when the response goes out.
    marks: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: the client's open span, when the request carried a ``trace`` field.
    trace_parent: SpanContext | None = None
    #: source of the payload once dispatched ("store" or "computed").
    source: str = ""


class ClassificationServer:
    """The long-lived classification service (see module docstring)."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        bank: CacheBank | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        # A server gets its *own* bank by default: restart semantics (and the
        # smoke test's cold-start phase) must not leak warmth through the
        # process-global CACHES.
        self.bank = bank if bank is not None else CacheBank()
        self.metrics = metrics or METRICS
        self.engine = EvaluationEngine(
            executor=self.config.executor,
            max_workers=self.config.max_workers,
            bank=self.bank,
            metrics=self.metrics,
        )
        self.store: PersistentStore | None = None
        self.port: int | None = None
        self.recorder = FlightRecorder(
            capacity=self.config.recorder_capacity,
            notable_capacity=self.config.recorder_notable,
        )
        self.sidecar: TelemetrySidecar | None = None
        self.telemetry_port: int | None = None
        self._latency: dict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=LATENCY_WINDOW)
        )
        self._latency_lock = threading.Lock()
        # The per-request instruments, resolved once: the registry lookup
        # (a lock plus a dict probe, times seven instruments per request)
        # is measurable at warm-pipeline request rates.
        self._request_timer = self.metrics.timer("serve.request")
        self._latency_hist = self.metrics.histogram(
            "serve.latency_ms", LATENCY_BOUNDS_MS
        )
        self._ok_counter = self.metrics.counter("serve.responses_ok")
        self._error_counter = self.metrics.counter("serve.responses_error")
        self._stage_hists = {
            stage: self.metrics.histogram(f"serve.stage_ms.{stage}", STAGE_BOUNDS_MS)
            for stage in ("decode", "admission", "store", "engine", "encode")
        }
        self._stage_span_names = {
            stage: f"serve.stage.{stage}" for stage in self._stage_hists
        }
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_WorkItem] | None = None
        self._dispatcher: asyncio.Task | None = None
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._draining = False
        self._started_at = 0.0
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._stopping = False

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        # Before any thread of ours exists: the process pool forks.
        self.engine.start()
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        if self.config.store_path:
            self.store = PersistentStore(self.config.store_path, metrics=self.metrics)
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.socket_path, limit=MAX_FRAME_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port or 0,
                limit=MAX_FRAME_BYTES,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.config.trace and not TRACER.enabled:
            TRACER.enable()
        if self.config.telemetry_port is not None:
            self.sidecar = TelemetrySidecar(
                host=self.config.telemetry_host,
                port=self.config.telemetry_port,
                metrics=self.metrics,
                recorder=self.recorder,
                stats_fn=self._stats_payload,
                healthy_fn=self._liveness,
                ready_fn=self._readiness,
            )
            self.sidecar.start()
            self.telemetry_port = self.sidecar.port
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    @property
    def address(self) -> str:
        if self.config.socket_path:
            return f"unix:{self.config.socket_path}"
        return f"{self.config.host}:{self.port}"

    async def wait_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: reject new work, drain in-flight, close."""
        if self._stopping:
            await self.wait_stopped()
            return
        self._stopping = True
        self._draining = True
        if self._server is not None:
            # Let connections the loop has already accepted attach to the
            # server first.  asyncio (3.11) drops a connection whose set-up
            # runs after close() without closing its socket, so its client
            # would wait out its own timeout instead of seeing the hang-up.
            await asyncio.sleep(0)
            self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.counter("serve.drain_timeouts").inc()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        writers = [conn.writer for conn in self._connections]
        for conn in self._connections:
            conn.closed = True
            try:
                conn.writer.close()
            except Exception:  # noqa: BLE001 — already-broken sockets
                pass
        self._connections.clear()
        # Wait until the sockets are really shut, so every client sees the
        # hang-up before this returns and the event loop goes away.
        closing = asyncio.gather(
            *(writer.wait_closed() for writer in writers), return_exceptions=True
        )
        try:
            await asyncio.wait_for(closing, self.config.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.counter("serve.drain_timeouts").inc()
        if self.sidecar is not None:
            # Off-loop: sidecar.stop() joins its serving thread.
            await asyncio.to_thread(self.sidecar.stop)
            self.sidecar = None
        if self.store is not None:
            self.store.close()
        await asyncio.to_thread(self.engine.close)
        self._stopped.set()

    # ----------------------------------------------------------- connections

    def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        """Register a new connection and return the coroutine serving it.

        The stream protocol calls this synchronously when the connection is
        made, before the serving task first runs, so :meth:`stop` sees every
        accepted connection.  One accepted once stopping has begun is closed
        at once.
        """
        with span("serve.accept", draining=self._draining):
            self.metrics.counter("serve.connections").inc()
            conn = _Connection(writer=writer, lock=asyncio.Lock())
            if self._stopping:
                conn.closed = True
                writer.close()
            else:
                self._connections.add(conn)
        return self._serve_connection(conn, reader)

    async def _serve_connection(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> None:
        writer = conn.writer
        try:
            while not conn.closed:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line outgrew the stream limit; the framing is now
                    # unrecoverable mid-line, so answer and hang up.
                    self.metrics.counter("serve.oversized").inc()
                    await self._send(
                        conn,
                        error_response(
                            None, "oversized", f"frame exceeds {MAX_FRAME_BYTES} bytes"
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    self.metrics.counter("serve.client_gone").inc()
                    break
                if not line:
                    break
                await self._handle_line(conn, line)
        finally:
            conn.closed = True
            self._connections.discard(conn)
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        t_recv = time.perf_counter()
        try:
            frame = decode_frame(line)
        except ProtocolError as error:
            self.metrics.counter("serve.bad_frames").inc()
            await self._send(conn, error_response(None, error.code, str(error)))
            return
        raw_id = frame.get("id")
        if not isinstance(raw_id, (str, int, float, bool, type(None))):
            raw_id = None
        try:
            request = parse_request(frame)
        except ProtocolError as error:
            self.metrics.counter("serve.bad_frames").inc()
            await self._send(conn, error_response(raw_id, error.code, str(error)))
            return
        t_decoded = time.perf_counter()
        self.metrics.counter(f"serve.requests.{request.verb}").inc()
        if request.verb == "health":
            await self._send(conn, ok_response(request.id, self._health_payload()))
            return
        if request.verb == "stats":
            await self._send(conn, ok_response(request.id, self._stats_payload()))
            return
        await self._admit(conn, request, decode=(t_recv, t_decoded))

    # -------------------------------------------------------------- admission

    async def _admit(
        self,
        conn: _Connection,
        request: Request,
        *,
        decode: tuple[float, float],
    ) -> None:
        if self._draining:
            self.metrics.counter("serve.rejected.draining").inc()
            await self._send(
                conn,
                error_response(
                    request.id, "draining", "server is shutting down; retry elsewhere"
                ),
            )
            return
        if self._inflight >= self.config.max_inflight:
            self.metrics.counter("serve.rejected.overloaded").inc()
            await self._send(
                conn,
                error_response(
                    request.id,
                    "overloaded",
                    f"server at max inflight ({self.config.max_inflight}); retry later",
                ),
            )
            return
        if conn.inflight >= self.config.client_quota:
            self.metrics.counter("serve.rejected.quota").inc()
            await self._send(
                conn,
                error_response(
                    request.id,
                    "quota",
                    f"client quota ({self.config.client_quota} inflight) exhausted;"
                    " await responses before sending more",
                ),
            )
            return
        try:
            item = self._build_item(request)
        except ProtocolError as error:
            self.metrics.counter("serve.bad_requests").inc()
            await self._send(conn, error_response(request.id, error.code, str(error)))
            return
        except Exception as error:  # noqa: BLE001 — admission must answer
            self.metrics.counter("serve.internal_errors").inc()
            await self._send(
                conn,
                error_response(
                    request.id, "internal", f"{type(error).__name__}: {error}"
                ),
            )
            return
        item.future = asyncio.get_running_loop().create_future()
        item.enqueued = time.perf_counter()
        item.t_recv = decode[0]
        item.marks["decode"] = decode
        item.marks["admission"] = (decode[1], item.enqueued)
        item.trace_parent = request.trace
        self._inflight += 1
        conn.inflight += 1
        self._idle.clear()
        self._queue.put_nowait(item)
        asyncio.create_task(self._respond(conn, item))

    def _build_item(self, request: Request) -> _WorkItem:
        """Parse and key one admitted request (cheap; runs on the loop)."""
        from repro.errors import ReproError
        from repro.logic import parse_formula

        params = request.params
        props = tuple(params["props"]) if params.get("props") else None
        if "formula" in params:
            try:
                formula = parse_formula(params["formula"])
            except ReproError as error:
                message = str(error).splitlines()[0]
                raise ProtocolError("bad-request", f"bad formula: {message}") from None
            subject = repr(formula)
            key = store_key(request.verb, subject, props or ())
            if request.verb == "classify":
                return _WorkItem(
                    request_id=request.id,
                    verb=request.verb,
                    subject=subject,
                    key=key,
                    job=ClassifyFormula(formula, props),
                    compute=None,
                    to_payload=report_payload,
                )
            bank = self.bank

            def compute() -> dict:
                from repro.obs.provenance import explain_formula
                from repro.words import Alphabet

                alphabet = (
                    Alphabet.powerset_of_propositions(props) if props else None
                )
                return explanation_payload(explain_formula(formula, alphabet, bank=bank))

            return _WorkItem(
                request_id=request.id,
                verb=request.verb,
                subject=subject,
                key=key,
                job=None,
                compute=compute,
                to_payload=None,
            )
        expression = params["expression"]
        letters = params.get("letters") or "ab"
        subject = f"omega {letters}: {expression}"
        key = store_key(f"{request.verb}-omega", expression, letters)
        if request.verb == "classify":
            return _WorkItem(
                request_id=request.id,
                verb=request.verb,
                subject=subject,
                key=key,
                job=ClassifyOmega(expression, letters),
                compute=None,
                to_payload=lambda verdict: verdict_payload(subject, verdict),
            )
        bank = self.bank

        def compute_omega() -> dict:
            from repro.obs.provenance import explain_expression

            return explanation_payload(explain_expression(expression, letters, bank=bank))

        return _WorkItem(
            request_id=request.id,
            verb=request.verb,
            subject=subject,
            key=key,
            job=None,
            compute=compute_omega,
            to_payload=None,
        )

    # ------------------------------------------------------------ dispatching

    async def _dispatch_loop(self) -> None:
        """Collect queue items into batching windows and run them off-loop."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            batch = [item]
            deadline = loop.time() + self.config.window_ms / 1000.0
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout=remaining)
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
            self.metrics.histogram("serve.batch_size").observe(len(batch))
            try:
                outcomes = await asyncio.to_thread(self._process_batch, batch)
            except Exception as error:  # noqa: BLE001 — never lose a batch
                self.metrics.counter("serve.internal_errors").inc()
                outcomes = [
                    (entry, False, f"{type(error).__name__}: {error}", "internal")
                    for entry in batch
                ]
            for entry, ok, payload_or_error, source in outcomes:
                if entry.future.done():
                    continue
                entry.source = source
                if ok:
                    response = ok_response(entry.request_id, payload_or_error)
                    response["cached"] = source == "store"
                    entry.future.set_result(response)
                else:
                    code = "internal" if source == "internal" else "evaluation"
                    entry.future.set_result(
                        error_response(entry.request_id, code, payload_or_error)
                    )

    def _process_batch(
        self, batch: list[_WorkItem]
    ) -> list[tuple[_WorkItem, bool, Any, str]]:
        """Worker-thread body: store lookups, one engine run, write-through."""
        with span("serve.batch", size=len(batch)):
            outcomes: list[tuple[_WorkItem, bool, Any, str]] = []
            pending: list[_WorkItem] = []
            for item in batch:
                if self.store is not None and item.key is not None:
                    lookup_start = time.perf_counter()
                    payload = self.store.get(item.key)
                    item.marks["store"] = (lookup_start, time.perf_counter())
                    if payload is not None:
                        outcomes.append((item, True, payload, "store"))
                        continue
                pending.append(item)
            engine_start = time.perf_counter()
            for item, ok, payload_or_error, seconds in self._evaluate(pending):
                # Each miss is charged its own evaluation time (a deduplicated
                # repeat its owner's), anchored at the window's engine start.
                item.marks["engine"] = (engine_start, engine_start + seconds)
                if ok and self.store is not None and item.key is not None:
                    self.store.put(item.key, item.verb, payload_or_error)
                outcomes.append((item, ok, payload_or_error, "computed"))
            return outcomes

    def _evaluate(
        self, items: list[_WorkItem]
    ) -> list[tuple[_WorkItem, bool, Any, float]]:
        """Run one window's store misses: engine for jobs, direct for thunks.

        Each outcome carries the seconds spent evaluating that item.
        """
        if not items:
            return []
        with span("serve.dispatch", size=len(items)):
            outcomes: list[tuple[_WorkItem, bool, Any, float]] = []
            engine_items = [item for item in items if item.job is not None]
            if engine_items:
                report = self.engine.run([item.job for item in engine_items])
                for item, result in zip(engine_items, report.results):
                    outcome = item.to_payload(result.value) if result.ok else result.error
                    outcomes.append((item, result.ok, outcome, result.seconds))
            outcomes.extend(self._compute(item) for item in items if item.job is None)
            return outcomes

    def _compute(self, item: _WorkItem) -> tuple[_WorkItem, bool, Any, float]:
        """Direct work (an explain thunk): one request, on this thread."""
        start = time.perf_counter()
        try:
            return item, True, item.compute(), time.perf_counter() - start
        except Exception as error:  # noqa: BLE001
            return item, False, f"{type(error).__name__}: {error}", time.perf_counter() - start

    # -------------------------------------------------------------- responses

    async def _respond(self, conn: _Connection, item: _WorkItem) -> None:
        try:
            response = await item.future
            elapsed = time.perf_counter() - item.enqueued
            ok = bool(response.get("ok"))
            self._request_timer.observe(elapsed)
            self._latency_hist.observe(elapsed * 1000.0)
            with self._latency_lock:
                self._latency[item.verb].append(elapsed * 1000.0)
            if ok:
                self._ok_counter.inc()
            else:
                self._error_counter.inc()
            root, children = self._request_spans(item, ok=ok)
            if root is not None and item.trace_parent is not None:
                # The client asked for propagation: echo the finished
                # server-side spans so it can adopt them into its trace.
                # (The encode stage closes after the send; it stays
                # server-side only.)
                response["trace"] = {
                    "id": root.trace_id,
                    "spans": [s.as_payload() for s in (root, *children)],
                }
            encode_start = time.perf_counter()
            await self._send(conn, response)
            if root is not None:
                encode_span = TRACER.record_span(
                    "serve.stage.encode",
                    start=encode_start,
                    end=time.perf_counter(),
                    parent=root,
                )
                if encode_span is not None:
                    children = (*children, encode_span)
            self._stage_hists["encode"].observe(
                (time.perf_counter() - encode_start) * 1000.0
            )
            spans = (root, *children) if root is not None else ()
            self.recorder.record(
                request_id=item.request_id,
                verb=item.verb,
                duration_s=time.perf_counter() - item.t_recv,
                spans=spans,
                error=not ok,
            )
        finally:
            self._inflight -= 1
            conn.inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _request_spans(
        self, item: _WorkItem, *, ok: bool
    ) -> tuple[Span | None, tuple[Span, ...]]:
        """The request's span tree, built retrospectively from stage marks.

        The pipeline crosses the event loop, a worker thread, and possibly
        an engine pool, so spans are recorded from ``perf_counter`` marks
        after the fact instead of via the contextvar stack.  The root
        parents on the client's wire-propagated span when one was sent.
        Stage histograms (``serve.stage_ms.*``) are fed here too, so they
        exist even with tracing off.
        """
        now = time.perf_counter()
        stage_hists = self._stage_hists
        for stage, (start, end) in item.marks.items():
            stage_hists[stage].observe((end - start) * 1000.0)
        if not TRACER.enabled:
            return None, ()
        span_names = self._stage_span_names
        return TRACER.record_tree(
            "serve.request",
            start=item.t_recv,
            end=now,
            parent=item.trace_parent,
            status="ok" if ok else "error",
            children=(
                (span_names[stage], start, end)
                for stage, (start, end) in sorted(
                    item.marks.items(), key=lambda entry: entry[1]
                )
            ),
            attributes={
                "verb": item.verb,
                "subject": item.subject,
                "request_id": item.request_id,
                "source": item.source,
            },
        )

    async def _send(self, conn: _Connection, frame: dict) -> None:
        if conn.closed:
            self.metrics.counter("serve.client_gone").inc()
            return
        try:
            async with conn.lock:
                conn.writer.write(encode_frame(frame))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            # Mid-request disconnect: the work still finished (and was
            # stored); only the delivery is lost.
            self.metrics.counter("serve.client_gone").inc()
            conn.closed = True

    # ------------------------------------------------------------- verb bodies

    def _health_payload(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": repro.__version__,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "connections": len(self._connections),
            "executor": self.config.executor,
            "store": self.store.path if self.store is not None else None,
        }

    def _liveness(self) -> tuple[bool, dict[str, Any]]:
        """The sidecar ``/healthz`` hook: alive until draining begins."""
        payload = self._health_payload()
        return not self._draining, payload

    def _readiness(self) -> tuple[bool, dict[str, Any]]:
        """The sidecar ``/readyz`` hook: liveness *and* a live store probe."""
        alive, payload = self._liveness()
        if self.store is not None:
            store_ok = self.store.probe()
            payload["store_ok"] = store_ok
            alive = alive and store_ok
        return alive, payload

    def _latency_quantiles(self) -> dict[str, dict[str, float | int]]:
        """Per-verb p50/p90/p99/max over the recent-latency windows (ms)."""
        with self._latency_lock:
            windows = {verb: list(values) for verb, values in self._latency.items()}
        return {
            verb: {
                "count": len(values),
                "p50": round(quantile(values, 0.50), 3),
                "p90": round(quantile(values, 0.90), 3),
                "p99": round(quantile(values, 0.99), 3),
                "max": round(max(values), 3),
            }
            for verb, values in windows.items()
            if values
        }

    def _stats_payload(self) -> dict[str, Any]:
        cache_stats = {
            name: {
                "hits": stats.hits,
                "misses": stats.misses,
                "size": stats.size,
                "capacity": stats.capacity,
            }
            for name, stats in self.bank.stats().items()
        }
        counters = {
            name: counter
            for name, counter in self.metrics.snapshot()["counters"].items()
            if name.startswith("serve.")
        }
        store_stats = self.store.stats().as_dict() if self.store is not None else None
        return {
            "health": self._health_payload(),
            "caches": cache_stats,
            "store": store_stats,
            "counters": counters,
            "version": repro.__version__,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "store_hit_rate": (
                store_stats["hit_rate"] if store_stats is not None else None
            ),
            "latency_ms": self._latency_quantiles(),
            "telemetry": {
                "trace": TRACER.enabled,
                "sidecar": (
                    f"{self.config.telemetry_host}:{self.telemetry_port}"
                    if self.telemetry_port is not None
                    else None
                ),
                "recorder": self.recorder.stats(),
            },
        }

    def dump_recorder(self, path: str) -> int:
        """Write the flight recorder's JSONL to ``path`` (SIGUSR1 hook);
        returns the span count."""
        count = self.recorder.dump(path)
        self.metrics.counter("serve.recorder_dumps").inc()
        return count


# ---------------------------------------------------------------------------
# Running the server from synchronous code (CLI, tests, bench)
# ---------------------------------------------------------------------------


@dataclass
class ServerHandle:
    """A server running on its own thread/event loop, stoppable from sync code."""

    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    server: ClassificationServer

    @property
    def port(self) -> int | None:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        if not self.thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
        future.result(timeout)
        self.thread.join(timeout)

    def __enter__(self) -> ServerHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    config: ServerConfig | None = None,
    *,
    bank: CacheBank | None = None,
    metrics: MetricsRegistry | None = None,
    timeout: float = 30.0,
) -> ServerHandle:
    """Start a :class:`ClassificationServer` on a daemon thread and wait
    until it accepts connections.  The caller owns :meth:`ServerHandle.stop`."""
    started = threading.Event()
    holder: dict[str, Any] = {}
    failure: list[BaseException] = []

    def runner() -> None:
        async def amain() -> None:
            server = ClassificationServer(config, bank=bank, metrics=metrics)
            try:
                await server.start()
            except BaseException as error:  # noqa: BLE001 — report to caller
                failure.append(error)
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await server.wait_stopped()

        asyncio.run(amain())

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("classification server did not start in time")
    if failure:
        raise failure[0]
    return ServerHandle(thread=thread, loop=holder["loop"], server=holder["server"])
