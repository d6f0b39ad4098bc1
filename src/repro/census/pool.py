"""A multiprocessing pool that survives its workers.

``concurrent.futures.ProcessPoolExecutor`` is permanently broken the moment
one worker dies (``BrokenProcessPool``), and it has no per-task wall-clock
timeout — both fatal flaws for a corpus census, where a single pathological
formula may segfault the interpreter, ``os._exit`` from a C extension, or
simply never terminate.  :class:`CrashIsolatedPool` keeps one pipe per
worker and supervises them directly:

* each worker holds at most one task; the supervisor knows exactly which
  task a dead worker was holding, so the crash is charged to the right row;
* a worker that dies (EOF on its pipe) yields a ``crashed`` outcome and a
  replacement worker — the pool replenishes and the run continues;
* a task that outlives ``timeout`` seconds gets its worker killed and a
  ``timeout`` outcome; the remaining tasks are unaffected;
* an exception *inside* the worker function, or a payload or result that
  will not pickle, comes back as an ``error`` outcome (the worker survives
  and is reused).

Each :meth:`~CrashIsolatedPool.map` spawns its workers and joins them before
it returns (the census), unless :meth:`~CrashIsolatedPool.start` made the
pool persistent: its workers then serve every ``map`` until
:meth:`~CrashIsolatedPool.close` (the evaluation engine's ``process``
executor).

Workers are plain processes from a configurable start method (``fork`` where
available, else ``spawn``); the worker function and initializer must be
module-level callables so they pickle under ``spawn``.  Results are opaque
to the pool — callers interpret them (the census runner and the engine ship
span payloads and metrics deltas through here).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Sequence

from repro.engine.metrics import METRICS

#: Outcome statuses, in the order they appear in census CSVs.
STATUS_OK = "ok"
STATUS_ERROR = "error"  # worker function raised; worker survived
STATUS_CRASHED = "crashed"  # worker process died mid-task
STATUS_TIMEOUT = "timeout"  # task exceeded the wall-clock budget

_FAILURE_COUNTERS = {
    STATUS_ERROR: "census.pool.errors",
    STATUS_CRASHED: "census.pool.crashed",
    STATUS_TIMEOUT: "census.pool.timeouts",
}


@dataclass(frozen=True, slots=True)
class TaskOutcome:
    """What happened to one task: a result, or how it failed."""

    index: int
    status: str  # one of STATUS_OK / STATUS_ERROR / STATUS_CRASHED / STATUS_TIMEOUT
    result: Any | None
    error: str | None
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_task(worker: Callable, index: int, payload: Any) -> TaskOutcome:
    """One task in this process: its result, or what it raised as ``error``."""
    start = time.perf_counter()
    try:
        return TaskOutcome(index, STATUS_OK, worker(payload), None, time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 — must reach the supervisor
        return TaskOutcome(index, STATUS_ERROR, None, _describe(exc), time.perf_counter() - start)


def _worker_loop(conn, worker: Callable, initializer: Callable | None) -> None:
    """Worker main: one task per message until the ``None`` shutdown pill."""
    try:
        if initializer is not None:
            initializer()
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message is None:
                return
            reply = run_task(worker, *message)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return  # supervisor is gone; nothing left to report to
            except Exception as exc:  # noqa: BLE001 — the result will not pickle
                error = _describe(exc)
                conn.send(TaskOutcome(reply.index, STATUS_ERROR, None, error, reply.wall_seconds))
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Slot:
    """One supervised worker: its process, its pipe, and its current task."""

    __slots__ = ("process", "conn", "task", "started", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: int | None = None
        self.started: float = 0.0
        self.deadline: float | None = None


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast, shares warm imports),
    else ``spawn``.  Either way the census output is identical — seeds and
    results are derived per formula, never from worker state."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class CrashIsolatedPool:
    """Map a worker function over payloads; no failure sinks the run.

    Parameters
    ----------
    worker:
        Module-level callable ``payload -> result`` (picklable).
    jobs:
        Number of worker processes (default: ``os.cpu_count()``, capped at 8
        — census tasks are CPU-bound and oversubscription only adds memory).
    timeout:
        Per-task wall-clock budget in seconds; ``None`` disables the budget.
    start_method:
        ``"fork"``, ``"spawn"`` or ``"forkserver"``; default picks
        :func:`default_start_method`.
    initializer:
        Optional module-level callable run once in each fresh worker
        (including replacements spawned after a crash).
    on_outcome:
        Optional callable invoked with each :class:`TaskOutcome` the moment
        it lands (success, error, crash or timeout) — :meth:`map` blocks
        until the whole run finishes, so live progress (the census
        heartbeat) must ride this hook.  Runs on the supervising thread; a
        raising hook is counted (``census.pool.callback_errors``) and
        ignored, never fatal.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        *,
        jobs: int | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
        initializer: Callable[[], None] | None = None,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("pool jobs must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("pool timeout must be positive")
        self.worker = worker
        self.jobs = jobs or min(multiprocessing.cpu_count() or 1, 8)
        self.timeout = timeout
        self.initializer = initializer
        self.on_outcome = on_outcome
        #: Live worker-process count, readable from other threads while
        #: :meth:`map` runs (worker-liveness telemetry).
        self.workers_alive = 0
        self._ctx = multiprocessing.get_context(start_method or default_start_method())
        self._slots: list[_Slot] = []
        self._persistent = False
        # One map at a time: the slots and their pipes belong to one run.
        self._lock = threading.RLock()

    def _emit(self, outcome: TaskOutcome) -> None:
        if self.on_outcome is None:
            return
        try:
            self.on_outcome(outcome)
        except Exception:  # noqa: BLE001 — observer must not sink the run
            METRICS.counter("census.pool.callback_errors").inc()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Make the pool persistent: spawn all ``jobs`` workers now and keep
        them, across :meth:`map` calls, until :meth:`close`."""
        with self._lock:
            self._persistent = True
            self._top_up(self.jobs)

    def close(self) -> None:
        """Stop and join every worker; a later :meth:`map` spawns afresh."""
        with self._lock:
            self._persistent = False
            for slot in self._slots:
                try:
                    slot.conn.send(None)  # graceful shutdown pill
                except OSError:
                    pass
                self._retire_slot(slot, kill=False)
            self._slots = []
            self.workers_alive = 0

    def _top_up(self, count: int) -> None:
        while len(self._slots) < count:
            self._slots.append(self._spawn_slot())
        self.workers_alive = len(self._slots)

    def _spawn_slot(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_loop,
            args=(child_conn, self.worker, self.initializer),
            daemon=True,
        )
        process.start()
        # The supervisor must not hold the child's pipe end open, or a dead
        # worker would never read as EOF.
        child_conn.close()
        METRICS.counter("census.pool.workers_started").inc()
        return _Slot(process, parent_conn)

    def _retire_slot(self, slot: _Slot, *, kill: bool) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=5)

    # ------------------------------------------------------------------ map

    def map(self, payloads: Sequence[Any]) -> list[TaskOutcome]:
        """Run every payload; always returns one outcome per payload, in
        payload order, whatever the workers did."""
        if not payloads:
            return []
        with self._lock:
            return self._map(payloads)

    def _map(self, payloads: Sequence[Any]) -> list[TaskOutcome]:
        pending: deque[tuple[int, Any]] = deque(enumerate(payloads))
        outcomes: list[TaskOutcome | None] = [None] * len(payloads)
        slots = self._slots
        self._top_up(min(self.jobs, len(payloads)))
        remaining = len(payloads)
        try:
            while remaining:
                self._fill_idle_slots(slots, pending, outcomes)
                busy = [slot for slot in slots if slot.task is not None]
                if not busy:
                    break  # every task accounted for (or unassignable)
                self._collect(slots, busy, pending, outcomes)
                self.workers_alive = sum(
                    1 for slot in slots if slot.process.is_alive()
                )
                remaining = sum(1 for outcome in outcomes if outcome is None)
        finally:
            # A worker still holding a task (the run was interrupted) would
            # answer into the next run: kill it.
            for slot in [slot for slot in slots if slot.task is not None]:
                self._retire_slot(slot, kill=True)
                slots.remove(slot)
            if not self._persistent:
                self.close()
            self.workers_alive = len(self._slots)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------ internals

    def _fill_idle_slots(
        self, slots: list[_Slot], pending: deque, outcomes: list[TaskOutcome | None]
    ) -> None:
        if pending and not slots:
            slots.append(self._spawn_slot())
        for position, slot in enumerate(slots):
            while slot.task is None and pending:
                index, payload = pending.popleft()
                try:
                    slot.conn.send((index, payload))
                except (BrokenPipeError, OSError):
                    # The worker died between tasks: nothing was lost, the
                    # task just needs a healthy worker.
                    pending.appendleft((index, payload))
                    self._retire_slot(slot, kill=True)
                    METRICS.counter("census.pool.respawns").inc()
                    slot = slots[position] = self._spawn_slot()
                    continue
                except Exception as exc:  # noqa: BLE001 — the payload will not pickle
                    # Pickling precedes the write: nothing reached the worker.
                    failed = TaskOutcome(index, STATUS_ERROR, None, _describe(exc), 0.0)
                    self._settle(outcomes, failed)
                    continue
                slot.task = index
                slot.started = time.monotonic()
                slot.deadline = (
                    slot.started + self.timeout if self.timeout is not None else None
                )

    def _collect(
        self,
        slots: list[_Slot],
        busy: list[_Slot],
        pending: deque,
        outcomes: list[TaskOutcome | None],
    ) -> None:
        now = time.monotonic()
        deadlines = [slot.deadline for slot in busy if slot.deadline is not None]
        wait_timeout = max(0.0, min(deadlines) - now) if deadlines else None
        ready = connection.wait([slot.conn for slot in busy], timeout=wait_timeout)
        for conn in ready:
            slot = next(s for s in slots if s.conn is conn)
            self._receive(slot, slots, pending, outcomes)
        now = time.monotonic()
        for slot in list(slots):
            if (
                slot.task is not None
                and slot.deadline is not None
                and now >= slot.deadline
            ):
                error = f"timed out after {self.timeout:.1f}s"
                self._fail_held(slot, slots, pending, outcomes, STATUS_TIMEOUT, error)

    def _receive(
        self,
        slot: _Slot,
        slots: list[_Slot],
        pending: deque,
        outcomes: list[TaskOutcome | None],
    ) -> None:
        try:
            outcome = slot.conn.recv()
        except (EOFError, OSError):
            # Worker died mid-task (os._exit, segfault, OOM-kill): charge the
            # held task, replace the worker, keep going.
            self._fail_held(slot, slots, pending, outcomes, STATUS_CRASHED, None)
            return
        self._settle(outcomes, outcome)
        slot.task = None
        slot.deadline = None

    def _fail_held(
        self,
        slot: _Slot,
        slots: list[_Slot],
        pending: deque,
        outcomes: list[TaskOutcome | None],
        status: str,
        error: str | None,
    ) -> None:
        """Kill ``slot``'s worker and charge its task ``status``; replace the
        worker while work is pending, else the pool shrinks by one."""
        wall = time.monotonic() - slot.started
        self._retire_slot(slot, kill=True)
        if slot.task is not None:
            error = error or f"worker died (exitcode {slot.process.exitcode})"
            self._settle(outcomes, TaskOutcome(slot.task, status, None, error, wall))
        METRICS.counter("census.pool.respawns").inc()
        position = slots.index(slot)
        if pending:
            slots[position] = self._spawn_slot()
        else:
            del slots[position]

    def _settle(self, outcomes: list[TaskOutcome | None], outcome: TaskOutcome) -> None:
        """Record one task's outcome, count it if it failed, and report it."""
        outcomes[outcome.index] = outcome
        if not outcome.ok:
            METRICS.counter(_FAILURE_COUNTERS[outcome.status]).inc()
        self._emit(outcome)
