"""The :class:`EvaluationEngine`: batched, deduplicated, parallel evaluation.

A *job* is a small immutable description of one unit of work:

* :class:`ClassifyFormula` — place an LTL+Past formula in the hierarchy;
* :class:`ClassifyOmega` — classify an ω-regular expression;
* :class:`MonitorLasso` — run the three-valued prefix monitor over an
  ultimately-periodic word until the verdict is final (or provably stuck);
* :class:`ModelCheck` — check a fair transition system against a formula.

``EvaluationEngine.run`` takes a batch of jobs, collapses structurally
equal work (two jobs with the same :meth:`Job.key` are evaluated once),
runs the unique jobs here (``serial``) or on the engine's one persistent
crash-isolated worker pool (``process``), and returns one
:class:`JobResult` per input job, in input order; a failing job fails
alone, with a typed status.  Evaluation is write-through on the
:mod:`repro.engine.cache` bank (a worker's own, under ``process``), so a
warm engine answers repeat batches from memory.

Jobs are pure and results are values, so serial and process execution
return identical results; the tests assert this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from repro.engine.cache import CACHES, CacheBank, CacheStats, cached_classify_formula, cached_omega_language
from repro.engine.metrics import METRICS, MetricsRegistry
from repro.logic.ast import Formula
from repro.obs.spans import TRACER, SpanContext, adopt_shipped, annotate, run_shipped, stage

EXECUTORS = ("serial", "process")


def _parse(formula: Formula | str) -> Formula:
    if isinstance(formula, Formula):
        return formula
    from repro.logic import parse_formula

    return parse_formula(formula)


def _alphabet_for(formula: Formula, props: tuple[str, ...] | None):
    from repro.core.classifier import default_alphabet
    from repro.words import Alphabet

    if props:
        return Alphabet.powerset_of_propositions(props)
    return default_alphabet(formula)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class Job:
    """Base class for engine jobs; subclasses are frozen dataclasses."""

    kind = "job"

    def key(self) -> Hashable:
        """The structural deduplication key; equal keys ⇒ identical results."""
        raise NotImplementedError

    def evaluate(self, bank: CacheBank) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class ClassifyFormula(Job):
    """Classify one temporal formula (optionally over an explicit universe)."""

    formula: Formula | str
    props: tuple[str, ...] | None = None

    kind = "classify-formula"

    def key(self) -> Hashable:
        return (self.kind, _parse(self.formula), self.props)

    def evaluate(self, bank: CacheBank):
        formula = _parse(self.formula)
        return cached_classify_formula(formula, _alphabet_for(formula, self.props), bank=bank)


@dataclass(frozen=True)
class ClassifyOmega(Job):
    """Classify an ω-regular expression over a letter alphabet."""

    expression: str
    letters: str = "ab"

    kind = "classify-omega"

    def key(self) -> Hashable:
        return (self.kind, self.expression, self.letters)

    def evaluate(self, bank: CacheBank):
        from repro.omega.classify import classify as classify_automaton
        from repro.words import Alphabet

        alphabet = Alphabet.from_letters(self.letters)
        automaton = cached_omega_language(self.expression, alphabet, bank=bank)
        return classify_automaton(automaton)


@dataclass(frozen=True)
class MonitorLasso(Job):
    """Monitor ``stem · loop^ω`` against a formula until the verdict settles.

    The monitor is fed the stem, then copies of the loop until either the
    verdict leaves PENDING (it is then final) or the automaton state at the
    loop boundary repeats (the verdict is then PENDING forever).
    """

    formula: Formula | str
    stem: tuple = ()
    loop: tuple = ()
    props: tuple[str, ...] | None = None

    kind = "monitor-lasso"

    def key(self) -> Hashable:
        return (self.kind, _parse(self.formula), tuple(self.stem), tuple(self.loop), self.props)

    def evaluate(self, bank: CacheBank):
        from repro.core.monitor import PrefixMonitor, Verdict3
        from repro.engine.cache import cached_formula_to_automaton

        if not self.loop:
            raise ValueError("a lasso job needs a non-empty loop")
        formula = _parse(self.formula)
        automaton = cached_formula_to_automaton(
            formula, _alphabet_for(formula, self.props), bank=bank
        )
        monitor = PrefixMonitor(automaton)
        verdict = monitor.feed(self.stem)
        seen_states = {monitor.state}
        while verdict is Verdict3.PENDING:
            verdict = monitor.feed(self.loop)
            if verdict is not Verdict3.PENDING or monitor.state in seen_states:
                break
            seen_states.add(monitor.state)
        return MonitorOutcome(verdict=verdict, position=monitor.position)


@dataclass(frozen=True)
class MonitorOutcome:
    """Result of a :class:`MonitorLasso` job."""

    verdict: Any
    position: int


@dataclass(frozen=True)
class ModelCheck(Job):
    """Model-check a fair transition system against a formula.

    Systems hash by identity, so two jobs dedupe only when they share the
    *same* system object — structural system equality is out of scope.
    """

    system: Any
    formula: Formula | str

    kind = "model-check"

    def key(self) -> Hashable:
        return (self.kind, self.system, _parse(self.formula))

    def evaluate(self, bank: CacheBank):
        from repro.systems import check

        return check(self.system, _parse(self.formula))


# ---------------------------------------------------------------------------
# Results and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobResult:
    """One job's outcome: ``status`` (``ok``, ``error`` or, when its pool
    worker died, ``crashed``), the value or the error, plus provenance."""

    index: int
    job: Job
    status: str
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    deduped: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> Any:
        if not self.ok:
            raise RuntimeError(f"job {self.index} ({self.job.kind}) failed: {self.error}")
        return self.value


@dataclass
class BatchReport:
    """Everything ``EvaluationEngine.run`` knows about one batch."""

    results: list[JobResult]
    executor: str
    wall_seconds: float
    unique_jobs: int
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)

    @property
    def total_jobs(self) -> int:
        return len(self.results)

    @property
    def deduplicated(self) -> int:
        return self.total_jobs - self.unique_jobs

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def values(self) -> list[Any]:
        return [r.unwrap() for r in self.results]

    def class_counts(self) -> dict[str, int]:
        """Per-hierarchy-class counts over the classification results."""
        counts: dict[str, int] = {}
        for result in self.results:
            if not result.ok:
                counts["<error>"] = counts.get("<error>", 0) + 1
                continue
            value = result.value
            canonical = getattr(value, "canonical_class", None) or getattr(
                value, "canonical", None
            )
            if canonical is not None:
                name = canonical.value
                counts[name] = counts.get(name, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"jobs:        {self.total_jobs} ({self.unique_jobs} unique,"
            f" {self.deduplicated} deduplicated)",
            f"executor:    {self.executor}",
            f"wall time:   {self.wall_seconds*1e3:.1f}ms"
            + (
                f" ({self.wall_seconds*1e3/self.total_jobs:.2f}ms/job)"
                if self.total_jobs
                else ""
            ),
        ]
        counts = self.class_counts()
        if counts:
            lines.append("classes:")
            for name in sorted(counts):
                lines.append(f"  {name:14s} {counts[name]}")
        if self.failures:
            lines.append(f"failures:    {len(self.failures)}")
            for result in self.failures[:5]:
                lines.append(f"  job {result.index}: {result.error}")
        if self.cache_stats:
            lines.append("caches:")
            for name in sorted(self.cache_stats):
                lines.append(f"  {self.cache_stats[name].line()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _evaluate_job(job: Job, bank: CacheBank) -> tuple:
    """``(status, value, error, seconds)`` for one job; a raising job is a
    failed outcome, never a failed batch.  The caller counts failures, so a
    worker's failure is counted once whether or not its metrics ship home."""
    start = time.perf_counter()
    try:
        return "ok", job.evaluate(bank), None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 — batch jobs must not kill the batch
        error = f"{type(exc).__name__}: {exc}"
        annotate("error", error)
        return "error", None, error, time.perf_counter() - start


def _pool_task(payload: tuple) -> tuple:
    """Pool worker: one job on the worker's own cache bank, traced home."""
    job, parent = payload
    return run_shipped(
        parent, "engine.job", _evaluate_job, job, CACHES,
        kind=job.kind, executor="process",
    )


def _pool_worker_init() -> None:
    # A worker forked while tracing must not keep the inherited spans.
    TRACER.disable()
    TRACER.clear()


class EvaluationEngine:
    """Batched, deduplicated, optionally parallel property evaluation.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) or ``"process"``: batches with two or more
        unique jobs run on one persistent ``repro.census.pool`` worker pool,
        started on first use (or by :meth:`start`) and joined by
        :meth:`close`; its workers keep their own caches warm.  A job whose
        worker dies fails alone (``crashed``) and is not re-run.
    max_workers:
        Pool size; ``None`` lets the pool pick (CPU count, at most 8).
    dedupe:
        Collapse structurally equal jobs before evaluation (default on).
    """

    def __init__(
        self,
        *,
        executor: str = "serial",
        max_workers: int | None = None,
        dedupe: bool = True,
        bank: CacheBank | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; pick one of {EXECUTORS}")
        self.executor = executor
        self.max_workers = max_workers
        self.dedupe = dedupe
        self.bank = bank or CACHES
        self.metrics = metrics or METRICS
        self._pool = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the ``process`` pool now, not on the first parallel batch;
        it forks, so a threaded host calls this before starting threads."""
        with self._pool_lock:
            if self.executor == "process" and self._pool is None:
                from repro.census.pool import CrashIsolatedPool

                self._pool = CrashIsolatedPool(
                    _pool_task, jobs=self.max_workers, initializer=_pool_worker_init
                )
                self._pool.start()

    def close(self) -> None:
        """Join the pool's workers; a later parallel batch starts a new pool."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> EvaluationEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ run

    def run(self, jobs: Sequence[Job]) -> BatchReport:
        """Evaluate a batch; one result per job, in input order."""
        jobs = list(jobs)
        with stage(
            "engine.batch", metrics=self.metrics, executor=self.executor, jobs=len(jobs)
        ) as batch:
            executor_used, results, unique = self._run(jobs)
            batch.set_attribute("unique", unique)
            batch.set_attribute("executor_used", executor_used)
        self.metrics.counter("engine.jobs").inc(len(jobs))
        self.metrics.counter("engine.jobs_deduplicated").inc(len(jobs) - unique)
        return BatchReport(
            results=results,
            executor=executor_used,
            wall_seconds=batch.seconds,
            unique_jobs=unique,
            cache_stats=self.bank.stats(),
        )

    def _run(self, jobs: list[Job]) -> tuple[str, list[JobResult], int]:
        """Deduplicate, evaluate the unique jobs, and fan results back out;
        returns ``(executor used, one result per job, unique job count)``."""
        # Deduplicate structurally equal work.  Unkeyable jobs (e.g. a parse
        # error inside key()) stay unique and surface their error on evaluate.
        unique_order: list[Job] = []
        position_of: dict[Hashable, int] = {}
        job_positions: list[int] = []
        for job in jobs:
            try:
                key = job.key() if self.dedupe else None
            except Exception:  # noqa: BLE001
                key = None
            if key is not None and key in position_of:
                job_positions.append(position_of[key])
                continue
            if key is not None:
                position_of[key] = len(unique_order)
            job_positions.append(len(unique_order))
            unique_order.append(job)

        executor_used, outcomes = self._evaluate(unique_order)
        failed = sum(outcome[0] != "ok" for outcome in outcomes)
        if failed:
            self.metrics.counter("engine.job_errors").inc(failed)

        # Each outcome is (status, value, error, seconds), JobResult's order;
        # later copies of a deduplicated job are flagged, never the first.
        results: list[JobResult] = []
        owners: set[int] = set()
        for index, position in enumerate(job_positions):
            deduped = position in owners
            owners.add(position)
            results.append(JobResult(index, jobs[index], *outcomes[position], deduped=deduped))
        return executor_used, results, len(unique_order)

    # ------------------------------------------------------------ execution

    def _evaluate(self, unique_jobs: list[Job]) -> tuple[str, list[tuple]]:
        if self.executor == "serial" or len(unique_jobs) <= 1:
            outcomes = []
            for job in unique_jobs:
                with TRACER.span("engine.job", kind=job.kind, executor="serial"):
                    outcomes.append(_evaluate_job(job, self.bank))
            return "serial", outcomes
        self.start()
        # Workers cannot see this span context: its ids travel with each job.
        parent = TRACER.capture() if TRACER.enabled else None
        shipped_parent = (parent.trace_id, parent.span_id) if parent else None
        outcomes = self._pool.map([(job, shipped_parent) for job in unique_jobs])
        return "process", [self._absorb(outcome, parent) for outcome in outcomes]

    def _absorb(self, outcome, parent: SpanContext | None) -> tuple:
        """A pool outcome as ``(status, value, error, seconds)``; a task the
        pool failed (unpicklable, worker died) keeps the pool's status."""
        if not outcome.ok:
            return outcome.status, None, outcome.error, outcome.wall_seconds
        result, spans, metrics_delta = outcome.result
        adopt_shipped(spans, metrics_delta, parent, self.metrics)
        return result

    # --------------------------------------------------------- conveniences

    def classify_formulas(
        self, formulas: Sequence[Formula | str], props: Sequence[str] | None = None
    ) -> BatchReport:
        props_t = tuple(props) if props else None
        return self.run([ClassifyFormula(formula, props_t) for formula in formulas])

    def classify_expressions(
        self, expressions: Sequence[str], letters: str = "ab"
    ) -> BatchReport:
        return self.run([ClassifyOmega(expression, letters) for expression in expressions])
