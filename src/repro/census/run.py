"""Running the census: every corpus formula through the full pipeline.

One :class:`CensusRow` per unique formula, in corpus order, each recording

* the hierarchy verdict — canonical class, the six membership flags,
  liveness (and uniform liveness where decidable);
* the Wagner measurements — Streett index and obligation degree;
* the syntactic view — fragment class and literal normal form, so the
  census doubles as a syntactic-vs-semantic agreement table;
* automaton sizes per route — the GPVW NBA, the Safra DRA it determinizes
  to, the color-respecting quotient of that DRA, and the automaton the
  engine's own (fast-path-aware) compilation route produced;
* wall-clock time and a status: ``ok``, ``error`` (the pipeline raised),
  ``crashed`` (the worker process died), or ``timeout``.

Everything but ``wall_ms`` is a pure function of the formula, so two census
runs over the same corpus are byte-identical modulo the wall-time column —
that determinism is what makes the committed baseline a regression gate.

The worker function classifies a general-route formula on the quotient it
already built for the size columns (one GPVW → Safra run per formula),
reuses the engine's cache bank (worker-local) otherwise, and ships span payloads
plus a metrics snapshot delta back to the supervisor exactly like the
evaluation engine's process executor does.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.census.corpus import CorpusEntry
from repro.census.pool import (
    STATUS_ERROR,
    STATUS_OK,
    CrashIsolatedPool,
    TaskOutcome,
)
from repro.engine.metrics import METRICS, snapshot_delta
from repro.obs.spans import TRACER, stage

#: Environment hook for the crash-isolation acceptance tests: set to
#: ``crash:<formula>``, ``hang:<formula>`` or ``raise:<formula>`` and the
#: worker holding exactly that canonical formula text will die / sleep
#: forever / raise — proving one poison formula flips one row and nothing
#: else.  See docs/CENSUS.md.
POISON_ENV = "REPRO_CENSUS_POISON"

#: CSV schema, in column order.  ``wall_ms`` is the only nondeterministic
#: column; ``census --check`` ignores it (and ``source``/``count``, which
#: describe the corpus rather than the property).
CENSUS_COLUMNS = (
    "formula",
    "source",
    "count",
    "status",
    "class",
    "safety",
    "guarantee",
    "obligation",
    "recurrence",
    "persistence",
    "reactivity",
    "liveness",
    "uniform_liveness",
    "streett_index",
    "obligation_degree",
    "syntactic",
    "normal_form",
    "nba_states",
    "dra_states",
    "quotient_states",
    "automaton_states",
    "wall_ms",
    "error",
)


@dataclass(frozen=True, slots=True)
class CensusRow:
    """One census line; every field serializes to one CSV cell."""

    formula: str
    source: str
    count: int
    status: str
    class_: str = ""
    safety: bool | None = None
    guarantee: bool | None = None
    obligation: bool | None = None
    recurrence: bool | None = None
    persistence: bool | None = None
    reactivity: bool | None = None
    liveness: bool | None = None
    uniform_liveness: bool | None = None
    streett_index: int | None = None
    obligation_degree: int | None = None
    syntactic: str = ""
    normal_form: str = ""
    nba_states: int | None = None
    dra_states: int | None = None
    quotient_states: int | None = None
    automaton_states: int | None = None
    wall_ms: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_cells(self) -> list[str]:
        cells = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, float):
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        return cells


@dataclass
class CensusReport:
    """One census run: ordered rows plus run-level accounting."""

    rows: list[CensusRow]
    wall_seconds: float
    jobs: int
    timeout: float | None

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.status] = counts.get(row.status, 0) + 1
        return counts

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            if row.ok:
                counts[row.class_] = counts.get(row.class_, 0) + 1
        return counts

    def render(self) -> str:
        lines = [
            f"formulas:   {len(self.rows)}"
            f" ({sum(row.count for row in self.rows)} occurrences)",
            "status:     "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.status_counts().items())),
        ]
        classes = self.class_counts()
        if classes:
            lines.append(
                "classes:    "
                + ", ".join(f"{k}={v}" for k, v in sorted(classes.items()))
            )
            live = sum(1 for row in self.rows if row.ok and row.liveness)
            lines.append(f"liveness:   {live}")
            lines.append(
                "sizes:      "
                + " ".join(
                    f"{name}≤{max(getattr(row, name) for row in self.rows if row.ok)}"
                    for name in (
                        "nba_states",
                        "dra_states",
                        "quotient_states",
                        "automaton_states",
                    )
                )
            )
        lines.append(
            f"wall time:  {self.wall_seconds:.2f}s"
            f"  (jobs={self.jobs}"
            + (f", timeout={self.timeout:g}s)" if self.timeout else ")")
        )
        for row in self.rows:
            if not row.ok:
                lines.append(f"  {row.status}: {row.formula}  ({row.error})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------


def _apply_poison(text: str) -> None:
    """Test hook: fault injection keyed on the exact canonical formula."""
    poison = os.environ.get(POISON_ENV, "")
    if not poison:
        return
    mode, _, target = poison.partition(":")
    if text != target:
        return
    if mode == "crash":
        os._exit(13)
    elif mode == "hang":
        time.sleep(3600)
    elif mode == "raise":
        raise RuntimeError("poisoned formula (REPRO_CENSUS_POISON)")


def _measure(text: str) -> dict:
    """The pure measurement: one formula → one dict of row fields.

    The size columns come from the census's own GPVW → Safra → quotient
    chain.  A general-route formula compiles to exactly that quotient, so
    its report is built from it; any other formula is classified through
    the worker-process-local engine cache bank on its own route.
    """
    from repro.core.classes import TemporalClass
    from repro.core.classifier import (
        ROUTE_SAFRA,
        default_alphabet,
        formula_report,
        formula_route,
    )
    from repro.engine.cache import cached_classify_formula, cached_formula_to_nba
    from repro.logic.parser import parse_formula
    from repro.omega.reduce import quotient_reduce
    from repro.omega.safra import determinize

    _apply_poison(text)
    formula = parse_formula(text)
    alphabet = default_alphabet(formula)
    nba = cached_formula_to_nba(formula, alphabet)
    dra = determinize(nba)
    quotient = quotient_reduce(dra)
    if formula_route(formula).id == ROUTE_SAFRA:
        report = formula_report(formula, alphabet, quotient)
    else:
        report = cached_classify_formula(formula, alphabet)
    membership = report.semantic.membership
    return {
        "class_": report.canonical_class.value,
        "safety": membership[TemporalClass.SAFETY],
        "guarantee": membership[TemporalClass.GUARANTEE],
        "obligation": membership[TemporalClass.OBLIGATION],
        "recurrence": membership[TemporalClass.RECURRENCE],
        "persistence": membership[TemporalClass.PERSISTENCE],
        "reactivity": membership[TemporalClass.REACTIVITY],
        "liveness": report.is_liveness,
        "uniform_liveness": report.is_uniform_liveness,
        "streett_index": report.streett_index,
        "obligation_degree": report.obligation_degree,
        "syntactic": report.syntactic.fragment_class.value,
        "normal_form": (
            report.syntactic.normal_form.value if report.syntactic.normal_form else ""
        ),
        "nba_states": nba.num_states,
        "dra_states": dra.num_states,
        "quotient_states": quotient.num_states,
        "automaton_states": report.automaton.num_states,
    }


def classify_task(payload: dict) -> dict:
    """Pool worker: measure one formula, optionally under a shipped-home span.

    ``payload`` is ``{"text": ..., "parent": (trace_id, span_id) | None}``;
    the reply carries the measurement plus, when tracing, the worker's span
    payloads and metrics delta for supervisor-side re-stitching (the same
    contract as the evaluation engine's process executor).
    """
    text = payload["text"]
    parent = payload.get("parent")
    if parent is None:
        return {"fields": _measure(text), "spans": None, "metrics": None}
    if not TRACER.enabled:
        TRACER.enable()
    mark = len(TRACER)
    before = METRICS.snapshot()
    with TRACER.span("census.formula", formula=text):
        result = _measure(text)
    return {
        "fields": result,
        "spans": TRACER.export_payloads(since=mark),
        "metrics": snapshot_delta(before, METRICS.snapshot()),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _row_from_outcome(entry: CorpusEntry, outcome: TaskOutcome) -> CensusRow:
    if outcome.status == STATUS_OK:
        return CensusRow(
            formula=entry.text,
            source=entry.source,
            count=entry.count,
            status=STATUS_OK,
            wall_ms=outcome.wall_seconds * 1e3,
            **outcome.result["fields"],
        )
    return CensusRow(
        formula=entry.text,
        source=entry.source,
        count=entry.count,
        status=outcome.status,
        wall_ms=outcome.wall_seconds * 1e3,
        error=outcome.error or "",
    )


def run_census(
    entries: Sequence[CorpusEntry],
    *,
    jobs: int | None = None,
    timeout: float | None = 60.0,
    serial: bool = False,
    start_method: str | None = None,
    on_row: Callable[[CensusRow], None] | None = None,
) -> CensusReport:
    """Classify every corpus entry; never let one entry sink the run.

    ``serial=True`` runs in-process (no isolation, no timeout — exceptions
    still become ``error`` rows), which is what the differential tests use
    to compare census rows against direct engine calls bit for bit.
    """
    from repro.obs.telemetry.heartbeat import heartbeat

    with stage("census.run", formulas=len(entries), serial=serial) as run, heartbeat(
        "census", total=len(entries)
    ) as beat:
        parent = TRACER.capture() if TRACER.enabled else None
        parent_tuple = (parent.trace_id, parent.span_id) if parent else None
        payloads = [{"text": entry.text, "parent": parent_tuple} for entry in entries]
        if serial:
            outcomes = []
            for index, payload in enumerate(payloads):
                outcome = _serial_outcome(index, payload)
                beat.advance(errors=0 if outcome.ok else 1)
                outcomes.append(outcome)
            jobs_used = 1
        else:
            pool = CrashIsolatedPool(
                classify_task,
                jobs=jobs,
                timeout=timeout,
                start_method=start_method,
            )

            def _beat_outcome(outcome: TaskOutcome) -> None:
                # map() blocks until the run ends, so liveness telemetry
                # (rows/s, ETA, live worker count) rides the pool's hook.
                beat.advance(errors=0 if outcome.ok else 1)
                beat.set_workers(pool.workers_alive)

            pool.on_outcome = _beat_outcome
            jobs_used = pool.jobs
            outcomes = pool.map(payloads)
        rows = []
        for entry, outcome in zip(entries, outcomes):
            if outcome.ok and not serial:
                if outcome.result.get("spans"):
                    TRACER.adopt(outcome.result["spans"], parent)
                if outcome.result.get("metrics"):
                    METRICS.merge_snapshot(outcome.result["metrics"])
            row = _row_from_outcome(entry, outcome)
            rows.append(row)
            METRICS.counter(f"census.rows.{row.status}").inc()
            if on_row is not None:
                on_row(row)
        rows_ok = sum(1 for row in rows if row.ok)
        run.set_attribute("ok", rows_ok == len(rows))
        run.set_attribute("rows_ok", rows_ok)
    return CensusReport(
        rows=rows, wall_seconds=run.seconds, jobs=0 if serial else jobs_used, timeout=timeout
    )


def _serial_outcome(index: int, payload: dict) -> TaskOutcome:
    start = time.perf_counter()
    try:
        result = classify_task(payload)
        return TaskOutcome(index, STATUS_OK, result, None, time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 — serial rows degrade like pool rows
        return TaskOutcome(
            index,
            STATUS_ERROR,
            None,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
        )


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def write_census_csv(rows: Iterable[CensusRow], path: Path | str) -> int:
    """Write the census deterministically; returns the row count."""
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CENSUS_COLUMNS)
        for row in rows:
            writer.writerow(row.as_cells())
    return len(rows)


def read_census_csv(path: Path | str) -> list[dict[str, str]]:
    """Read a census CSV back as one raw-string dict per row.

    Raw strings on purpose: the baseline check compares *serialized* cells,
    so a formatting change in any column is a diff, not a silent coercion.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"census CSV {path} is empty") from None
        if header != list(CENSUS_COLUMNS):
            raise ValueError(
                f"census CSV {path} has unexpected columns {header!r}"
                f" (expected {list(CENSUS_COLUMNS)!r})"
            )
        return [dict(zip(header, cells)) for cells in reader]
