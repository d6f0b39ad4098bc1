"""The budgeted differential-fuzz runner behind ``python -m repro fuzz``.

A run draws ``budget`` cases from an explicit ``random.Random(seed)``,
cycling round-robin over the selected oracles; every case generates one
subject and checks it through all of the oracle's routes.  Disagreements are
greedily shrunk (:mod:`repro.qa.shrink`) and written to ``qa/corpus/`` as
JSON artifacts, where the tier-1 suite replays them forever after.

Observability rides on the same stages and counters the evaluation engine
uses, so a fuzz run shows up in ``METRICS.report()`` next to the classifier
and Safra timers:

* counters ``qa.fuzz.cases``, ``qa.fuzz.cases.<oracle>``,
  ``qa.fuzz.disagreements``;
* stages (timer + span) ``qa.fuzz.run``, one per run, and ``qa.fuzz.case``,
  one per case; a disagreeing case's span carries its ``detail``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.engine.metrics import METRICS
from repro.obs.spans import stage
from repro.qa.generate import GeneratorConfig, coerce_rng
from repro.qa.oracles import ORACLES, Oracle, oracle_named

_CORPUS_DIR = Path(__file__).parent / "corpus"


@dataclass(frozen=True, slots=True)
class CaseFailure:
    """One disagreement: where it came from and what it shrank to."""

    oracle: str
    case_index: int
    detail: str
    artifact: dict[str, Any]
    shrunk_detail: str
    shrunk_artifact: dict[str, Any]

    def __str__(self) -> str:
        return f"case {self.case_index} [{self.oracle}]: {self.shrunk_detail}"


@dataclass
class FuzzReport:
    """Everything one fuzz run did, ready for the CLI and the tests."""

    seed: int
    budget: int
    oracle_names: tuple[str, ...]
    cases: int = 0
    per_oracle: dict[str, int] = field(default_factory=dict)
    failures: list[CaseFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    artifacts_written: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"seed:          {self.seed}",
            f"budget:        {self.budget} ({self.cases} cases run)",
            f"oracles:       " + ", ".join(self.oracle_names),
            "cases/oracle:  "
            + ", ".join(f"{name}={count}" for name, count in sorted(self.per_oracle.items())),
            f"wall time:     {self.wall_seconds*1e3:.1f}ms",
            f"disagreements: {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append(f"  {failure}")
        for path in self.artifacts_written:
            lines.append(f"  artifact: {path}")
        if self.ok:
            lines.append("all views agree ✓")
        return "\n".join(lines)


def _artifact_for(oracle: Oracle, subject: Any, *, detail: str, seed: int, case: int) -> dict[str, Any]:
    artifact = oracle.to_artifact(subject)
    artifact["oracle"] = oracle.name
    artifact["detail"] = detail
    artifact["seed"] = seed
    artifact["case"] = case
    return artifact


def run_fuzz(
    seed: int = 1990,
    budget: int = 100,
    *,
    oracles: Sequence[str] | None = None,
    shrink: bool = True,
    write_corpus: Path | str | None = None,
    config: GeneratorConfig | None = None,
) -> FuzzReport:
    """Run ``budget`` differential cases; return the full report.

    ``oracles`` selects a subset by name (default: all four); with
    ``write_corpus`` set, each shrunk counterexample is persisted there as a
    JSON artifact the corpus replay test will pick up.
    """
    if budget < 1:
        raise ValueError("fuzz budget must be at least 1")
    config = config or GeneratorConfig()
    names = tuple(oracles) if oracles else tuple(sorted(ORACLES))
    selected = [oracle_named(name) for name in names]
    rng = coerce_rng(seed)
    report = FuzzReport(seed=seed, budget=budget, oracle_names=names)
    with stage("qa.fuzz.run", seed=seed, budget=budget) as run:
        _run_cases(selected, rng, config, report, seed, shrink, write_corpus)
        run.set_attribute("cases", report.cases)
        run.set_attribute("disagreements", len(report.failures))
    report.wall_seconds = run.seconds
    return report


def _run_cases(
    selected: list[Oracle],
    rng,
    config: GeneratorConfig,
    report: FuzzReport,
    seed: int,
    shrink: bool,
    write_corpus: Path | str | None,
) -> None:
    for case_index in range(report.budget):
        oracle = selected[case_index % len(selected)]
        with stage("qa.fuzz.case", oracle=oracle.name, case=case_index) as case:
            subject = oracle.generate(rng, config)
            detail = oracle.check(subject)
            if detail is not None:
                case.set_attribute("detail", detail)
        report.cases += 1
        report.per_oracle[oracle.name] = report.per_oracle.get(oracle.name, 0) + 1
        METRICS.counter("qa.fuzz.cases").inc()
        METRICS.counter(f"qa.fuzz.cases.{oracle.name}").inc()
        if detail is None:
            continue

        METRICS.counter("qa.fuzz.disagreements").inc()
        shrunk = oracle.shrink(subject) if shrink else subject
        shrunk_detail = oracle.check(shrunk) or detail
        failure = CaseFailure(
            oracle=oracle.name,
            case_index=case_index,
            detail=detail,
            artifact=_artifact_for(oracle, subject, detail=detail, seed=seed, case=case_index),
            shrunk_detail=shrunk_detail,
            shrunk_artifact=_artifact_for(
                oracle, shrunk, detail=shrunk_detail, seed=seed, case=case_index
            ),
        )
        report.failures.append(failure)
        if write_corpus is not None:
            report.artifacts_written.append(
                write_artifact(failure.shrunk_artifact, Path(write_corpus))
            )


# ---------------------------------------------------------------------------
# Corpus: shrunk counterexamples as permanent regression artifacts
# ---------------------------------------------------------------------------


def corpus_dir() -> Path:
    """The in-tree corpus directory (``src/repro/qa/corpus``)."""
    return _CORPUS_DIR


def write_artifact(artifact: dict[str, Any], directory: Path | None = None) -> Path:
    """Persist one artifact as deterministic-named JSON; returns the path."""
    directory = directory or _CORPUS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(artifact, indent=2, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    path = directory / f"{artifact.get('oracle', 'case')}-{digest}.json"
    path.write_text(payload + "\n")
    return path


def corpus_artifacts(directory: Path | None = None) -> list[tuple[Path, dict[str, Any]]]:
    """All checked-in artifacts, sorted by filename (stable test IDs)."""
    directory = directory or _CORPUS_DIR
    if not directory.is_dir():
        return []
    return [
        (path, json.loads(path.read_text()))
        for path in sorted(directory.glob("*.json"))
    ]


def replay_artifact(artifact: dict[str, Any]) -> str | None:
    """Re-check one artifact; ``None`` means the regression stays fixed."""
    oracle = oracle_named(artifact["oracle"])
    subject = oracle.from_artifact(artifact)
    return oracle.check(subject)
