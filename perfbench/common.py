"""Shared pieces of the corpus benchmark: paths, seeded inputs, answer
checking against the committed census baseline, and summary statistics.

Everything here runs inside the benchmark's child processes, after
``src/`` has been put on ``sys.path`` by :mod:`child`.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "formulas"
BASELINE_CSV = CORPUS_DIR / "census_baseline.csv"
#: Scratch space for stores and span dumps; inside the checkout, ignored by git.
WORK_DIR = ROOT / ".perfbench_work"

#: The warm-up operation's input.  Its propositions (a, b) appear in no corpus
#: formula, so it is outside every timed set; it takes the GPVW→Safra route,
#: which pulls in every lazily imported module (numpy, scipy, the fast paths).
WARMUP_FORMULA = "G (a -> F b) & F G (a | !b)"

#: The census baseline columns an engine answer is compared on.  The three
#: GPVW/Safra/quotient sizes are census-only; ``census`` checks them too.
ANSWER_COLUMNS = (
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
    "automaton_states",
)
FLAGS = ("safety", "guarantee", "obligation", "recurrence", "persistence", "reactivity")


def rng_for(seed: int, *parts: object) -> random.Random:
    """A generator derived from the run seed (string seeding is stable
    across interpreters and hash seeds)."""
    return random.Random(":".join(str(part) for part in (seed, *parts)))


def load_entries():
    from repro.census.corpus import load_corpus

    return load_corpus(CORPUS_DIR)


def load_baseline() -> dict[str, dict[str, str]]:
    from repro.census.run import read_census_csv

    return {cells["formula"]: cells for cells in read_census_csv(BASELINE_CSV)}


def cell(value) -> str:
    """Serialize like a census CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def report_cells(report) -> dict[str, str]:
    """The checked cells of a :class:`repro.core.classifier.FormulaReport`."""
    membership = {c.value: v for c, v in report.semantic.membership.items()}
    syntactic = report.syntactic
    cells = {
        "class": report.canonical_class.value,
        "liveness": cell(report.is_liveness),
        "uniform_liveness": cell(report.is_uniform_liveness),
        "streett_index": cell(report.streett_index),
        "obligation_degree": cell(report.obligation_degree),
        "syntactic": syntactic.fragment_class.value,
        "normal_form": syntactic.normal_form.value if syntactic.normal_form else "",
        "automaton_states": cell(report.automaton.num_states),
    }
    cells.update({flag: cell(membership[flag]) for flag in FLAGS})
    return cells


def payload_cells(payload: dict) -> dict[str, str]:
    """The checked cells of a ``serve`` classification payload."""
    members = set(payload["memberships"])
    cells = {
        "class": payload["class"],
        "liveness": cell(payload["liveness"]),
        "uniform_liveness": cell(payload["uniform_liveness"]),
        "streett_index": cell(payload["streett_index"]),
        "obligation_degree": cell(payload["obligation_degree"]),
        "syntactic": payload["syntactic_class"],
        "normal_form": payload["normal_form"] or "",
        "automaton_states": cell(payload["automaton"]["states"]),
    }
    cells.update({flag: cell(flag in members) for flag in FLAGS})
    return cells


def check_answer(
    formula: str,
    measured: dict[str, str],
    baseline: dict[str, dict[str, str]],
    columns=ANSWER_COLUMNS,
) -> str | None:
    """``None`` when every checked column matches the baseline, else one
    message naming each disagreeing column."""
    expected = baseline.get(formula)
    if expected is None:
        return f"{formula}: not in the baseline"
    wrong = [
        f"{column} baseline={expected[column]!r} measured={measured[column]!r}"
        for column in columns
        if measured[column] != expected[column]
    ]
    return f"{formula}: " + ", ".join(wrong) if wrong else None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_metrics(latencies_s, throughput_per_s: float) -> dict:
    """throughput_per_s, p50_ms and p99_ms."""
    ordered = sorted(latencies_s)
    if len(ordered) < 1000:
        # p99 needs at least ten samples beyond it.
        raise RuntimeError(f"only {len(ordered)} latency samples; p99 needs 1000")
    return {
        "throughput_per_s": throughput_per_s,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
    }


class BestOf:
    """Each operation's fastest time over a run's passes, and each complete
    pass's rate.

    The machine's speed wanders by tens of percent over seconds, and slow
    stretches only ever add time, so an operation's fastest time in the run
    is the estimate least disturbed by them.  Every pass covers the same
    operations, so a regression in any of them still moves the figures.
    """

    def __init__(self) -> None:
        self.best: dict[object, float] = {}
        self.rates: list[float] = []

    def add(self, key, seconds: float) -> None:
        """One timing of operation ``key``."""
        if seconds < self.best.get(key, math.inf):
            self.best[key] = seconds

    def add_pass(self, wall_s: float, units: int) -> None:
        """A complete pass (a cut-short last pass is not one): ``units`` of
        work in ``wall_s`` seconds of timed wall."""
        self.rates.append(units / wall_s)

    def rate(self, pick: str = "fastest") -> float:
        """The rate of the ``"fastest"`` complete pass, a rate the program
        really reached over a whole pass, garbage collection and all; or of
        the ``"median"`` one, where passes differ by more than machine speed
        (a pool's load balance)."""
        if not self.rates:
            raise RuntimeError("no complete pass; throughput needs one")
        return max(self.rates) if pick == "fastest" else statistics.median(self.rates)

    def metrics(self, pick: str = "fastest") -> dict:
        """Latency percentiles over the fastest times, and the pass rate."""
        return latency_metrics(self.best.values(), self.rate(pick))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
