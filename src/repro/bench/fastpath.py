"""Fastpath kernel benchmarks: reference route vs dense route, same inputs.

Every workload is deterministic (fixed seeds, fixed sizes) and large enough
to clear the ``auto`` threshold, so the two timed routes differ only in the
kernel that runs.  Methodology:

* reference and dense runs are *interleaved*, with ``gc.collect()`` before
  every timed region — a collection triggered by one route's garbage must
  not be billed to the other (exactly that artifact once produced a bogus
  0.7× "regression" for a kernel that profiles 2× faster);
* the per-route time is the minimum over ``--repeat`` runs (minimum, not
  mean: noise on a quiet machine is strictly additive);
* each run re-checks that the two routes agree (verdicts/sets equal for
  the emptiness kernels, reports and automata equal for ``classify``)
  before its timing is accepted.

The JSON report (``BENCH_fastpath.json`` at the repo root) is the committed
baseline the CI ``bench-smoke`` job compares against; see
``docs/PERFORMANCE.md`` for the schema.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.fastpath.config import forced

SCHEMA = "repro-bench-fastpath/1"

#: A check failing means the routes disagreed — never report such a timing.
_CHECKS_MSG = "fastpath and reference routes disagreed on benchmark workload"


@dataclass(frozen=True)
class KernelResult:
    """One kernel's interleaved timing: reference vs dense, same input."""

    kernel: str
    workload: str
    reference_ms: float
    fastpath_ms: float

    @property
    def speedup(self) -> float:
        return self.reference_ms / self.fastpath_ms if self.fastpath_ms else 0.0

    def as_json(self) -> dict:
        return {
            "workload": self.workload,
            "reference_ms": round(self.reference_ms, 3),
            "fastpath_ms": round(self.fastpath_ms, 3),
            "speedup": round(self.speedup, 2),
        }


@dataclass(frozen=True)
class _Workload:
    """A prepared benchmark: a thunk to time and an agreement check."""

    description: str
    run: Callable[[], object]
    agree: Callable[[object, object], bool]


def _streett_automaton(rng: random.Random, n: int, pairs: int, p_left: float, p_right: float):
    """A complete Streett automaton with sparse left sets — sparse enough
    that emptiness checking has to prune SCCs deeply before concluding."""
    from repro.omega.acceptance import Acceptance
    from repro.omega.automaton import DetAutomaton
    from repro.words.alphabet import Alphabet

    alphabet = Alphabet(("a", "b", "c"))
    rows = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    acceptance = Acceptance.streett(
        [
            (
                [s for s in range(n) if rng.random() < p_left],
                [s for s in range(n) if rng.random() < p_right],
            )
            for _ in range(pairs)
        ]
    )
    return DetAutomaton(alphabet, rows, 0, acceptance)


def _product_emptiness_workload(quick: bool) -> _Workload:
    from repro.omega.emptiness import ProductCheck

    n = 48 if quick else 64
    rng = random.Random(3)
    left = _streett_automaton(rng, n, 3, 0.03, 0.2)
    right = _streett_automaton(rng, n, 3, 0.03, 0.2)

    def run():
        return ProductCheck([left, right], [False, True]).witness_component()

    return _Workload(
        description=(
            f"A ∩ ¬B emptiness, two {n}-state 3-pair Streett automata "
            "(sparse left sets force deep SCC pruning)"
        ),
        run=run,
        agree=lambda a, b: (a is None) == (b is None),
    )


def _nonempty_workload(quick: bool) -> _Workload:
    from repro.omega.emptiness import nonempty_states

    # Deliberately not scaled down for --quick: the workload is cheap, and
    # at small sizes the SCC pruning resolves before the dense route can
    # amortize its setup, which would make the smoke gate flaky.
    n = 3000
    aut = _streett_automaton(random.Random(5), n, 3, 0.001, 0.3)
    return _Workload(
        description=f"nonempty_states of a {n}-state 3-pair Streett automaton",
        run=lambda: nonempty_states(aut),
        agree=lambda a, b: a == b,
    )


def _classify_workload(quick: bool) -> _Workload:
    from repro.core.classifier import formula_report
    from repro.logic.parser import parse_formula
    from repro.omega.safra import formula_to_dra
    from repro.words.alphabet import Alphabet

    # End-to-end pipeline: GPVW tableau → Safra → quotient → Wagner
    # classification.  Powerset alphabets with an unused proposition are the
    # representative shape: label compression halves the stepped symbols,
    # and every stage crosses its auto threshold.  The general pipeline is
    # called directly: ``classify_formula`` would rewrite the first formula
    # into a normal form and skip every kernel this workload times.
    texts = ["G (a -> F b) & (G F b -> G F a)"]
    if not quick:
        texts.append("(F a & F b) | G (a -> X b)")
    alphabet = Alphabet.powerset_of_propositions("abc")
    formulas = [parse_formula(text) for text in texts]

    def run():
        return [
            formula_report(formula, alphabet, formula_to_dra(formula, alphabet))
            for formula in formulas
        ]

    def view(report):
        return (
            report.semantic,
            report.syntactic,
            report.streett_index,
            report.obligation_degree,
            report.is_uniform_liveness,
            report.automaton._delta,  # noqa: SLF001 — structural identity
            report.automaton.initial,
            report.automaton.acceptance,
        )

    return _Workload(
        description=(
            f"classify_formula on {len(texts)} formula(s) over 2^{{a,b,c}}"
            " (full GPVW→Safra→quotient→Wagner pipeline)"
        ),
        run=run,
        agree=lambda a, b: all(view(x) == view(y) for x, y in zip(a, b)),
    )


#: Kernel name → workload factory, in report order.
BENCHMARKS: Mapping[str, Callable[[bool], _Workload]] = {
    "product_emptiness": _product_emptiness_workload,
    "nonempty": _nonempty_workload,
    "classify": _classify_workload,
}


def _time_interleaved(workload: _Workload, repeat: int) -> tuple[float, float]:
    """Best-of-``repeat`` per route, alternating routes run to run."""
    best_ref = best_fast = float("inf")
    for _ in range(repeat):
        gc.collect()
        with forced("off"):
            start = time.perf_counter()
            ref_out = workload.run()
            best_ref = min(best_ref, time.perf_counter() - start)
        gc.collect()
        with forced("on"):
            start = time.perf_counter()
            fast_out = workload.run()
            best_fast = min(best_fast, time.perf_counter() - start)
        if not workload.agree(ref_out, fast_out):
            raise AssertionError(f"{_CHECKS_MSG}: {workload.description}")
    return best_ref * 1e3, best_fast * 1e3


def run_benchmarks(
    *, quick: bool = False, repeat: int = 5, kernels: Sequence[str] | None = None
) -> list[KernelResult]:
    """Run the selected kernels (default: all) and return their results."""
    selected = list(kernels) if kernels else list(BENCHMARKS)
    results = []
    for name in selected:
        workload = BENCHMARKS[name](quick)
        reference_ms, fastpath_ms = _time_interleaved(workload, repeat)
        results.append(
            KernelResult(name, workload.description, reference_ms, fastpath_ms)
        )
    return results


def report_json(results: Sequence[KernelResult], *, quick: bool, repeat: int) -> str:
    payload = {
        "schema": SCHEMA,
        "command": f"python -m repro bench{' --quick' if quick else ''} --repeat {repeat}",
        "quick": quick,
        "repeat": repeat,
        "kernels": {result.kernel: result.as_json() for result in results},
    }
    return json.dumps(payload, indent=2) + "\n"


def render_table(results: Sequence[KernelResult]) -> str:
    lines = [f"{'kernel':18s} {'reference':>12s} {'fastpath':>12s} {'speedup':>8s}"]
    for result in results:
        lines.append(
            f"{result.kernel:18s} {result.reference_ms:>10.2f}ms "
            f"{result.fastpath_ms:>10.2f}ms {result.speedup:>7.2f}x"
        )
    return "\n".join(lines)


def regressions_against(
    results: Sequence[KernelResult],
    baseline: Mapping,
    *,
    factor: float = 2.0,
    expect_all: bool = False,
) -> list[str]:
    """Kernels whose speedup fell below ``baseline/factor`` — the CI gate.

    Only kernels present in both runs are compared, so a ``--quick`` run can
    be checked against the committed full baseline: sizes differ but a real
    kernel regression shows up in the ratio long before the 2× gate.  Each
    failure line names the kernel and quantifies the regression (measured
    vs. baseline speedup, plus the measured route timings).  With
    ``expect_all`` — set when the run was not filtered to a kernel subset —
    baseline kernels absent from the results are reported too, so a renamed
    or dropped workload cannot silently stop being gated.
    """
    failures = []
    kernels = baseline.get("kernels", {})
    measured = {result.kernel for result in results}
    for result in results:
        entry = kernels.get(result.kernel)
        if entry is None:
            continue
        floor = entry["speedup"] / factor
        if result.speedup < floor:
            failures.append(
                f"{result.kernel}: speedup {result.speedup:.2f}x fell below "
                f"{floor:.2f}x (baseline {entry['speedup']:.2f}x / {factor:g}; "
                f"measured {result.reference_ms:.2f}ms reference vs "
                f"{result.fastpath_ms:.2f}ms fastpath)"
            )
    if expect_all:
        for name in kernels:
            if name not in measured:
                failures.append(
                    f"{name}: present in the baseline but not measured — "
                    "the kernel is no longer being gated"
                )
    return failures
