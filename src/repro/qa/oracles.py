"""Differential oracles: each generated object is classified through at
least two independent code routes, and any disagreement is a bug.

The four oracles mirror the paper's four coinciding views:

* ``formula-lasso``   — direct lasso semantics vs. the compiled automaton's
  run vs. the :class:`~repro.core.monitor.PrefixMonitor` verdict;
* ``formula-class``   — the syntactic fragment grammar and normal-form
  recognizers (§4) vs. translate-to-automaton-then-classify (§5.1), plus
  negation duality across the two pipelines;
* ``linguistic``      — the ``A/E/R/P`` constructions vs. brute-force prefix
  profiles, the topological closure predicates, and the
  ``A(Φ)ᶜ = E(Φᶜ)`` / ``R(Φ)ᶜ = P(Φᶜ)`` dualities;
* ``automaton``       — complement membership, classification duality,
  Wagner index duality, the HOA round-trip, the safety-closure spec
  (safety, guarantee and liveness by their language-equivalence
  definitions) and the literal cycle family (recurrence, persistence and
  the Streett index by explicit enumeration of accessible cycles) on
  random Streett/Rabin automata.

``normalize`` checks the rewriting step in front of dispatch: §4's
normal-form laws (:func:`repro.logic.rewrite.normalize`) against the raw
GPVW → Safra automaton of the formula they rewrite.

Two more cover the execution engines rather than the views: ``fastpath``
(the dense Safra, GPVW and quotient twins vs. the audited reference routes) and ``fleet`` (the
vectorized monitor fleet vs. a loop of scalar ``PrefixMonitor``\\ s,
verdict vectors compared at every batch boundary).

Each oracle knows how to generate a subject, check it, serialize it to a
JSON artifact (for ``qa/corpus/``), replay an artifact, and shrink a
failing subject — everything the fuzz runner and the regression replay
need, in one object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.classes import TemporalClass
from repro.core.classifier import (
    ROUTE_SAFRA,
    default_alphabet,
    formula_route,
    formula_to_automaton,
)
from repro.core.monitor import PrefixMonitor, Verdict3
from repro.finitary.dfa import DFA
from repro.finitary.language import FinitaryLanguage
from repro.logic.ast import Formula, Not
from repro.logic.classes import normal_form_class, syntactic_classes
from repro.logic.parser import parse_formula
from repro.logic.rewrite import normalize
from repro.logic.semantics import satisfies
from repro.omega.classify import classify
from repro.omega.closure import is_liveness, is_safety_closed, safety_closure
from repro.omega.cyclefamily import cross_validate
from repro.omega.hoa import from_hoa, to_hoa
from repro.omega.linguistic import a_of, e_of, p_of, r_of
from repro.omega.safra import formula_to_dra
from repro.qa.generate import (
    NORMALIZABLE_SHAPES,
    GeneratorConfig,
    random_det_automaton,
    random_formula,
    random_language,
    random_lasso,
    random_lasso_sample,
    random_normal_form_formula,
    random_normalizable_formula,
)
from repro.qa.shrink import shrink_automaton, shrink_formula
from repro.words.alphabet import Alphabet
from repro.words.lasso import LassoWord


@dataclass(frozen=True, slots=True)
class Disagreement:
    """One cross-view disagreement: the smoking gun of a fuzz run."""

    oracle: str
    detail: str
    subject: Any

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


# ---------------------------------------------------------------------------
# Serialization helpers (corpus artifacts are plain JSON)
# ---------------------------------------------------------------------------


def _lassos_to_json(lassos: tuple[LassoWord, ...]) -> list[list[str]]:
    return [["".join(l.stem), "".join(l.loop)] for l in lassos]


def _lassos_from_json(data: list[list[str]]) -> tuple[LassoWord, ...]:
    return tuple(LassoWord.from_letters(stem, loop) for stem, loop in data)


def _dfa_to_json(dfa: DFA) -> dict[str, Any]:
    return {
        "rows": [list(row) for row in dfa._delta],  # noqa: SLF001 — qa is in-tree
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
    }


def _dfa_from_json(data: dict[str, Any], alphabet: Alphabet) -> DFA:
    return DFA(alphabet, data["rows"], data["initial"], data["accepting"])


# ---------------------------------------------------------------------------
# The oracle protocol
# ---------------------------------------------------------------------------


class Oracle:
    """One differential check; subclasses define the views being compared."""

    name: str = "oracle"
    #: The independent routes this oracle compares (documentation + report).
    routes: tuple[str, ...] = ()

    def generate(self, rng: random.Random, config: GeneratorConfig) -> Any:
        raise NotImplementedError

    def check(self, subject: Any) -> str | None:
        """``None`` when all routes agree, else a human-readable detail."""
        raise NotImplementedError

    def shrink(self, subject: Any) -> Any:
        """Greedily minimize a failing subject (default: no shrinking)."""
        return subject

    def to_artifact(self, subject: Any) -> dict[str, Any]:
        raise NotImplementedError

    def from_artifact(self, artifact: dict[str, Any]) -> Any:
        raise NotImplementedError

    def describe(self, subject: Any) -> str:
        return repr(subject)


# ---------------------------------------------------------------------------
# 1. Lasso semantics vs. automaton run vs. monitor verdict
# ---------------------------------------------------------------------------


def monitor_verdict(automaton, lasso: LassoWord) -> Verdict3:
    """Feed ``stem · loop^ω`` to a prefix monitor until the verdict is final
    or provably PENDING forever (loop-boundary state repeats)."""
    monitor = PrefixMonitor(automaton)
    verdict = monitor.feed(lasso.stem)
    seen = {monitor.state}
    while verdict is Verdict3.PENDING:
        verdict = monitor.feed(lasso.loop)
        if verdict is not Verdict3.PENDING or monitor.state in seen:
            break
        seen.add(monitor.state)
    return verdict


class FormulaLassoOracle(Oracle):
    name = "formula-lasso"
    routes = ("lasso semantics", "automaton run", "prefix-monitor verdict")

    def generate(self, rng: random.Random, config: GeneratorConfig):
        formula = random_formula(rng, config.propositions, config.max_depth)
        return formula, random_lasso_sample(rng, config)

    def check(self, subject) -> str | None:
        formula, lassos = subject
        # The letter alphabet must cover every lasso symbol; formula
        # propositions outside it simply never hold (consistently so on both
        # the semantic and the automaton route).
        letters = sorted({s for l in lassos for s in l.symbols_used()} | {"a"})
        alphabet = Alphabet(letters)
        automaton = formula_to_automaton(formula, alphabet)
        for lasso in lassos:
            semantic = satisfies(lasso, formula)
            automaton_says = automaton.accepts(lasso)
            if semantic != automaton_says:
                return (
                    f"{formula!r} on {lasso!r}: semantics={semantic},"
                    f" automaton={automaton_says}"
                )
            verdict = monitor_verdict(automaton, lasso)
            if verdict is Verdict3.VIOLATED and semantic:
                return f"{formula!r} on {lasso!r}: monitor VIOLATED but word satisfies"
            if verdict is Verdict3.SATISFIED and not semantic:
                return f"{formula!r} on {lasso!r}: monitor SATISFIED but word violates"
        return None

    def shrink(self, subject):
        formula, lassos = subject
        failing = [l for l in lassos if self.check((formula, (l,))) is not None]
        kept = tuple(failing[:1]) if failing else lassos
        shrunk = shrink_formula(formula, lambda f: self.check((f, kept)) is not None)
        return shrunk, kept

    def to_artifact(self, subject) -> dict[str, Any]:
        formula, lassos = subject
        return {"formula": repr(formula), "lassos": _lassos_to_json(lassos)}

    def from_artifact(self, artifact):
        return parse_formula(artifact["formula"]), _lassos_from_json(artifact["lassos"])

    def describe(self, subject) -> str:
        formula, lassos = subject
        return f"{formula!r} over {len(lassos)} lasso(s)"


# ---------------------------------------------------------------------------
# 2. Syntactic classifiers vs. translate-then-classify (§5.1)
# ---------------------------------------------------------------------------


class FormulaClassOracle(Oracle):
    name = "formula-class"
    routes = (
        "syntactic fragment grammar",
        "normal-form recognizers",
        "automaton classification (§5.1)",
        "negation duality",
    )

    def generate(self, rng: random.Random, config: GeneratorConfig):
        if rng.random() < 0.5:
            temporal_class = rng.choice(tuple(TemporalClass))
            return random_normal_form_formula(rng, config.propositions, temporal_class)
        return random_formula(rng, config.propositions, config.max_depth)

    def check(self, subject: Formula) -> str | None:
        formula = subject
        verdict = classify(formula_to_automaton(formula))
        # Syntactic membership is sound: every class the grammar grants must
        # hold semantically.
        for claimed in syntactic_classes(formula):
            if not verdict.membership[claimed]:
                return (
                    f"{formula!r}: syntactic grammar claims {claimed.value},"
                    f" semantic classifier denies it"
                )
        # A formula literally in a κ-normal form denotes a κ-property.
        literal = normal_form_class(formula)
        if literal is not None and not verdict.membership[literal]:
            return (
                f"{formula!r}: matches the {literal.value} normal form but the"
                f" automaton classifier denies {literal.value}"
            )
        # Complement duality across the two pipelines: ¬φ compiles on the raw
        # GPVW → Safra route, never on the tester route φ may take (which
        # normalization would otherwise also pick for ¬φ), yet must land in
        # the dual classes.
        negated = classify(formula_to_dra(Not(formula), default_alphabet(formula)))
        for temporal_class in TemporalClass:
            if verdict.membership[temporal_class] != negated.membership[temporal_class.dual()]:
                return (
                    f"{formula!r}: in {temporal_class.value}="
                    f"{verdict.membership[temporal_class]} but ¬φ in dual"
                    f" {temporal_class.dual().value}="
                    f"{negated.membership[temporal_class.dual()]}"
                )
        return None

    def shrink(self, subject: Formula) -> Formula:
        return shrink_formula(subject, lambda f: self.check(f) is not None)

    def to_artifact(self, subject: Formula) -> dict[str, Any]:
        return {"formula": repr(subject)}

    def from_artifact(self, artifact) -> Formula:
        return parse_formula(artifact["formula"])


# ---------------------------------------------------------------------------
# 2b. The normal-form rewrite vs. the raw general pipeline
# ---------------------------------------------------------------------------


class NormalizeOracle(Oracle):
    """``normalize(φ)`` against φ, for the four shapes it rewrites.

    The rewritten formula must reach a tester or pair-product route, the
    automaton that route builds must be language-equivalent to the raw
    GPVW → Safra automaton of φ, and on sampled lassos the lasso semantics
    of φ and of ``normalize(φ)`` and both automata must agree.
    """

    name = "normalize"
    routes = (
        "raw GPVW → Safra automaton of φ",
        "normal-form route of normalize(φ)",
        "lasso semantics of φ and normalize(φ)",
    )

    def generate(self, rng: random.Random, config: GeneratorConfig):
        shape = rng.choice(NORMALIZABLE_SHAPES)
        formula = random_normalizable_formula(rng, config.propositions, shape)
        alphabet = default_alphabet(formula)
        lassos = {
            random_lasso(rng, alphabet, config.max_stem, config.max_loop): None
            for _ in range(config.lasso_samples)
        }
        return formula, tuple(lassos)

    def check(self, subject) -> str | None:
        failure = self._failure(*subject)
        return None if failure is None else failure[1]

    def _failure(self, formula: Formula, lassos) -> tuple[str, str] | None:
        """``(kind, detail)`` of the first disagreement, else ``None``."""
        normal = normalize(formula)
        route = formula_route(formula)
        if route.id == ROUTE_SAFRA:
            return "route", f"{formula!r}: normalize gave {normal!r}, which takes {ROUTE_SAFRA}"
        alphabet = default_alphabet(formula)
        raw = formula_to_dra(formula, alphabet)
        rewritten = route.build(alphabet)
        if not rewritten.equivalent_to(raw):
            return "automaton", (
                f"{formula!r}: the automaton of {normal!r} is not equivalent to the raw one"
            )
        symbols = set(alphabet)
        for lasso in lassos:
            if not lasso.symbols_used() <= symbols:
                continue  # a shrunk formula can lose a lasso's propositions
            verdicts = {
                "semantics of φ": satisfies(lasso, formula),
                "semantics of normalize(φ)": satisfies(lasso, normal),
                "raw automaton": raw.accepts(lasso),
                "rewritten automaton": rewritten.accepts(lasso),
            }
            if len(set(verdicts.values())) > 1:
                return "lasso", f"{formula!r} → {normal!r} on {lasso!r}: {verdicts}"
        return None

    def shrink(self, subject):
        formula, lassos = subject
        kind = self._failure(formula, lassos)[0]

        def same_failure(candidate: Formula) -> bool:
            failure = self._failure(candidate, lassos)
            return failure is not None and failure[0] == kind

        return shrink_formula(formula, same_failure), lassos

    def to_artifact(self, subject) -> dict[str, Any]:
        from repro.fleet.stream import symbol_to_json

        formula, lassos = subject
        return {
            "formula": repr(formula),
            "lassos": [
                [[symbol_to_json(s) for s in part] for part in (l.stem, l.loop)]
                for l in lassos
            ],
        }

    def from_artifact(self, artifact):
        from repro.fleet.stream import symbol_from_json

        lassos = tuple(
            LassoWord(*([symbol_from_json(s) for s in part] for part in pair))
            for pair in artifact["lassos"]
        )
        return parse_formula(artifact["formula"]), lassos

    def describe(self, subject) -> str:
        formula, lassos = subject
        return f"{formula!r} over {len(lassos)} lasso(s)"


# ---------------------------------------------------------------------------
# 3. Linguistic A/E/R/P vs. prefix profiles vs. topology
# ---------------------------------------------------------------------------


def prefix_profile(phi: FinitaryLanguage, lasso: LassoWord) -> tuple[list[bool], list[bool]]:
    """The infinite sequence ``[σ[0..k] ∈ Φ]`` split into transient + cycle,
    computed by brute force on Φ's DFA (independent of the ω-constructions)."""
    dfa = phi.dfa
    state = dfa.initial
    flags: list[bool] = []
    seen: dict[tuple[int, int], int] = {}
    position = 0
    while True:
        if position >= len(lasso.stem):
            key = ((position - len(lasso.stem)) % len(lasso.loop), state)
            if key in seen:
                start = seen[key]
                return flags[:start], flags[start:]
            seen[key] = position
        state = dfa.step(state, lasso[position])
        flags.append(state in dfa.accepting)
        position += 1


_BRUTE_FORCE = {
    "A": lambda transient, cycle: all(transient) and all(cycle),
    "E": lambda transient, cycle: any(transient) or any(cycle),
    "R": lambda transient, cycle: any(cycle),
    "P": lambda transient, cycle: all(cycle),
}

_CONSTRUCTIONS = {"A": a_of, "E": e_of, "R": r_of, "P": p_of}

_GUARANTEED_CLASS = {
    "A": TemporalClass.SAFETY,
    "E": TemporalClass.GUARANTEE,
    "R": TemporalClass.RECURRENCE,
    "P": TemporalClass.PERSISTENCE,
}


class LinguisticOracle(Oracle):
    name = "linguistic"
    routes = (
        "A/E/R/P constructions",
        "brute-force prefix profiles",
        "topological closure predicates",
        "linguistic complement dualities",
    )

    def generate(self, rng: random.Random, config: GeneratorConfig):
        phi = random_language(rng, config.alphabet, config.max_states)
        return phi, random_lasso_sample(rng, config)

    def check(self, subject) -> str | None:
        phi, lassos = subject
        automata = {op: build(phi) for op, build in _CONSTRUCTIONS.items()}
        for op, automaton in automata.items():
            # Route 1 vs 2: construction membership against the set-theoretic
            # definition evaluated on the prefix profile.
            for lasso in lassos:
                transient, cycle = prefix_profile(phi, lasso)
                expected = _BRUTE_FORCE[op](transient, cycle)
                if automaton.accepts(lasso) != expected:
                    return (
                        f"{op}(Φ) on {lasso!r}: construction says"
                        f" {automaton.accepts(lasso)}, prefix profile says {expected}"
                    )
            # Route 3: the topological view — κ(Φ) always lands in class κ.
            guaranteed = _GUARANTEED_CLASS[op]
            if not classify(automaton).membership[guaranteed]:
                return f"{op}(Φ) not classified as {guaranteed.value}"
        # Safety = closed: A(Φ) equals its own safety closure.
        if not is_safety_closed(automata["A"]):
            return "A(Φ) is not topologically closed"
        # Route 4: complement dualities A(Φ)ᶜ = E(Φᶜ) and R(Φ)ᶜ = P(Φᶜ).
        complement = phi.complement()
        if not automata["A"].complement().equivalent_to(e_of(complement)):
            return "A(Φ)ᶜ ≠ E(Σ⁺∖Φ)"
        if not automata["R"].complement().equivalent_to(p_of(complement)):
            return "R(Φ)ᶜ ≠ P(Σ⁺∖Φ)"
        return None

    def shrink(self, subject):
        phi, lassos = subject
        failing = [l for l in lassos if self.check((phi, (l,))) is not None]
        return phi, (tuple(failing[:1]) if failing else lassos)

    def to_artifact(self, subject) -> dict[str, Any]:
        phi, lassos = subject
        return {"dfa": _dfa_to_json(phi.dfa), "lassos": _lassos_to_json(lassos)}

    def from_artifact(self, artifact):
        letters = sorted(
            {s for pair in artifact["lassos"] for part in pair for s in part} | set("ab")
        )
        alphabet = Alphabet(letters)
        phi = FinitaryLanguage(_dfa_from_json(artifact["dfa"], alphabet))
        return phi, _lassos_from_json(artifact["lassos"])

    def describe(self, subject) -> str:
        phi, lassos = subject
        return f"Φ with {phi.dfa.num_states} DFA states over {len(lassos)} lasso(s)"


# ---------------------------------------------------------------------------
# 4. Automaton complementation, classification duality, HOA round-trip
# ---------------------------------------------------------------------------


def closure_spec(automaton) -> dict[str, bool]:
    """Safety, guarantee and liveness by their definitions (§2): safety as
    ``Π = cl(Π)`` by language equivalence with the safety-closure
    automaton, guarantee as the same on the complement, liveness as every
    reachable state being live.  The executable spec that
    :func:`repro.omega.classify.classify`'s graph checks must match."""
    complement = automaton.complement()
    return {
        "safety": automaton.equivalent_to(safety_closure(automaton)),
        "guarantee": complement.equivalent_to(safety_closure(complement)),
        "liveness": is_liveness(automaton),
    }


def verdict_profile(verdict) -> dict[str, bool]:
    """The three predicates :func:`closure_spec` defines, read off a verdict."""
    return {
        "safety": verdict.membership[TemporalClass.SAFETY],
        "guarantee": verdict.membership[TemporalClass.GUARANTEE],
        "liveness": verdict.is_liveness,
    }


class AutomatonOracle(Oracle):
    name = "automaton"
    routes = (
        "complement membership",
        "classification duality",
        "Wagner index duality",
        "HOA round-trip",
        "safety closure by equivalence",
        "literal cycle family",
    )

    def generate(self, rng: random.Random, config: GeneratorConfig):
        automaton = random_det_automaton(
            rng, config.alphabet, config.max_states, config.max_pairs
        )
        return automaton, random_lasso_sample(rng, config)

    def check(self, subject) -> str | None:
        automaton, lassos = subject
        complement = automaton.complement()
        verdict = classify(automaton)
        dual_verdict = classify(complement)
        for lasso in lassos:
            if complement.accepts(lasso) == automaton.accepts(lasso):
                return f"complement agrees with original on {lasso!r}"
        for temporal_class in TemporalClass:
            mine = verdict.membership[temporal_class]
            dual = dual_verdict.membership[temporal_class.dual()]
            if mine != dual:
                return (
                    f"classification duality broken: {temporal_class.value}={mine}"
                    f" but complement {temporal_class.dual().value}={dual}"
                )
        if verdict.streett_index != dual_verdict.rabin_index:
            return (
                f"Wagner duality broken: streett_index={verdict.streett_index}"
                f" vs complement rabin_index={dual_verdict.rabin_index}"
            )
        restored = from_hoa(to_hoa(automaton), alphabet=automaton.alphabet)
        if restored.acceptance.kind is not automaton.acceptance.kind:
            return (
                f"HOA round-trip changed acceptance kind:"
                f" {automaton.acceptance.kind} → {restored.acceptance.kind}"
            )
        for lasso in lassos:
            if restored.accepts(lasso) != automaton.accepts(lasso):
                return f"HOA round-trip changed the verdict on {lasso!r}"
        if classify(restored).canonical != verdict.canonical:
            return "HOA round-trip changed the canonical class"
        expected = closure_spec(automaton)
        decided = verdict_profile(verdict)
        for predicate, value in expected.items():
            if decided[predicate] != value:
                return (
                    f"classify says {predicate}={decided[predicate]}"
                    f" but the safety-closure spec says {value}"
                )
        for measure, agrees in cross_validate(automaton).items():
            if not agrees:
                return f"classify's {measure} disagrees with the literal cycle family"
        return None

    def shrink(self, subject):
        automaton, lassos = subject
        failing = [l for l in lassos if self.check((automaton, (l,))) is not None]
        kept = tuple(failing[:1]) if failing else lassos
        shrunk = shrink_automaton(
            automaton, lambda a: self.check((a, kept)) is not None
        )
        return shrunk, kept

    def to_artifact(self, subject) -> dict[str, Any]:
        automaton, lassos = subject
        letters = "".join(str(s) for s in automaton.alphabet)
        return {
            "hoa": to_hoa(automaton),
            "letters": letters,
            "lassos": _lassos_to_json(lassos),
        }

    def from_artifact(self, artifact):
        alphabet = Alphabet.from_letters(artifact["letters"])
        automaton = from_hoa(artifact["hoa"], alphabet=alphabet)
        return automaton, _lassos_from_json(artifact["lassos"])

    def describe(self, subject) -> str:
        automaton, lassos = subject
        return f"{automaton!r} over {len(lassos)} lasso(s)"


# ---------------------------------------------------------------------------
# 5. Dense fastpath constructions vs. the audited reference routes
# ---------------------------------------------------------------------------


def _nba_to_json(nba) -> dict[str, Any]:
    return {
        "num_states": nba.num_states,
        "edges": [
            [state, str(symbol), sorted(targets)]
            for (state, symbol), targets in sorted(
                nba.transitions.items(), key=lambda item: (item[0][0], str(item[0][1]))
            )
        ],
        "initials": sorted(nba.initials),
        "accepting": sorted(nba.accepting),
    }


def _nba_from_json(data: dict[str, Any], alphabet: Alphabet):
    from repro.omega.buchi import NBA

    return NBA(
        alphabet,
        data["num_states"],
        {
            (state, symbol): frozenset(targets)
            for state, symbol, targets in data["edges"]
        },
        data["initials"],
        data["accepting"],
    )


class FastpathOracle(Oracle):
    """Every dense ω construction against its reference twin, on one random
    subject.

    The contract being checked is the fastpath parity contract
    (``docs/PERFORMANCE.md``): Safra determinization, the GPVW tableau and
    quotient reduction must return *structurally identical* automata, and
    label compression must round-trip.
    """

    name = "fastpath"
    routes = ("reference kernels", "dense kernels")

    def generate(self, rng: random.Random, config: GeneratorConfig):
        from repro.qa.generate import random_nba

        # Mostly small ω-automata; occasionally a few hundred states, so the
        # quotient's dense route also runs on a large graph.
        size = rng.randrange(200, 256) if rng.random() < 0.15 else None
        aut = random_det_automaton(rng, config.alphabet, size or config.max_states, config.max_pairs)
        nba = random_nba(rng, config.alphabet, 8)
        formula = random_formula(rng, config.propositions, config.max_depth)
        return aut, nba, formula

    @staticmethod
    def _same_det(a, b) -> bool:
        return (
            a._delta == b._delta  # noqa: SLF001 — structural identity is the contract
            and a.initial == b.initial
            and a.acceptance == b.acceptance
        )

    def check(self, subject) -> str | None:
        from repro.fastpath.config import forced
        from repro.fastpath.labels import compress_det, expand_det
        from repro.logic.translate import formula_to_nba
        from repro.omega.reduce import quotient_reduce
        from repro.omega.safra import determinize

        aut, nba, formula = subject

        def views():
            return (
                determinize(nba),
                formula_to_nba(formula, nba.alphabet),
                quotient_reduce(aut),
            )

        with forced("off"):
            dra_ref, nba_ref, quotient_ref = views()
        with forced("on"):
            dra_fast, nba_fast, quotient_fast = views()

        if not self._same_det(dra_ref, dra_fast):
            return "safra: dense determinization not structurally identical"
        if (
            nba_ref.transitions != nba_fast.transitions
            or nba_ref.num_states != nba_fast.num_states
            or nba_ref.initials != nba_fast.initials
            or nba_ref.accepting != nba_fast.accepting
        ):
            return "gpvw: dense tableau enumeration not structurally identical"
        if not self._same_det(quotient_ref, quotient_fast):
            return "quotient: dense reduction not structurally identical"
        restored = expand_det(*compress_det(dra_ref))
        if not self._same_det(dra_ref, restored):
            return "labels: expand(compress(A)) not structurally identical to A"
        return None

    def to_artifact(self, subject) -> dict[str, Any]:
        aut, nba, formula = subject
        return {
            "automaton": to_hoa(aut),
            "letters": "".join(str(s) for s in aut.alphabet),
            "nba": _nba_to_json(nba),
            "formula": repr(formula),
        }

    def from_artifact(self, artifact):
        alphabet = Alphabet.from_letters(artifact["letters"])
        return (
            from_hoa(artifact["automaton"], alphabet=alphabet),
            _nba_from_json(artifact["nba"], alphabet),
            parse_formula(artifact["formula"]),
        )

    def describe(self, subject) -> str:
        aut, nba, formula = subject
        return (
            f"ω-automaton {aut.num_states} states,"
            f" NBA {nba.num_states} states, formula {formula!r}"
        )


# ---------------------------------------------------------------------------
# 6. Vectorized fleet vs. per-stream scalar monitors
# ---------------------------------------------------------------------------


class FleetOracle(Oracle):
    """The vectorized fleet against a loop of scalar monitors, batch by batch.

    One generated formula, N streams, a random sequence of event batches in
    every shape the fleet accepts (broadcast, aligned row, sparse pairs,
    sparse columns — with duplicate stream ids and empty batches included).
    After *every* batch the pure-Python fleet, the numpy fleet (when numpy
    is importable) and N independent :class:`PrefixMonitor`\\ s must agree
    on the full verdict vector and on every stream's position.  This is the
    sticky-verdict contract: the fleet freezes a stream's verdict the
    moment it decides, the scalar monitor re-derives it from the state, and
    the two only coincide because the decided regions are successor-closed.
    """

    name = "fleet"
    routes = (
        "per-stream PrefixMonitor loop",
        "pure-python fleet",
        "numpy fleet (when importable)",
    )

    _KINDS = ("all", "row", "events", "columns")

    def generate(self, rng: random.Random, config: GeneratorConfig):
        formula = random_formula(rng, config.propositions, config.max_depth)
        props = tuple(config.propositions)
        symbols = tuple(Alphabet.powerset_of_propositions(list(props)))
        streams = rng.randrange(2, 6)
        batches = []
        for _ in range(rng.randrange(1, 7)):
            kind = rng.choice(self._KINDS)
            if kind == "all":
                batches.append(("all", rng.choice(symbols)))
            elif kind == "row":
                batches.append(
                    ("row", tuple(rng.choice(symbols) for _ in range(streams)))
                )
            else:
                count = rng.randrange(0, 2 * streams + 1)
                ids = tuple(rng.randrange(streams) for _ in range(count))
                syms = tuple(rng.choice(symbols) for _ in range(count))
                if kind == "events":
                    batches.append(("events", tuple(zip(ids, syms))))
                else:
                    batches.append(("columns", (ids, syms)))
        return formula, props, streams, tuple(batches)

    @staticmethod
    def _apply_scalar(monitors, kind, payload) -> None:
        if kind == "all":
            for monitor in monitors:
                monitor.step(payload)
        elif kind == "row":
            for monitor, symbol in zip(monitors, payload):
                monitor.step(symbol)
        elif kind == "events":
            for stream, symbol in payload:
                monitors[stream].step(symbol)
        else:
            for stream, symbol in zip(*payload):
                monitors[stream].step(symbol)

    @staticmethod
    def _apply_fleet(fleet, kind, payload) -> None:
        if kind == "all":
            fleet.step_broadcast(payload)
        elif kind == "row":
            fleet.step_aligned(payload)
        elif kind == "events":
            fleet.step_events(payload)
        else:
            fleet.step_events_columns(*payload)

    def check(self, subject) -> str | None:
        from repro.fleet.compile import HAVE_NUMPY, CompiledMonitor
        from repro.fleet.fleet import MonitorFleet

        formula, props, streams, batches = subject
        alphabet = Alphabet.powerset_of_propositions(list(props))
        compiled = CompiledMonitor(formula_to_automaton(formula, alphabet))
        monitors = [
            PrefixMonitor(compiled.automaton, compiled=compiled)
            for _ in range(streams)
        ]
        fleets = {"pure": MonitorFleet(compiled, streams, backend="pure")}
        if HAVE_NUMPY:
            fleets["numpy"] = MonitorFleet(compiled, streams, backend="numpy")
        for index, (kind, payload) in enumerate(batches):
            self._apply_scalar(monitors, kind, payload)
            expected_verdicts = [monitor.verdict for monitor in monitors]
            expected_positions = [monitor.position for monitor in monitors]
            for backend, fleet in fleets.items():
                self._apply_fleet(fleet, kind, payload)
                if fleet.verdicts() != expected_verdicts:
                    return (
                        f"{formula!r}: {backend} fleet verdicts"
                        f" {[v.value for v in fleet.verdicts()]} != scalar"
                        f" {[v.value for v in expected_verdicts]} after"
                        f" batch {index} ({kind})"
                    )
                if fleet.positions() != expected_positions:
                    return (
                        f"{formula!r}: {backend} fleet positions"
                        f" {fleet.positions()} != scalar {expected_positions}"
                        f" after batch {index} ({kind})"
                    )
        return None

    def shrink(self, subject):
        formula, props, streams, batches = subject
        # Drop batches greedily from the end, then shrink the formula.
        kept = list(batches)
        index = len(kept) - 1
        while index >= 0 and len(kept) > 1:
            candidate = kept[:index] + kept[index + 1 :]
            if self.check((formula, props, streams, tuple(candidate))) is not None:
                kept = candidate
            index -= 1
        shrunk = shrink_formula(
            formula, lambda f: self.check((f, props, streams, tuple(kept))) is not None
        )
        return shrunk, props, streams, tuple(kept)

    def to_artifact(self, subject) -> dict[str, Any]:
        from repro.fleet.stream import symbol_to_json

        formula, props, streams, batches = subject
        encoded = []
        for kind, payload in batches:
            if kind == "all":
                encoded.append(["all", symbol_to_json(payload)])
            elif kind == "row":
                encoded.append(["row", [symbol_to_json(s) for s in payload]])
            elif kind == "events":
                encoded.append(
                    ["events", [[i, symbol_to_json(s)] for i, s in payload]]
                )
            else:
                ids, syms = payload
                encoded.append(
                    ["columns", [list(ids), [symbol_to_json(s) for s in syms]]]
                )
        return {
            "formula": repr(formula),
            "props": list(props),
            "streams": streams,
            "batches": encoded,
        }

    def from_artifact(self, artifact):
        from repro.fleet.stream import symbol_from_json

        batches = []
        for kind, payload in artifact["batches"]:
            if kind == "all":
                batches.append(("all", symbol_from_json(payload)))
            elif kind == "row":
                batches.append(("row", tuple(symbol_from_json(s) for s in payload)))
            elif kind == "events":
                batches.append(
                    ("events", tuple((i, symbol_from_json(s)) for i, s in payload))
                )
            else:
                ids, syms = payload
                batches.append(
                    (
                        "columns",
                        (tuple(ids), tuple(symbol_from_json(s) for s in syms)),
                    )
                )
        return (
            parse_formula(artifact["formula"]),
            tuple(artifact["props"]),
            artifact["streams"],
            tuple(batches),
        )

    def describe(self, subject) -> str:
        formula, _props, streams, batches = subject
        return f"{formula!r} × {streams} streams × {len(batches)} batch(es)"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        FormulaLassoOracle(),
        FormulaClassOracle(),
        NormalizeOracle(),
        LinguisticOracle(),
        AutomatonOracle(),
        FastpathOracle(),
        FleetOracle(),
    )
}


def oracle_named(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        known = ", ".join(sorted(ORACLES))
        raise ValueError(f"unknown oracle {name!r}; known oracles: {known}") from None
