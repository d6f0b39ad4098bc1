"""The unified classifier: formula → automaton → exact hierarchy class.

``formula_route`` is the one place that decides how a formula compiles to
a deterministic ω-automaton; ``formula_to_automaton`` runs the route it
picks.  The paper's own constructions come first:

* κ-normal-form formulae go through the deterministic past tester and the
  linguistic operators (``Sat(□p) = A(esat(p))`` etc., Prop 5.3) — no
  determinization needed, and the result is counter-free by construction;
* conjunctions of simple obligation / simple reactivity formulae become
  multi-pair Streett automata on products of testers;
* a formula in neither shape is first rewritten by
  :func:`repro.logic.rewrite.normalize` (negation pushed through ``□``/``◇``,
  §4's response and precedence laws); when the rewritten formula has one of
  the shapes above, it is compiled on that route instead;
* everything else takes the general pipeline: GPVW tableau → NBA → Safra →
  deterministic Rabin.

``formula_report`` runs the §5.1 decision procedures on that automaton and
returns the combined semantic + syntactic report; ``classify_formula``, the
engine cache and the census all build their reports through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.classes import TemporalClass, Verdict
from repro.errors import ClassificationError
from repro.finitary.dfa import explore
from repro.logic.ast import And, Formula, Or
from repro.logic.classes import (
    SyntacticVerdict,
    analyze_syntax,
    is_guarantee_formula,
    is_persistence_formula,
    is_recurrence_formula,
    is_safety_formula,
    is_simple_obligation_formula,
    is_simple_reactivity_formula,
)
from repro.logic.rewrite import normalize
from repro.logic.semantics import esat_language
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton
from repro.omega.classify import classify as classify_automaton
from repro.omega.closure import is_uniform_liveness
from repro.omega.linguistic import a_of, e_of, p_of, r_of
from repro.words.alphabet import Alphabet, Symbol


def default_alphabet(formula: Formula) -> Alphabet:
    """``2^AP`` over the formula's propositions (one dummy prop if none)."""
    propositions = formula.propositions() or frozenset({"p"})
    return Alphabet.powerset_of_propositions(propositions)


def _split_disjuncts(formula: Formula) -> list[Formula]:
    return list(formula.operands) if isinstance(formula, Or) else [formula]


def _merge_safety_bodies(parts: list[Formula]) -> Formula:
    """``□p₁ ∨ □p₂ = □(■p₁ ∨ ■p₂)`` (§4's safety disjunction law)."""
    if len(parts) == 1:
        return parts[0]
    from repro.logic.ast import Historically

    return Or(tuple(Historically(part) for part in parts))


def _merge_guarantee_bodies(parts: list[Formula]) -> Formula:
    """``◇q₁ ∨ ◇q₂ = ◇(q₁ ∨ q₂)``."""
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _merge_recurrence_bodies(parts: list[Formula]) -> Formula:
    """``□◇p₁ ∨ □◇p₂ = □◇(p₁ ∨ p₂)``."""
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _merge_persistence_bodies(parts: list[Formula]) -> Formula:
    """``◇□q₁ ∨ ◇□q₂ = ◇□(q₂ ∨ ⊖(q₁ S (q₁ ∧ ¬q₂)))`` (§4), folded left."""
    from repro.logic.ast import And as AndNode
    from repro.logic.ast import Not as NotNode
    from repro.logic.ast import Previous, Since

    merged = parts[0]
    for part in parts[1:]:
        merged = Or(
            (part, Previous(Since(merged, AndNode((merged, NotNode(part))))))
        )
    return merged


def _simple_reactivity_pair(conjunct: Formula, alphabet: Alphabet) -> DetAutomaton:
    """``□◇p ∨ ◇□q`` as a one-pair Streett automaton on the tester product."""
    recurrence_parts = []
    persistence_parts = []
    for disjunct in _split_disjuncts(conjunct):
        if is_recurrence_formula(disjunct):
            recurrence_parts.append(disjunct.operand.operand)
        else:
            persistence_parts.append(disjunct.operand.operand)
    p_lang = (
        esat_language(_merge_recurrence_bodies(recurrence_parts), alphabet)
        if recurrence_parts
        else None
    )
    q_lang = (
        esat_language(_merge_persistence_bodies(persistence_parts), alphabet)
        if persistence_parts
        else None
    )
    if p_lang is None:
        return p_of(q_lang)
    if q_lang is None:
        return r_of(p_lang)
    dp, dq = p_lang.dfa, q_lang.dfa

    def successor(state: tuple[int, int], symbol: Symbol) -> tuple[int, int]:
        return dp.step(state[0], symbol), dq.step(state[1], symbol)

    rows, order = explore(alphabet, (dp.initial, dq.initial), successor)
    recurrent = frozenset(i for i, (sp, _sq) in enumerate(order) if sp in dp.accepting)
    persistent = frozenset(i for i, (_sp, sq) in enumerate(order) if sq in dq.accepting)
    return DetAutomaton(
        alphabet, rows, 0, Acceptance(Kind.STREETT, (Pair(recurrent, persistent),))
    )


def _simple_obligation_pair(conjunct: Formula, alphabet: Alphabet) -> DetAutomaton:
    """``□p ∨ ◇q`` as a co-Büchi automaton: a sticky "p never failed" bit and
    a sticky "q happened" latch; accept iff eventually always (latch ∨ ok)."""
    safety_parts = []
    guarantee_parts = []
    for disjunct in _split_disjuncts(conjunct):
        if is_safety_formula(disjunct):
            safety_parts.append(disjunct.operand)
        else:
            guarantee_parts.append(disjunct.operand)
    p_lang = (
        esat_language(_merge_safety_bodies(safety_parts), alphabet)
        if safety_parts
        else None
    )
    q_lang = (
        esat_language(_merge_guarantee_bodies(guarantee_parts), alphabet)
        if guarantee_parts
        else None
    )
    if p_lang is None:
        return e_of(q_lang)
    if q_lang is None:
        return a_of(p_lang)
    dp, dq = p_lang.dfa, q_lang.dfa

    State = tuple[int, int, bool, bool]

    def successor(state: State, symbol: Symbol) -> State:
        sp, sq, ok, latch = state
        sp2, sq2 = dp.step(sp, symbol), dq.step(sq, symbol)
        return sp2, sq2, ok and sp2 in dp.accepting, latch or sq2 in dq.accepting

    initial: State = (dp.initial, dq.initial, True, False)
    return DetAutomaton.build_cobuchi(
        alphabet, initial, successor, lambda s: s[2] or s[3]
    )


#: Stable route identifiers (also used as span attributes by the CLI).
ROUTE_LINGUISTIC = "linguistic-tester"
ROUTE_STREETT_PRODUCT = "streett-pair-product"
ROUTE_COBUCHI_PRODUCT = "cobuchi-product"
ROUTE_SAFRA = "gpvw-safra"


@dataclass(frozen=True, slots=True)
class Route:
    """The construction ``formula_to_automaton`` picks for one formula:
    a stable id, a human-readable detail line and the builder itself
    (``build(alphabet)`` → the deterministic automaton)."""

    id: str
    detail: str
    build: Callable[[Alphabet], DetAutomaton]


def _tester(shape: str, operator, body: Formula) -> Route:
    return Route(
        ROUTE_LINGUISTIC,
        f"{shape} tester (Prop 5.3)",
        lambda alphabet: operator(esat_language(body, alphabet)),
    )


def _product(pair, conjuncts, alphabet: Alphabet) -> DetAutomaton:
    result = pair(conjuncts[0], alphabet)
    for conjunct in conjuncts[1:]:
        result = result.intersection(pair(conjunct, alphabet))
    return result


def _general(formula: Formula, alphabet: Alphabet) -> DetAutomaton:
    from repro.omega.safra import formula_to_dra

    return formula_to_dra(formula, alphabet)


def _normal_form_route(formula: Formula) -> Route | None:
    """The paper's own construction for ``formula`` when its syntactic shape
    allows one, else ``None``."""
    # Fast paths: the paper's normal forms via Prop 5.3 testers.
    if is_safety_formula(formula):
        return _tester("safety normal form □p → A(esat(p))", a_of, formula.operand)
    if is_guarantee_formula(formula):
        return _tester("guarantee normal form ◇p → E(esat(p))", e_of, formula.operand)
    if is_recurrence_formula(formula):
        return _tester(
            "recurrence normal form □◇p → R(esat(p))", r_of, formula.operand.operand
        )
    if is_persistence_formula(formula):
        return _tester(
            "persistence normal form ◇□p → P(esat(p))", p_of, formula.operand.operand
        )

    conjuncts = formula.operands if isinstance(formula, And) else (formula,)
    if all(is_simple_reactivity_formula(c) for c in conjuncts):
        return Route(
            ROUTE_STREETT_PRODUCT,
            f"{len(conjuncts)} simple reactivity conjunct(s) → one Streett pair each"
            " on tester products",
            lambda alphabet: _product(_simple_reactivity_pair, conjuncts, alphabet),
        )
    if all(is_simple_obligation_formula(c) for c in conjuncts):
        return Route(
            ROUTE_COBUCHI_PRODUCT,
            f"{len(conjuncts)} simple obligation conjunct(s) → sticky-bit co-Büchi"
            " products",
            lambda alphabet: _product(_simple_obligation_pair, conjuncts, alphabet),
        )
    return None


def formula_route(formula: Formula) -> Route:
    """Evaluate the dispatch predicates once and say which construction
    compiles ``formula``: the paper's own where a syntactic shape allows it,
    directly or after :func:`~repro.logic.rewrite.normalize` rewrites the
    formula into such a shape, the general GPVW → Safra pipeline otherwise.

    A rewritten formula's route builds the automaton of the rewritten,
    equivalent formula; its detail names the laws and the rewritten formula.
    """
    route = _normal_form_route(formula)
    if route is not None:
        return route
    laws: list[str] = []
    normal = normalize(formula, laws)
    route = _normal_form_route(normal) if laws else None
    if route is not None:
        return Route(
            route.id, f"{'; '.join(laws)} rewrote it to {normal!r}; {route.detail}", route.build
        )
    return Route(
        ROUTE_SAFRA,
        "general pipeline: GPVW tableau → NBA → Safra → deterministic Rabin",
        lambda alphabet: _general(formula, alphabet),
    )


def formula_to_automaton(formula: Formula, alphabet: Alphabet | None = None) -> DetAutomaton:
    """Compile a formula to a deterministic ω-automaton over ``alphabet``."""
    return formula_route(formula).build(alphabet or default_alphabet(formula))


@dataclass(frozen=True, slots=True)
class FormulaReport:
    """Everything the library can say about one formula."""

    formula: Formula
    alphabet: Alphabet
    automaton: DetAutomaton
    semantic: Verdict
    syntactic: SyntacticVerdict
    is_uniform_liveness: bool | None

    @property
    def canonical_class(self) -> TemporalClass:
        return self.semantic.canonical

    @property
    def streett_index(self) -> int:
        return self.semantic.streett_index

    @property
    def obligation_degree(self) -> int | None:
        return self.semantic.obligation_degree

    @property
    def is_liveness(self) -> bool:
        return self.semantic.is_liveness

    def summary(self) -> str:
        lines = [
            f"formula:        {self.formula!r}",
            f"class:          {self.canonical_class.value}"
            f" ({self.canonical_class.borel_name}, {self.canonical_class.topological_name})",
            f"memberships:    "
            + ", ".join(c.value for c in TemporalClass if self.semantic.membership[c]),
            f"normal form:    {self.syntactic.normal_form.value if self.syntactic.normal_form else 'none'}",
            f"syntactic:      {self.syntactic.fragment_class.value}",
            f"liveness:       {self.is_liveness}"
            + (f" (uniform: {self.is_uniform_liveness})" if self.is_uniform_liveness is not None else ""),
            f"streett index:  {self.streett_index}",
        ]
        if self.obligation_degree is not None:
            lines.append(f"obl. degree:    {self.obligation_degree}")
        return "\n".join(lines)


def formula_report(
    formula: Formula, alphabet: Alphabet, automaton: DetAutomaton
) -> FormulaReport:
    """Classify ``formula`` on ``automaton``, a deterministic automaton for it
    over ``alphabet``: the §5.1 verdict, Wagner's measures and the syntax."""
    verdict = classify_automaton(automaton)
    try:
        uniform = is_uniform_liveness(automaton) if verdict.is_liveness else False
    except ClassificationError:
        uniform = None
    return FormulaReport(
        formula=formula,
        alphabet=alphabet,
        automaton=automaton,
        semantic=verdict,
        syntactic=analyze_syntax(formula),
        is_uniform_liveness=uniform,
    )


def classify_formula(formula: Formula, alphabet: Alphabet | None = None) -> FormulaReport:
    """Compile and fully classify a formula (the library's headline call).

    Pure and uncached; heavy/repetitive traffic should go through
    :func:`repro.engine.cache.cached_classify_formula` or the batch
    :class:`repro.engine.batch.EvaluationEngine`, which memoize this work.
    """
    from repro.obs.spans import stage

    with stage("classifier.classify_formula") as step:
        alphabet = alphabet or default_alphabet(formula)
        report = formula_report(formula, alphabet, formula_to_automaton(formula, alphabet))
        step.set_attribute("states", report.automaton.num_states)
        step.set_attribute("canonical", report.canonical_class.value)
    return report
