"""Classification provenance: *why* did a property land in its class?

A classification verdict compresses a lot of structure into one word
("recurrence").  Explain mode keeps the evidence attached:

* **the compile route** — which of the four views produced the deciding
  automaton: the Prop 5.3 linguistic testers for κ-normal-form input, the
  single-pair Streett / co-Büchi products for simple reactivity and
  obligation conjunctions, or the general GPVW → Safra pipeline, as
  :func:`repro.core.classifier.formula_route` decides it; when a §4
  rewriting law moved the formula onto a tester route, the route detail
  names the law and the rewritten formula;
* **the deciding view** — whether the verdict is certified syntactically
  (the formula literally *is* a §4 normal form of its canonical class) or
  semantically (the §5.1 decision procedures on the automaton view);
* **the automaton evidence** — acceptance kind, the Streett pairs with
  their recurrent/persistent state sets, reachable size, Wagner's Streett
  index and the obligation degree;
* **a per-class reason** — for each of the six classes, the §5.1 condition
  that witnessed membership or its failure (closure equivalence for
  safety, Wagner's cycle conditions for recurrence/persistence, …), read
  off the verdict the classifier already computed.

``classify --explain`` renders this as the "why" report; the explanation
object itself is plain data for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.classes import TemporalClass

#: The route id of an ω-regular expression (formula routes live with the
#: dispatch in :mod:`repro.core.classifier`).
ROUTE_OMEGA_REGEX = "omega-regex"


# ---------------------------------------------------------------------------
# Per-class reasons on the automaton view (§5.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassReason:
    """One class's membership verdict with the §5.1 condition that decided it."""

    temporal_class: TemporalClass
    member: bool
    reason: str


def class_reasons(membership, index: int) -> list[ClassReason]:
    """Say which §5.1 condition decided each class, given the verdict's
    ``membership`` map and the automaton's Streett ``index``."""
    safety = membership[TemporalClass.SAFETY]
    guarantee = membership[TemporalClass.GUARANTEE]
    recurrence = membership[TemporalClass.RECURRENCE]
    persistence = membership[TemporalClass.PERSISTENCE]
    reasons = [
        ClassReason(
            TemporalClass.SAFETY,
            safety,
            "Π = cl(Π): no reachable cycle of live states is rejected"
            if safety
            else "Π ≠ cl(Π): a reachable cycle of live states is rejected, so the"
            " safety closure accepts a word the property rejects",
        ),
        ClassReason(
            TemporalClass.GUARANTEE,
            guarantee,
            "the complement is closed, so the property is open (Σ₁)"
            if guarantee
            else "the complement is not closed, so the property is not open",
        ),
        ClassReason(
            TemporalClass.OBLIGATION,
            recurrence and persistence,
            "member of both recurrence and persistence (obligation = Π₂ ∩ Σ₂)"
            if recurrence and persistence
            else "missing from "
            + (
                "recurrence and persistence"
                if not recurrence and not persistence
                else ("recurrence" if not recurrence else "persistence")
            )
            + ", so not an obligation",
        ),
        ClassReason(
            TemporalClass.RECURRENCE,
            recurrence,
            "Wagner: no accepting cycle sits inside a rejecting super-cycle (G_δ)"
            if recurrence
            else "Wagner violation: an accepting cycle sits inside a rejecting"
            " super-cycle, so the property is not G_δ",
        ),
        ClassReason(
            TemporalClass.PERSISTENCE,
            persistence,
            "Wagner (dual): no rejecting cycle sits inside an accepting super-cycle (F_σ)"
            if persistence
            else "Wagner violation (dual): a rejecting cycle sits inside an accepting"
            " super-cycle, so the property is not F_σ",
        ),
        ClassReason(
            TemporalClass.REACTIVITY,
            True,
            f"every ω-regular property is reactivity; Streett index {index}"
            f" (needs ≥{max(index, 1)} pair(s))",
        ),
    ]
    return reasons


def automaton_evidence(automaton) -> dict[str, Any]:
    """The quantitative evidence attached to a verdict: sizes and pair
    structure (Boker et al.'s point — keep the numbers with the verdict)."""
    acceptance = automaton.acceptance
    pairs = []
    for pair in acceptance.pairs:
        pairs.append(
            {
                "recurrent": sorted(pair.left),
                "persistent": sorted(pair.right),
            }
        )
    return {
        "states": automaton.num_states,
        "reachable": len(automaton.reachable),
        "alphabet": len(automaton.alphabet),
        "acceptance": acceptance.kind.name.lower(),
        "pairs": pairs,
    }


# ---------------------------------------------------------------------------
# The explanation object
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Explanation:
    """Everything explain mode knows about one classified property."""

    subject: str
    canonical: TemporalClass
    deciding_view: str
    route: str
    route_detail: str
    reasons: tuple[ClassReason, ...]
    evidence: dict[str, Any]
    normal_form: TemporalClass | None = None
    fragment_class: TemporalClass | None = None
    streett_index: int | None = None
    obligation_degree: int | None = None
    is_liveness: bool | None = None

    def render(self) -> str:
        lines = [
            f"subject:        {self.subject}",
            f"class:          {self.canonical.value}"
            f" ({self.canonical.borel_name}, {self.canonical.topological_name})",
            f"deciding view:  {self.deciding_view}",
            f"compile route:  {self.route} — {self.route_detail}",
        ]
        if self.normal_form is not None:
            lines.append(
                f"normal form:    {self.normal_form.value}"
                f" (shape {self.normal_form.formula_shape})"
            )
        elif self.fragment_class is not None:
            lines.append(
                f"normal form:    none (syntactic fragment: {self.fragment_class.value})"
            )
        if self.is_liveness is not None:
            lines.append(f"liveness:       {self.is_liveness}")
        evidence = self.evidence
        lines.append(
            f"automaton:      {evidence['states']} states"
            f" ({evidence['reachable']} reachable), {evidence['acceptance']} acceptance,"
            f" {len(evidence['pairs'])} pair(s)"
        )
        for index, pair in enumerate(evidence["pairs"]):
            recurrent, persistent = pair["recurrent"], pair["persistent"]
            lines.append(
                f"  pair {index}:       recurrent {_set_text(recurrent)},"
                f" persistent {_set_text(persistent)}"
            )
        if self.streett_index is not None:
            lines.append(f"streett index:  {self.streett_index}")
        if self.obligation_degree is not None:
            lines.append(f"obl. degree:    {self.obligation_degree}")
        lines.append("membership:")
        for reason in self.reasons:
            mark = "∈" if reason.member else "∉"
            lines.append(f"  {mark} {reason.temporal_class.value:12s} {reason.reason}")
        return "\n".join(lines)


def _set_text(states: list[int], *, limit: int = 12) -> str:
    if not states:
        return "∅"
    if len(states) <= limit:
        return "{" + ", ".join(map(str, states)) + "}"
    head = ", ".join(map(str, states[:limit]))
    return f"{{{head}, … {len(states)} states}}"


def explain_formula(formula, alphabet=None, *, bank=None) -> Explanation:
    """Explain one formula's verdict (memoized through the engine cache)."""
    from repro.core.classifier import formula_route
    from repro.engine.cache import cached_classify_formula
    from repro.logic import parse_formula

    if isinstance(formula, str):
        formula = parse_formula(formula)
    report = cached_classify_formula(formula, alphabet, bank=bank)
    route = formula_route(formula)
    canonical = report.canonical_class
    syntactic = report.syntactic
    if syntactic.normal_form is not None and syntactic.normal_form is canonical:
        deciding = (
            f"formula view: the formula is literally the {canonical.value}"
            " normal form (§4), certified syntactically"
        )
    else:
        deciding = (
            "automaton view: §5.1 semantic decision procedures on the"
            " deterministic automaton"
        )
    return Explanation(
        subject=repr(report.formula),
        canonical=canonical,
        deciding_view=deciding,
        route=route.id,
        route_detail=route.detail,
        reasons=tuple(class_reasons(report.semantic.membership, report.streett_index)),
        evidence=automaton_evidence(report.automaton),
        normal_form=syntactic.normal_form,
        fragment_class=syntactic.fragment_class,
        streett_index=report.streett_index,
        obligation_degree=report.obligation_degree,
        is_liveness=report.is_liveness,
    )


def explain_expression(expression: str, letters: str = "ab", *, bank=None) -> Explanation:
    """Explain an ω-regular expression's verdict (automaton view only)."""
    from repro.engine.cache import cached_omega_language
    from repro.omega.classify import classify as classify_automaton
    from repro.words import Alphabet

    automaton = cached_omega_language(
        expression, Alphabet.from_letters(letters), bank=bank
    )
    verdict = classify_automaton(automaton)
    index = verdict.streett_index
    return Explanation(
        subject=f"omega {letters}: {expression}",
        canonical=verdict.canonical,
        deciding_view="automaton view: §5.1 semantic decision procedures"
        " (an expression has no formula-normal-form certificate)",
        route=ROUTE_OMEGA_REGEX,
        route_detail="ω-regular expression → Büchi construction → determinization",
        reasons=tuple(class_reasons(verdict.membership, index)),
        evidence=automaton_evidence(automaton),
        streett_index=index,
        obligation_degree=verdict.obligation_degree,
        is_liveness=verdict.is_liveness,
    )
