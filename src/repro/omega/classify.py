"""Deciding the class of an ω-regular property (§5.1, Landweber/Wagner).

Semantic (authoritative) checks, all polynomial and all on the automaton's
own graph (no product automata):

* **safety** — ``Π = cl(Π)``: no reachable cycle inside the live states
  (non-empty residual language) is rejected.  ``Π ⊆ cl(Π)`` holds by
  construction, and the runs of ``cl(Π)`` are exactly the runs that never
  leave the live region (:func:`repro.omega.closure.closed_on`);
* **guarantee** — the complement is safety: no reachable cycle inside the
  complement's live states is accepted;
* **recurrence** — Wagner's condition ``J ∈ F ∧ J ⊆ A ⇒ A ∈ F`` on
  accessible cycles, decided without cycle enumeration: a violation exists
  iff some Streett pair ``(R,P)`` admits a non-trivial SCC ``S`` of the
  reachable graph minus ``R`` with ``S ⊄ P`` that still contains an
  accepting cycle (then ``A := S`` rejects while ``J ⊆ S`` accepts);
* **persistence** — dually, some *good component* contains, for some pair
  ``(R,P)``, a non-trivial SCC of itself minus ``R`` not inside ``P``;
* **obligation** — recurrence ∧ persistence (the paper: obligation is
  exactly the intersection of the two classes);
* **reactivity** — universal for deterministic automata; the interesting
  quantity is the *index* (minimal number of Streett pairs), computed from
  Wagner's maximal alternating chains ``B₁ ⊂ J₁ ⊂ … ⊂ Jₙ`` by a recursive
  decomposition that always steps to strictly smaller arenas.

Rabin-kind automata are classified through their (same-core) complements
using the class dualities.  The module also provides the paper's *syntactic*
automaton-shape recognizers (safety/guarantee/obligation-by-rank/
recurrence/persistence automata of §5), which are sound certificates:
a κ-shaped automaton always denotes a κ-property, but a κ-property may be
presented by an automaton of the wrong shape — that gap is exactly what
Prop 5.1's normalizations (``repro.omega.transform``) close.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.classes import TemporalClass, Verdict
from repro.omega.acceptance import Kind
from repro.omega.automaton import DetAutomaton
from repro.omega.closure import closed_on, is_safety_closed
from repro.omega.emptiness import nonempty_states, streett_good_components
from repro.omega.graph import condensation, cyclic_sccs, is_nontrivial_component, reachable_from

# ---------------------------------------------------------------------------
# Semantic classification
# ---------------------------------------------------------------------------


def is_safety(aut: DetAutomaton) -> bool:
    """Is the property topologically closed (= a safety property)?"""
    return is_safety_closed(aut)


def is_guarantee(aut: DetAutomaton) -> bool:
    """Is the property open — equivalently, is its complement safety?"""
    return closed_on(aut.reachable & nonempty_states(aut.complement()), aut)


def _streett_violations_of_recurrence(aut: DetAutomaton) -> bool:
    """Is there an accepting cycle inside a rejecting super-cycle? (Streett kind)"""
    successors, pairs = aut.successors, aut.acceptance.pairs
    for pair in pairs:
        for cycle in cyclic_sccs(aut.reachable - pair.left, successors):
            # Inside P the super-cycle would still be accepting on this pair.
            if not cycle <= pair.right and streett_good_components(cycle, successors, pairs):
                return True
    return False


def _streett_violations_of_persistence(aut: DetAutomaton) -> bool:
    """Is there a rejecting cycle inside an accepting super-cycle? (Streett kind)"""
    successors, pairs = aut.successors, aut.acceptance.pairs
    return any(
        not cycle <= pair.right
        for component in streett_good_components(aut.reachable, successors, pairs)
        for pair in pairs
        for cycle in cyclic_sccs(component - pair.left, successors)
    )


def is_recurrence(aut: DetAutomaton) -> bool:
    """Is the property a ``G_δ`` set (recurrence)?"""
    if aut.acceptance.kind is Kind.STREETT:
        return not _streett_violations_of_recurrence(aut)
    return not _streett_violations_of_persistence(aut.complement())


def is_persistence(aut: DetAutomaton) -> bool:
    """Is the property an ``F_σ`` set (persistence)?"""
    if aut.acceptance.kind is Kind.STREETT:
        return not _streett_violations_of_persistence(aut)
    return not _streett_violations_of_recurrence(aut.complement())


def is_obligation(aut: DetAutomaton) -> bool:
    """Obligation = recurrence ∩ persistence (§2, "the obligation class is
    precisely the intersection of the recurrence and persistence classes")."""
    return is_recurrence(aut) and is_persistence(aut)


def classify(aut: DetAutomaton) -> Verdict:
    """Full membership profile of the property across the hierarchy.

    One live-set pass for the automaton and one for its complement serve
    safety, guarantee and liveness together.
    """
    complement = aut.complement()
    reachable = aut.reachable
    live = nonempty_states(aut)
    colive = nonempty_states(complement)
    recurrence = is_recurrence(aut)
    persistence = is_persistence(aut)
    membership = {
        TemporalClass.SAFETY: closed_on(reachable & live, complement),
        TemporalClass.GUARANTEE: closed_on(reachable & colive, aut),
        TemporalClass.OBLIGATION: recurrence and persistence,
        TemporalClass.RECURRENCE: recurrence,
        TemporalClass.PERSISTENCE: persistence,
        TemporalClass.REACTIVITY: True,
    }
    return Verdict(membership=membership, is_liveness=reachable <= live)


# ---------------------------------------------------------------------------
# Wagner's alternating chains and the reactivity index
# ---------------------------------------------------------------------------


def _chain_lengths(aut: DetAutomaton) -> tuple[int, int]:
    """``(longest chain topped by an accepting cycle, … by a rejecting cycle)``
    over all reachable arenas of a Streett-kind automaton.  Chains are
    strictly decreasing and alternate acceptance."""
    successors, pairs = aut.successors, aut.acceptance.pairs

    @lru_cache(maxsize=None)
    def top_accepting(arena: frozenset[int]) -> int:
        return max(
            (
                1 + top_rejecting(component)
                for component in streett_good_components(arena, successors, pairs)
            ),
            default=0,
        )

    @lru_cache(maxsize=None)
    def top_rejecting(arena: frozenset[int]) -> int:
        return max(
            (
                1 + top_accepting(cycle)
                for pair in pairs
                for cycle in cyclic_sccs(arena - pair.left, successors)
                if not cycle <= pair.right
            ),
            default=0,
        )

    reachable = aut.reachable
    return top_accepting(reachable), top_rejecting(reachable)


def _start_oriented_lengths(aut: DetAutomaton) -> tuple[int, int]:
    """``(L_sa, L_sr)``: the longest alternating cycle chains whose *smallest*
    element is accepting resp. rejecting.

    A top-τ chain of length ℓ yields top-τ chains of every length ≤ ℓ
    (drop bottoms), so both quantities follow from the two top-oriented
    maxima by a parity argument.
    """
    if aut.acceptance.kind is Kind.STREETT:
        top_acc, top_rej = _chain_lengths(aut)
    else:
        # Complementing swaps accepting and rejecting cycles.
        comp_acc, comp_rej = _chain_lengths(aut.complement())
        top_acc, top_rej = comp_rej, comp_acc

    def largest_with_parity(bound: int, odd: bool) -> int:
        if bound <= 0:
            return 0
        return bound if (bound % 2 == 1) == odd else bound - 1

    start_acc = max(largest_with_parity(top_acc, odd=True), largest_with_parity(top_rej, odd=False))
    start_rej = max(largest_with_parity(top_acc, odd=False), largest_with_parity(top_rej, odd=True))
    return start_acc, start_rej


def streett_index(aut: DetAutomaton) -> int:
    """Wagner's Streett index: the minimal number of Streett pairs any
    deterministic automaton for the property needs — ``⌈L/2⌉`` for the
    longest alternating chain of accessible cycles starting with a
    *rejecting* one (e.g. ``◇□p ∧ □◇q`` has index 2 while its complement
    needs a single Rabin pair).  Index 0 means the property is universal
    (no rejecting cycle at all)."""
    _start_acc, start_rej = _start_oriented_lengths(aut)
    return (start_rej + 1) // 2


def rabin_index(aut: DetAutomaton) -> int:
    """Wagner's Rabin index: chains starting with an *accepting* cycle;
    index 0 means the empty property."""
    start_acc, _start_rej = _start_oriented_lengths(aut)
    return (start_acc + 1) // 2


# ---------------------------------------------------------------------------
# Obligation degree (the Obl_k subhierarchy)
# ---------------------------------------------------------------------------


def obligation_degree(aut: DetAutomaton, verdict: Verdict | None = None) -> int | None:
    """The minimal ``k`` with the property in ``Obl_k``, or ``None`` when the
    property is not an obligation property at all.

    For an obligation property every non-trivial SCC is uniformly accepting
    or rejecting, so the degree is the maximal number of
    rejecting→accepting alternations along a path of the SCC DAG
    (Wagner's chains collapse to DAG paths here).  A caller that already
    holds ``classify(aut)`` passes it as ``verdict`` so the obligation test
    is not decided a second time.
    """
    obligation = (
        is_obligation(aut) if verdict is None else verdict.membership[TemporalClass.OBLIGATION]
    )
    if not obligation:
        return None
    dag = condensation(aut.reachable, aut.successors)
    # best[i][seen]: the most completed (rejecting, later accepting) pairs
    # along a path from component i, ``seen`` telling whether a rejecting
    # component was passed with no accepting one since.  Successors have
    # smaller indices, so index order is a valid DP order.
    best: list[tuple[int, int]] = []
    for index, component in enumerate(dag.components):
        if not is_nontrivial_component(component, aut.successors):
            kind = "transient"
        elif aut.acceptance.accepts_infinity_set(frozenset(component)):
            kind = "accepting"
        else:
            kind = "rejecting"
        row = []
        for seen_rejecting in (False, True):
            completes = kind == "accepting" and seen_rejecting
            seen_next = not completes and (seen_rejecting or kind == "rejecting")
            follow = max((best[target][seen_next] for target in dag.edges[index]), default=0)
            row.append(int(completes) + follow)
        best.append(tuple(row))

    degree = best[dag.component_of[aut.initial]][False]
    # A property with accepting behavior but no alternation still needs one
    # conjunct (A(Φ)∪E(∅) or similar) unless it is trivial.
    return max(degree, 1)


# ---------------------------------------------------------------------------
# The paper's syntactic automaton shapes (§5)
# ---------------------------------------------------------------------------


def _good_bad_split(aut: DetAutomaton) -> tuple[frozenset[int], frozenset[int]]:
    """``G = ⋂ᵢ (Rᵢ ∪ Pᵢ)`` and ``B = Q − G`` (§5.1) for Streett kind."""
    good = frozenset(aut.states)
    for pair in aut.acceptance.pairs:
        good &= pair.left | pair.right
    return good, frozenset(aut.states) - good


def is_safety_shaped(aut: DetAutomaton) -> bool:
    """No transition from a bad state to a good state (§5's safety automaton).

    A sound certificate: every safety-shaped automaton whose good region is
    also *accepting-closed* denotes a safety property.  The §5.1 check
    ``closure(B) ∩ G = ∅`` is exactly this condition.
    """
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, bad = _good_bad_split(aut)
    closure = reachable_from(bad, aut.successors) if bad else frozenset()
    return not closure & good


def is_guarantee_shaped(aut: DetAutomaton) -> bool:
    """No transition from a good state to a bad state (§5's guarantee automaton)."""
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, _bad = _good_bad_split(aut)
    closure = reachable_from(good, aut.successors) if good else frozenset()
    return closure <= good


def is_recurrence_shaped(aut: DetAutomaton) -> bool:
    """All persistent sets empty: a (generalized) Büchi automaton (§5: P = ∅)."""
    return aut.acceptance.kind is Kind.STREETT and all(
        not pair.right for pair in aut.acceptance.pairs
    )


def is_persistence_shaped(aut: DetAutomaton) -> bool:
    """All recurrent sets empty: a co-Büchi automaton (§5: R = ∅)."""
    return aut.acceptance.kind is Kind.STREETT and all(
        not pair.left for pair in aut.acceptance.pairs
    )


def is_simple_reactivity_shaped(aut: DetAutomaton) -> bool:
    """A single unrestricted Streett pair (§5's simple reactivity automaton)."""
    return aut.acceptance.kind is Kind.STREETT and len(aut.acceptance.pairs) == 1


def is_obligation_shaped(aut: DetAutomaton, degree: int | None = None) -> bool:
    """Does a rank function ``ρ : Q → 0..k`` as in §5 exist?

    Requirements: ranks never decrease along transitions, bad→good moves
    strictly increase the rank, and no good state of the top rank moves to a
    bad state.  Equivalently the run alternates B→G at most ``k`` times; we
    check realizability on the SCC DAG.
    """
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, _ = _good_bad_split(aut)
    dag = condensation(aut.reachable, aut.successors)
    if any(len({state in good for state in scc}) > 1 for scc in dag.components):
        return False  # a single SCC mixing good and bad alternates unboundedly

    # alternations[i]: the most bad→good moves along a path from component
    # i; successors have smaller indices, so index order is a DP order.
    alternations: list[int] = []
    for index, scc in enumerate(dag.components):
        is_good = scc[0] in good
        alternations.append(
            max(
                (
                    (1 if not is_good and dag.components[target][0] in good else 0)
                    + alternations[target]
                    for target in dag.edges[index]
                ),
                default=0,
            )
        )

    needed = alternations[dag.component_of[aut.initial]]
    return degree is None or needed <= degree
