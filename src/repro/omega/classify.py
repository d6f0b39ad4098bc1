"""Deciding the class of an ω-regular property (§5.1, Landweber/Wagner).

Every semantic answer is read off one object, built once per
:func:`classify` call: the SCC DAG of the reachable graph
(:func:`repro.omega.graph.condensation`).  Each cyclic SCC ``S`` gets
``(acc, rej)``, the lengths of the longest alternating chains of cycles
``C₁ ⊂ C₂ ⊂ … ⊂ Cₙ ⊆ S`` topped by an accepting resp. a rejecting cycle
(Wagner's chains).  They come from a recursive decomposition of cycles
on a Streett automaton: a cycle tops the longest chain of its own status;
below it, the accepting tops are its Streett good components and the
rejecting tops the cyclic SCCs of it minus some ``R`` not inside its
``P``, always strictly smaller.  A Rabin automaton is measured on its
same-core Streett complement, with the two numbers swapped.  The rest is
read off the DAG in index order:

* **liveness** — a state is live (non-empty residual language) iff its SCC
  reaches one with ``acc > 0``; co-live likewise with ``rej > 0``;
* **safety** — ``Π = cl(Π)``: no live SCC carries a rejecting cycle.  The
  runs of ``cl(Π)`` are exactly the runs that never leave the live states,
  so their infinity sets are the cycles of the live SCCs;
* **guarantee** — the complement is safety: no co-live SCC carries an
  accepting cycle;
* **recurrence** — Wagner's ``J ∈ F ∧ J ⊆ A ⇒ A ∈ F`` on accessible cycles:
  no accepting cycle inside a rejecting one, i.e. every ``rej ≤ 1``;
* **persistence** — dually, no rejecting cycle inside an accepting one:
  every ``acc ≤ 1``;
* **obligation** — recurrence ∧ persistence (the paper: obligation is
  exactly the intersection of the two classes);
* **reactivity** — universal for deterministic automata; the interesting
  quantities are the Streett and Rabin *indices*, which follow from the
  largest ``acc`` and ``rej`` by a parity argument;
* **Obl_k** — the obligation degree, the most rejecting→accepting
  alternations along a path of the DAG.

:func:`is_safety` … :func:`obligation_degree` each read one field of
:func:`classify`.  :func:`repro.omega.closure.is_safety_closed` keeps the
live-set route as an independent definition of safety.  The module also
provides the paper's *syntactic* automaton-shape recognizers (safety/
guarantee/obligation-by-rank/recurrence/persistence automata of §5), which
are sound certificates: a κ-shaped automaton always denotes a κ-property,
but a κ-property may be presented by an automaton of the wrong shape — that
gap is exactly what Prop 5.1's normalizations (``repro.omega.transform``)
close.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.classes import TemporalClass, Verdict
from repro.obs.spans import stage
from repro.omega.acceptance import Kind
from repro.omega.automaton import DetAutomaton
from repro.omega.emptiness import streett_good_components
from repro.omega.graph import (
    Condensation,
    condensation,
    cyclic_sccs,
    is_nontrivial_component,
    reachable_from,
)

# ---------------------------------------------------------------------------
# Semantic classification: one Wagner analysis per automaton
# ---------------------------------------------------------------------------


def _chain_tops(aut: DetAutomaton, components: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """``(acc, rej)`` per component: the longest alternating cycle chains
    inside it topped by an accepting resp. a rejecting cycle, ``(0, 0)`` on
    a component with no cycle."""
    streett = aut if aut.acceptance.kind is Kind.STREETT else aut.complement()
    successors, pairs = aut.successors, streett.acceptance.pairs
    accepts = streett.acceptance.accepts_infinity_set
    memo: dict[tuple[frozenset[int], bool], int] = {}

    def top(arena: frozenset[int], accepting: bool) -> int:
        """The longest chain inside the cycle ``arena`` topped by an
        accepting resp. a rejecting cycle.  The arena itself tops the
        longest one when its status matches; otherwise the tops are its
        Streett good components resp. the cyclic SCCs of the arena minus
        some ``R`` that are not inside its ``P``."""
        key = (arena, accepting)
        if key not in memo:
            if accepts(arena) == accepting:
                below = [top(arena, not accepting)]
            elif accepting:
                below = [
                    top(cycle, False)
                    for cycle in streett_good_components(arena, successors, pairs)
                ]
            else:
                below = [
                    top(cycle, True)
                    for pair in pairs
                    for cycle in cyclic_sccs(arena - pair.left, successors)
                    if not cycle <= pair.right
                ]
            memo[key] = 1 + max(below) if below else 0
        return memo[key]

    tops = []
    for component in components:
        if not is_nontrivial_component(component, successors):
            tops.append((0, 0))
            continue
        arena = frozenset(component)
        tops.append((top(arena, True), top(arena, False)))
    if streett is aut:
        return tops
    # Complementing swaps accepting and rejecting cycles.
    return [(rej, acc) for acc, rej in tops]


def _largest_with_parity(bound: int, odd: bool) -> int:
    if bound <= 0:
        return 0
    return bound if (bound % 2 == 1) == odd else bound - 1


def _obligation_degree(dag: Condensation, tops: list[tuple[int, int]], initial: int) -> int:
    """The most rejecting→accepting alternations along a DAG path from the
    initial state's component.  For an obligation property every cyclic
    SCC is uniformly accepting (``acc > 0``) or rejecting (``rej > 0``):
    Wagner's chains collapse to DAG paths."""
    # best[i][seen]: the most completed (rejecting, later accepting) pairs
    # along a path from component i, ``seen`` telling whether a rejecting
    # component was passed with no accepting one since.  Successors have
    # smaller indices, so index order is a valid DP order.
    best: list[tuple[int, int]] = []
    for index, (acc, rej) in enumerate(tops):
        row = []
        for seen_rejecting in (False, True):
            completes = acc > 0 and seen_rejecting
            seen_next = not completes and (seen_rejecting or rej > 0)
            follow = max((best[target][seen_next] for target in dag.edges[index]), default=0)
            row.append(int(completes) + follow)
        best.append(tuple(row))
    # A property with accepting behavior but no alternation still needs one
    # conjunct (A(Φ)∪E(∅) or similar) unless it is trivial.
    return max(best[dag.component_of[initial]][False], 1)


def classify(aut: DetAutomaton) -> Verdict:
    """Full membership profile of the property across the hierarchy, with
    its Streett and Rabin indices and its obligation degree, from one
    condensation of the reachable graph."""
    with stage("omega.classify.wagner", states=aut.num_states):
        dag = condensation(aut.reachable, aut.successors)
        tops = _chain_tops(aut, dag.components)
        live: list[bool] = []
        colive: list[bool] = []
        for index, (acc, rej) in enumerate(tops):
            targets = dag.edges[index]
            live.append(acc > 0 or any(live[target] for target in targets))
            colive.append(rej > 0 or any(colive[target] for target in targets))
        top_acc = max(acc for acc, _rej in tops)
        top_rej = max(rej for _acc, rej in tops)
        recurrence = top_rej <= 1
        persistence = top_acc <= 1
        obligation = recurrence and persistence
        membership = {
            TemporalClass.SAFETY: not any(
                rej > 0 for (_acc, rej), is_live in zip(tops, live) if is_live
            ),
            TemporalClass.GUARANTEE: not any(
                acc > 0 for (acc, _rej), is_colive in zip(tops, colive) if is_colive
            ),
            TemporalClass.OBLIGATION: obligation,
            TemporalClass.RECURRENCE: recurrence,
            TemporalClass.PERSISTENCE: persistence,
            TemporalClass.REACTIVITY: True,
        }
        # A top-τ chain of length ℓ yields top-τ chains of every length ≤ ℓ
        # (drop bottoms), so the longest chains *starting* accepting resp.
        # rejecting follow from the two top-oriented maxima by parity.
        start_acc = max(
            _largest_with_parity(top_acc, odd=True), _largest_with_parity(top_rej, odd=False)
        )
        start_rej = max(
            _largest_with_parity(top_acc, odd=False), _largest_with_parity(top_rej, odd=True)
        )
        return Verdict(
            membership=membership,
            is_liveness=all(live),
            streett_index=(start_rej + 1) // 2,
            rabin_index=(start_acc + 1) // 2,
            obligation_degree=_obligation_degree(dag, tops, aut.initial) if obligation else None,
        )


def is_safety(aut: DetAutomaton) -> bool:
    """Is the property topologically closed (= a safety property)?"""
    return classify(aut).membership[TemporalClass.SAFETY]


def is_guarantee(aut: DetAutomaton) -> bool:
    """Is the property open — equivalently, is its complement safety?"""
    return classify(aut).membership[TemporalClass.GUARANTEE]


def is_recurrence(aut: DetAutomaton) -> bool:
    """Is the property a ``G_δ`` set (recurrence)?"""
    return classify(aut).membership[TemporalClass.RECURRENCE]


def is_persistence(aut: DetAutomaton) -> bool:
    """Is the property an ``F_σ`` set (persistence)?"""
    return classify(aut).membership[TemporalClass.PERSISTENCE]


def is_obligation(aut: DetAutomaton) -> bool:
    """Obligation = recurrence ∩ persistence (§2, "the obligation class is
    precisely the intersection of the recurrence and persistence classes")."""
    return classify(aut).membership[TemporalClass.OBLIGATION]


def streett_index(aut: DetAutomaton) -> int:
    """Wagner's Streett index: the minimal number of Streett pairs any
    deterministic automaton for the property needs — ``⌈L/2⌉`` for the
    longest alternating chain of accessible cycles starting with a
    *rejecting* one (e.g. ``◇□p ∧ □◇q`` has index 2 while its complement
    needs a single Rabin pair).  Index 0 means the property is universal
    (no rejecting cycle at all)."""
    return classify(aut).streett_index


def rabin_index(aut: DetAutomaton) -> int:
    """Wagner's Rabin index: chains starting with an *accepting* cycle;
    index 0 means the empty property."""
    return classify(aut).rabin_index


def obligation_degree(aut: DetAutomaton) -> int | None:
    """The minimal ``k`` with the property in ``Obl_k``, or ``None`` when the
    property is not an obligation property at all."""
    return classify(aut).obligation_degree


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
