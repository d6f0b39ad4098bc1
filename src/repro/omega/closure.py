"""Prefix languages, safety closure, and the safety–liveness decomposition.

On a deterministic automaton the *dead* states (empty residual language) are
closed under successors, which makes the paper's operators one-liners:

* ``Pref(Π)``            — finite words whose run ends in a live state;
* ``cl(Π) = A(Pref(Π))`` — same core, accept iff the run never goes dead;
* safety (``Π = cl(Π)``) — no reachable cycle of live states is rejected,
  a question about the automaton's own graph (no product automaton);
* liveness (= density)   — every reachable state is live;
* ``L(Π) = Π ∪ E(¬Pref(Π))`` — same core, acceptance extended so that any
  run falling into the dead region is accepted.

Together these give the Alpern–Schneider decomposition ``Π = Π_S ∩ Π_L``
exactly as proved in §2 of the paper.
"""

from __future__ import annotations

from repro.errors import ClassificationError
from repro.finitary.language import FinitaryLanguage
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton
from repro.omega.emptiness import accepts_cycle_within, nonempty_states, streett_good_components
from repro.omega.graph import can_reach
from repro.words.alphabet import Symbol


def live_states(aut: DetAutomaton) -> frozenset[int]:
    """States with a non-empty residual language."""
    return nonempty_states(aut)


def dead_states(aut: DetAutomaton) -> frozenset[int]:
    return frozenset(aut.states) - nonempty_states(aut)


def pref_language(aut: DetAutomaton) -> FinitaryLanguage:
    """``Pref(Π)`` as a finitary language (non-empty prefixes of Π-words)."""
    return FinitaryLanguage(aut.transition_dfa(live_states(aut)))


def safety_closure(aut: DetAutomaton) -> DetAutomaton:
    """``cl(Π) = A(Pref(Π))`` on the same transition core (a safety automaton)."""
    live = live_states(aut)
    return aut.with_acceptance(Acceptance.cobuchi(live))


def is_safety_closed(aut: DetAutomaton) -> bool:
    """``Π = cl(Π)`` — the paper's characterization of the safety class.

    ``Π ⊆ cl(Π)`` holds by construction, so only ``cl(Π) ⊆ Π`` is asked,
    on the automaton's own graph.  A run of ``cl(Π)`` never leaves the
    live states (the dead ones are successor-closed), so its infinity set
    is a cycle among the reachable live states; conversely every such cycle
    is the infinity set of such a run, because every state on the way to it
    can reach it and is therefore live.  The same-core complement accepts
    exactly the cycles the automaton rejects, so ``cl(Π) ⊆ Π`` iff it
    accepts no cycle there.  :func:`repro.omega.classify.classify` decides
    the same question from its SCC condensation; this live-set route is the
    independent definition.
    """
    region = aut.reachable & live_states(aut)
    return not accepts_cycle_within(aut.complement(), region)


def is_liveness(aut: DetAutomaton) -> bool:
    """``Pref(Π) = Σ⁺`` ⟺ Π is topologically dense (§2/§3)."""
    return aut.reachable <= live_states(aut)


def liveness_extension(aut: DetAutomaton) -> DetAutomaton:
    """``L(Π) = Π ∪ E(¬Pref(Π))`` on the same transition core.

    The dead region is successor-closed, so "some prefix outside Pref(Π)"
    means "the run eventually lives in the dead region"; widening every
    acceptance set by the dead states (Streett) or adding the pair
    ``(dead, ∅)`` (Rabin) realizes the union without new states.
    """
    dead = dead_states(aut)
    acc = aut.acceptance
    if acc.kind is Kind.STREETT:
        pairs = tuple(Pair(p.left | dead, p.right | dead) for p in acc.pairs)
        if not pairs:
            # The empty Streett condition is already universal.
            pairs = ()
        return aut.with_acceptance(Acceptance(Kind.STREETT, pairs))
    return aut.with_acceptance(Acceptance(Kind.RABIN, acc.pairs + (Pair(dead, frozenset()),)))


def safety_liveness_decomposition(aut: DetAutomaton) -> tuple[DetAutomaton, DetAutomaton]:
    """``(Π_S, Π_L)`` with ``Π = Π_S ∩ Π_L``, ``Π_S`` safety, ``Π_L`` liveness."""
    return safety_closure(aut), liveness_extension(aut)


def is_uniform_liveness(aut: DetAutomaton) -> bool:
    """Is there a single ``σ' ∈ Σ^ω`` with ``Σ⁺·σ' ⊆ Π``?

    Decided on the product of one automaton copy per state reachable in at
    least one step: the shared suffix must be accepted from all of them.
    Requires Streett-presentable acceptance (all of the paper's examples).
    """
    base_pairs = aut.acceptance.as_streett_pairs(aut.num_states)
    if base_pairs is None:
        raise ClassificationError(
            "uniform-liveness check needs Streett-presentable acceptance; "
            "complement the automaton or reduce its Rabin pairs first"
        )
    starts = sorted({aut.step(q, s) for q in aut.reachable for s in aut.alphabet})

    def successor(vector: tuple[int, ...], symbol: Symbol) -> tuple[int, ...]:
        return tuple(aut.step(q, symbol) for q in vector)

    from repro.finitary.dfa import explore

    rows, order = explore(aut.alphabet, tuple(starts), successor)

    def lift(states: frozenset[int], position: int) -> frozenset[int]:
        return frozenset(i for i, vec in enumerate(order) if vec[position] in states)

    pairs = [
        Pair(lift(p.left, position), lift(p.right, position))
        for position in range(len(starts))
        for p in base_pairs
    ]
    good = streett_good_components(range(len(rows)), lambda s: frozenset(rows[s]), pairs)
    if not good:
        return False
    reachable_states = can_reach(len(rows), frozenset().union(*good), lambda s: frozenset(rows[s]))
    return 0 in reachable_states
