"""Canonical minimal automata for obligation properties.

Deterministic ω-automata have no minimal forms in general, but *weak*
automata (every SCC uniformly accepting or rejecting — exactly the
obligation class, cf. Löding) do: states can be identified whenever their
residual ω-languages coincide, and acceptance is determined per SCC of the
quotient by testing any lasso that loops inside it.

``minimal_weak_automaton`` therefore produces a canonical representative of
an obligation property: same-language inputs yield structurally identical
outputs (up to breadth-first numbering), which the test suite exploits as a
canonicity oracle.
"""

from __future__ import annotations

from repro.errors import ClassificationError
from repro.omega.acceptance import Acceptance
from repro.omega.automaton import DetAutomaton
from repro.omega.emptiness import _covering_loop, _word_between
from repro.omega.graph import cyclic_sccs
from repro.words.lasso import LassoWord


def _rebased(aut: DetAutomaton, state: int) -> DetAutomaton:
    return DetAutomaton(
        aut.alphabet, [list(row) for row in aut._delta], state, aut.acceptance
    )


def residual_classes(aut: DetAutomaton) -> list[list[int]]:
    """Partition the reachable states by residual-language equality."""
    states = sorted(aut.reachable)
    classes: list[list[int]] = []
    representatives: list[DetAutomaton] = []
    for state in states:
        rebased = _rebased(aut, state)
        for index, representative in enumerate(representatives):
            if rebased.equivalent_to(representative):
                classes[index].append(state)
                break
        else:
            classes.append([state])
            representatives.append(rebased)
    return classes


def minimal_weak_automaton(aut: DetAutomaton) -> DetAutomaton:
    """The canonical minimal weak automaton of an obligation property.

    Raises :class:`ClassificationError` when the property is not an
    obligation property (no weak automaton exists then).
    """
    from repro.omega.classify import is_obligation

    if not is_obligation(aut):
        raise ClassificationError("only obligation properties have weak minimal forms")

    classes = residual_classes(aut)
    class_of = {state: index for index, members in enumerate(classes) for state in members}

    def successor(class_index: int, symbol) -> int:
        representative = classes[class_index][0]
        return class_of[aut.step(representative, symbol)]

    # Build the quotient structure first (breadth-first canonical numbering).
    from repro.finitary.dfa import explore

    rows, order = explore(aut.alphabet, class_of[aut.initial], successor)

    quotient = DetAutomaton(aut.alphabet, rows, 0, Acceptance.buchi([]))

    # Acceptance per SCC: loop a covering cycle and ask the original automaton.
    accepting_states: set[int] = set()
    for scc_set in cyclic_sccs(quotient.states, quotient.successors):
        anchor, loop = _covering_loop(quotient, scc_set)
        stem = _word_between(quotient, 0, anchor, None)
        assert stem is not None
        # Map the quotient word back through the original automaton.
        probe = LassoWord(stem.symbols, loop.symbols)
        if aut.accepts(probe):
            accepting_states |= scc_set
    return quotient.with_acceptance(Acceptance.buchi(sorted(accepting_states)))


def weak_state_complexity(aut: DetAutomaton) -> int:
    """The canonical state count of an obligation property."""
    return minimal_weak_automaton(aut).num_states
