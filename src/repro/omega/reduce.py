"""State-space reduction for deterministic ω-automata.

Deterministic ω-automata have no canonical minimal form in general, but the
*color-respecting quotient* — partition refinement where two states may
merge only if they agree on membership in every acceptance set and have
merged successors on every symbol — always preserves the language (the
quotient run carries the same acceptance-set visitation profile, so every
infinity set keeps its verdict).  Safra outputs shrink substantially.
"""

from __future__ import annotations

from repro.omega.acceptance import Acceptance, Pair
from repro.omega.automaton import DetAutomaton


def _quotient_blocks_reference(
    trimmed: DetAutomaton, states: list[int], colors: list[tuple[bool, ...]]
) -> dict[int, int]:
    """Partition refinement over ``step`` calls (the reference route)."""
    block: dict[int, int] = {}
    signatures: dict[tuple, int] = {}
    for state, color in zip(states, colors):
        block[state] = signatures.setdefault(color, len(signatures))

    while True:
        new_signatures: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for state in states:
            signature = (
                block[state],
                tuple(block[trimmed.step(state, symbol)] for symbol in trimmed.alphabet),
            )
            new_block[state] = new_signatures.setdefault(signature, len(new_signatures))
        if new_block == block:
            break
        block = new_block
    return block


def _color_of(aut: DetAutomaton, state: int) -> tuple[bool, ...]:
    profile: list[bool] = []
    for pair in aut.acceptance.pairs:
        profile.append(state in pair.left)
        profile.append(state in pair.right)
    return tuple(profile)


def quotient_reduce(aut: DetAutomaton) -> DetAutomaton:
    """The coarsest color-respecting bisimulation quotient (reachable part)."""
    from repro.fastpath.config import dense_route

    trimmed = aut.trim()
    states = list(trimmed.states)
    colors = [_color_of(trimmed, state) for state in states]

    if dense_route(trimmed.num_states * len(trimmed.alphabet)):
        from repro.fastpath.reduce import quotient_blocks_dense

        block = dict(
            enumerate(quotient_blocks_dense(trimmed._delta, colors))  # noqa: SLF001
        )
    else:
        block = _quotient_blocks_reference(trimmed, states, colors)

    representatives: dict[int, int] = {}
    for state in states:
        representatives.setdefault(block[state], state)

    def successor(class_id: int, symbol) -> int:
        return block[trimmed.step(representatives[class_id], symbol)]

    num_classes = len(representatives)
    rows = [
        [successor(class_id, symbol) for symbol in trimmed.alphabet]
        for class_id in range(num_classes)
    ]

    def lift(member_set: frozenset[int]) -> frozenset[int]:
        # Color-respecting blocks are uniform w.r.t. every acceptance set.
        return frozenset(
            class_id
            for class_id, representative in representatives.items()
            if representative in member_set
        )

    pairs = tuple(Pair(lift(p.left), lift(p.right)) for p in trimmed.acceptance.pairs)
    return DetAutomaton(
        trimmed.alphabet,
        rows,
        block[trimmed.initial],
        Acceptance(trimmed.acceptance.kind, pairs),
    )
