"""Emptiness, inclusion and witness extraction for deterministic ω-automata.

The primitives, all SCC passes over the automaton's own graph:

* **Streett good components** — recursive SCC pruning (the classic Streett
  emptiness algorithm).  A sub-SCC on which every pair ``(R,P)`` has
  ``S∩R≠∅`` or ``S⊆P`` is an accepting cycle; conversely every accepting
  cycle survives the pruning, so the union of good components is exactly
  the set of states lying on accepting cycles.
* **Accepting components** — the good components under Streett acceptance;
  under Rabin, per pair ``(E,F)`` the cyclic SCCs of the graph minus ``F``
  that touch ``E``.  Either way each one is an accepting cycle and every
  accepting cycle lies inside one, which serves the live set, the witness
  lasso and :func:`accepts_cycle_within`.
* **Mixed-product emptiness** — ``L(A) ∩ L(B)`` (or ``∩ ¬L(B)``) is checked
  on the synchronous product by distributing Rabin disjunctions into cases;
  each case is a pure Streett check after deleting the must-avoid states
  (which may still be traversed on the way to the cycle, so reachability is
  evaluated in the full product).

Everything here is polynomial — no cycle enumeration is used.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.engine.metrics import METRICS
from repro.obs.spans import stage
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton
from repro.omega.graph import can_reach, cyclic_sccs
from repro.words.alphabet import Symbol
from repro.words.finite import FiniteWord
from repro.words.lasso import LassoWord

Successors = Callable[[int], Iterable[int]]


def streett_good_components(
    states: Iterable[int], successors: Successors, pairs: Sequence[Pair]
) -> list[frozenset[int]]:
    """Maximal accepting sub-SCCs of the induced subgraph under Streett pairs."""
    METRICS.counter("emptiness.streett_calls").inc()
    good: list[frozenset[int]] = []
    pending: list[frozenset[int]] = [frozenset(states)]
    while pending:
        candidate = pending.pop()
        for scc in cyclic_sccs(candidate, successors):
            violating = [p for p in pairs if not (scc & p.left) and not (scc <= p.right)]
            if not violating:
                good.append(scc)
                continue
            restricted = scc
            for pair in violating:
                restricted &= pair.right
            if restricted:
                pending.append(restricted)
    return good


def accepting_components(
    states: Iterable[int], successors: Successors, acceptance: Acceptance
) -> Iterator[frozenset[int]]:
    """Accepting cycles inside ``states`` whose union is every state lying on
    an accepting cycle there: the Streett good components, or for some
    Rabin pair ``(E, F)`` a cyclic SCC of ``states − F`` that meets ``E``.
    Rabin components come one pair at a time, so an existence check stops
    at the first."""
    if acceptance.kind is Kind.STREETT:
        yield from streett_good_components(states, successors, acceptance.pairs)
        return
    states = frozenset(states)
    for pair in acceptance.pairs:
        for scc in cyclic_sccs(states - pair.right, successors):
            if scc & pair.left:
                yield scc


def accepts_cycle_within(aut: DetAutomaton, states: Iterable[int]) -> bool:
    """Does some cycle inside ``states`` have an accepted infinity set?"""
    return next(accepting_components(states, aut.successors, aut.acceptance), None) is not None


def accepting_cycle_states(aut: DetAutomaton) -> frozenset[int]:
    """All states lying on some accepting cycle (reachability not required)."""
    return frozenset().union(
        *accepting_components(aut.states, aut.successors, aut.acceptance)
    )


def nonempty_states(aut: DetAutomaton) -> frozenset[int]:
    """States ``q`` whose residual language ``L_q`` is non-empty."""
    with stage("emptiness.nonempty_states", states=aut.num_states) as step:
        result = can_reach(aut.num_states, accepting_cycle_states(aut), aut.successors)
        step.set_attribute("live", len(result))
    return result


def is_empty(aut: DetAutomaton) -> bool:
    return aut.initial not in nonempty_states(aut)


# --------------------------------------------------------------------------
# Witness extraction
# --------------------------------------------------------------------------


def _word_between(aut: DetAutomaton, source: int, target: int, allowed: frozenset[int] | None) -> FiniteWord | None:
    """A shortest symbol word steering ``source → target`` (staying inside
    ``allowed`` when given; the source itself is exempt).  Returns ``None``
    if unreachable, the empty word if ``source == target``."""
    if source == target:
        return FiniteWord.empty()
    parents: dict[int, tuple[int, Symbol]] = {}
    seen = {source}
    queue: deque[int] = deque([source])
    while queue:
        state = queue.popleft()
        for symbol in aut.alphabet:
            nxt = aut.step(state, symbol)
            if nxt in seen or (allowed is not None and nxt not in allowed):
                continue
            seen.add(nxt)
            parents[nxt] = (state, symbol)
            if nxt == target:
                symbols: list[Symbol] = []
                node = target
                while node != source:
                    node, symbol_back = parents[node]
                    symbols.append(symbol_back)
                return FiniteWord(reversed(symbols))
            queue.append(nxt)
    return None


def _covering_loop(aut: DetAutomaton, component: frozenset[int]) -> tuple[int, FiniteWord]:
    """An anchor state and a non-empty word looping anchor → anchor whose run
    visits every state of the strongly connected ``component``."""
    anchor = min(component)
    word = FiniteWord.empty()
    current = anchor
    for target in sorted(component):
        leg = _word_between(aut, current, target, component)
        assert leg is not None, "component not strongly connected"
        word += leg
        current = target
    back = _word_between(aut, current, anchor, component)
    assert back is not None
    word += back
    if len(word) == 0:
        # Singleton component: take any self-loop symbol.
        symbol = next(s for s in aut.alphabet if aut.step(anchor, s) == anchor)
        word = FiniteWord((symbol,))
    return anchor, word


def example_word(aut: DetAutomaton) -> LassoWord | None:
    """Some accepted lasso word, or ``None`` when the language is empty."""
    for component in accepting_components(aut.states, aut.successors, aut.acceptance):
        anchor, loop = _covering_loop(aut, component)
        stem = _word_between(aut, aut.initial, anchor, None)
        if stem is not None:
            return LassoWord(stem.symbols, loop.symbols)
    return None


# --------------------------------------------------------------------------
# Products with mixed acceptance
# --------------------------------------------------------------------------


def _acceptance_cases(acc: Acceptance) -> list[tuple[tuple[Pair, ...], tuple[Pair, ...]]]:
    """Present an acceptance condition as a disjunction of
    ``(streett-pairs, rabin-conjunct-pairs)`` cases."""
    if acc.kind is Kind.STREETT:
        return [(acc.pairs, ())]
    return [((), (pair,)) for pair in acc.pairs]


class ProductCheck:
    """The synchronous product of N automata, some complemented, with the
    conjunction of their (dualized) acceptance conditions distributed into
    pure Streett cases.  Decides emptiness of ``⋂ᵢ Lᵢ`` and extracts lassos."""

    def __init__(self, automata: Sequence[DetAutomaton], complemented: Sequence[bool]) -> None:
        if len(automata) != len(complemented):
            raise ValueError("one complement flag per automaton is required")
        from repro.finitary.dfa import explore

        first = automata[0]
        rows, order = explore(
            first.alphabet,
            tuple(aut.initial for aut in automata),
            lambda vector, symbol: tuple(
                aut.step(state, symbol) for aut, state in zip(automata, vector)
            ),
        )
        self.automaton = DetAutomaton.trusted(
            first.alphabet, rows, 0, Acceptance.streett([])
        )
        self.order = order

        # buckets[side][q] lists the product states whose side-th component
        # is q, so lifting a set costs its output size, not O(N) per set.
        buckets: list[list[list[int]]] = [
            [[] for _ in range(aut.num_states)] for aut in automata
        ]
        for i, vector in enumerate(order):
            for side, component in enumerate(vector):
                buckets[side][component].append(i)

        def lift(pairs: Iterable[Pair], side: int) -> tuple[Pair, ...]:
            side_buckets = buckets[side]

            def lift_set(states: frozenset[int]) -> frozenset[int]:
                lifted: list[int] = []
                for state in states:
                    lifted.extend(side_buckets[state])
                return frozenset(lifted)

            return tuple(Pair(lift_set(p.left), lift_set(p.right)) for p in pairs)

        per_automaton_cases = []
        for side, (aut, flip) in enumerate(zip(automata, complemented)):
            acc = aut.acceptance.dual(aut.num_states) if flip else aut.acceptance
            per_automaton_cases.append(
                [(lift(streett, side), lift(rabin, side)) for streett, rabin in _acceptance_cases(acc)]
            )

        # Cartesian distribution of the per-automaton disjunctions.  Each
        # case pairs the Streett obligations with the Rabin conjuncts.
        self.cases = [((), ())]
        for automaton_cases in per_automaton_cases:
            self.cases = [
                (streett + case_streett, rabin + case_rabin)
                for streett, rabin in self.cases
                for case_streett, case_rabin in automaton_cases
            ]

    def witness_component(self) -> frozenset[int] | None:
        with stage("emptiness.product_check", states=self.automaton.num_states):
            aut = self.automaton
            reachable = aut.reachable
            for streett, rabin_conjuncts in self.cases:
                # inf must avoid every Rabin F and meet every Rabin E: delete
                # the F states from the cycle arena, add (E, ∅) as extra
                # Streett pairs.
                removed: frozenset[int] = frozenset()
                extra: list[Pair] = []
                for pair in rabin_conjuncts:
                    removed |= pair.right
                    extra.append(Pair(pair.left, frozenset()))
                arena = reachable - removed
                for component in streett_good_components(
                    arena, aut.successors, tuple(streett) + tuple(extra)
                ):
                    return component
            return None

    def witness_lasso(self) -> LassoWord | None:
        component = self.witness_component()
        if component is None:
            return None
        anchor, loop = _covering_loop(self.automaton, component)
        stem = _word_between(self.automaton, self.automaton.initial, anchor, None)
        assert stem is not None, "witness component must be reachable"
        return LassoWord(stem.symbols, loop.symbols)


def product_is_empty(automata: Sequence[DetAutomaton], complemented: Sequence[bool]) -> bool:
    """Is ``⋂ᵢ (Lᵢ or ¬Lᵢ)`` empty?  Arbitrarily many automata, mixed kinds."""
    return ProductCheck(automata, complemented).witness_component() is None


def product_example(
    automata: Sequence[DetAutomaton], complemented: Sequence[bool]
) -> LassoWord | None:
    return ProductCheck(automata, complemented).witness_lasso()


def intersection_is_empty(a: DetAutomaton, b: DetAutomaton, *, complement_second: bool = False) -> bool:
    """Is ``L(a) ∩ L(b)`` (or ``L(a) ∩ ¬L(b)``) empty?"""
    return product_is_empty([a, b], [False, complement_second])


def intersection_example(
    a: DetAutomaton, b: DetAutomaton, *, complement_second: bool = False
) -> LassoWord | None:
    """A lasso in ``L(a) ∩ L(b)`` (or ``L(a) ∩ ¬L(b)``), or ``None``."""
    return product_example([a, b], [False, complement_second])


def difference_example(a: DetAutomaton, b: DetAutomaton) -> LassoWord | None:
    """A lasso accepted by ``a`` but not ``b`` — an inclusion counterexample."""
    return intersection_example(a, b, complement_second=True)


def equals_intersection(target: DetAutomaton, parts: Sequence[DetAutomaton]) -> bool:
    """Does ``L(target) = ⋂ L(part)`` hold?  Avoids building explicit
    intersection automata, so it works for any acceptance kinds."""
    for part in parts:
        if not target.is_subset_of(part):
            return False
    flags = [False] * len(parts) + [True]
    return product_is_empty(list(parts) + [target], flags)


def equals_union(target: DetAutomaton, parts: Sequence[DetAutomaton]) -> bool:
    """Does ``L(target) = ⋃ L(part)`` hold?  By De Morgan on complements."""
    for part in parts:
        if not part.is_subset_of(target):
            return False
    flags = [True] * len(parts) + [False]
    return product_is_empty(list(parts) + [target], flags)
