"""Emptiness, inclusion and witness extraction for deterministic ω-automata.

The primitives:

* **Streett good components** — recursive SCC pruning (the classic Streett
  emptiness algorithm).  A sub-SCC on which every pair ``(R,P)`` has
  ``S∩R≠∅`` or ``S⊆P`` is an accepting cycle; conversely every accepting
  cycle survives the pruning, so the union of good components is exactly
  the set of states lying on accepting cycles.
* **Rabin accepting states** — per pair ``(E,F)``: the non-trivial SCCs of
  the graph minus ``F`` that touch ``E``.
* **Mixed-product emptiness** — ``L(A) ∩ L(B)`` (or ``∩ ¬L(B)``) is checked
  on the synchronous product by distributing Rabin disjunctions into cases;
  each case is a pure Streett check after deleting the must-avoid states
  (which may still be traversed on the way to the cycle, so reachability is
  evaluated in the full product).

Everything here is polynomial except nothing — no cycle enumeration is used.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence

from repro.engine.metrics import METRICS
from repro.obs.spans import stage
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton
from repro.omega.graph import can_reach, is_nontrivial_component, restricted_sccs
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
        for scc in restricted_sccs(candidate, successors):
            scc_set = frozenset(scc)
            internal = lambda s, inside=scc_set: [t for t in successors(s) if t in inside]
            if not is_nontrivial_component(scc, internal):
                continue
            violating = [
                p for p in pairs if not (scc_set & p.left) and not (scc_set <= p.right)
            ]
            if not violating:
                good.append(scc_set)
                continue
            restricted = scc_set
            for pair in violating:
                restricted &= pair.right
            if restricted:
                pending.append(restricted)
    return good


def rabin_accepting_cycle_states(
    states: Iterable[int], successors: Successors, pairs: Sequence[Pair]
) -> frozenset[int]:
    """States on a cycle meeting some ``E_i`` and avoiding the matching ``F_i``."""
    states_set = frozenset(states)
    result: set[int] = set()
    for pair in pairs:
        allowed = states_set - pair.right
        for scc in restricted_sccs(allowed, successors):
            scc_set = frozenset(scc)
            internal = lambda s, inside=scc_set: [t for t in successors(s) if t in inside]
            if scc_set & pair.left and is_nontrivial_component(scc, internal):
                result |= scc_set
    return frozenset(result)


class CycleBackend:
    """SCC / good-component service for one automaton's analysis pass.

    The classification checks decompose many sub-arenas of the same graph;
    the dense route (selected once per pass) reuses one Tarjan scratch over
    the flat transition table and computes good components through the mask
    kernels in :mod:`repro.fastpath.scc`.  Component *sets* are identical
    either way — only the enumeration order may differ, and every caller is
    order-independent (existence checks, maxima, DAG relabelings).
    """

    __slots__ = ("aut", "dense", "_scc", "_scratch", "_pair_masks")

    @classmethod
    def of(cls, aut: DetAutomaton) -> "CycleBackend":
        """The backend for ``aut`` on the currently selected route.

        Memoized on the automaton (keyed by the route decision, so a
        ``forced``-mode differential run never reuses the other route's
        backend): one analysis pass asks for the same graph many times.
        """
        from repro.fastpath.config import dense_route

        dense = dense_route(aut.num_states * len(aut.alphabet))
        cache = aut.__dict__.setdefault("_wagner_backends", {})
        backend = cache.get(dense)
        if backend is None:
            backend = cls(aut, dense)
            cache[dense] = backend
        return backend

    def __init__(self, aut: DetAutomaton, dense: bool) -> None:
        self.aut = aut
        self.dense = dense
        if self.dense:
            from repro.fastpath import scc as _scc

            n = aut.num_states
            self._scc = _scc
            self._scratch = _scc._TarjanScratch(n, aut._delta)  # noqa: SLF001
            self._pair_masks = [
                (_scc.pack_mask(p.left, n), _scc.pack_mask(p.right, n))
                for p in aut.acceptance.pairs
            ]

    def sccs(self, states) -> list[list[int]]:
        """Restricted SCC member lists of the subgraph induced by ``states``."""
        if self.dense:
            return self._scratch.sccs(sorted(states))
        return restricted_sccs(states, self.aut.successors)

    def cycles(self, states) -> list[frozenset[int]]:
        """The SCCs of the induced subgraph that carry a cycle (size ≥ 2,
        or a self-loop)."""
        if self.dense:
            return [
                frozenset(scc)
                for scc in self._scratch.sccs(sorted(states), nontrivial_only=True)
            ]
        successors = self.aut.successors
        return [
            frozenset(scc)
            for scc in restricted_sccs(states, successors)
            if len(scc) > 1 or scc[0] in successors(scc[0])
        ]

    def good_components(self, states) -> list[frozenset[int]]:
        """Maximal accepting sub-SCCs of the induced subgraph (Streett)."""
        if self.dense:
            n = self.aut.num_states
            scc = self._scc
            return [
                frozenset(scc.unpack_positions(mask))
                for mask in scc.streett_good_masks(
                    n,
                    scc.pack_mask(states, n),
                    self.aut._delta,  # noqa: SLF001
                    self._pair_masks,
                    scratch=self._scratch,
                )
            ]
        return streett_good_components(
            states, self.aut.successors, self.aut.acceptance.pairs
        )

    def accepts_cycle_within(self, states: frozenset[int]) -> bool:
        """Does some cycle inside ``states`` have an accepted infinity set?

        Streett: a good component exists.  Rabin: for some pair ``(E, F)``
        a cyclic SCC of ``states − F`` meets ``E`` (the SCC itself is then
        an accepted cycle, and any accepted cycle lies inside one).
        """
        acceptance = self.aut.acceptance
        if acceptance.kind is Kind.STREETT:
            return bool(self.good_components(states))
        return any(
            cycle & pair.left
            for pair in acceptance.pairs
            for cycle in self.cycles(states - pair.right)
        )


def accepting_cycle_states(aut: DetAutomaton) -> frozenset[int]:
    """All states lying on some accepting cycle (reachability not required)."""
    if aut.acceptance.kind is Kind.STREETT:
        good = streett_good_components(aut.states, aut.successors, aut.acceptance.pairs)
        return frozenset().union(*good) if good else frozenset()
    return rabin_accepting_cycle_states(aut.states, aut.successors, aut.acceptance.pairs)


def nonempty_states(aut: DetAutomaton) -> frozenset[int]:
    """States ``q`` whose residual language ``L_q`` is non-empty.

    Large automata route through the mask-based dense kernel
    (:func:`repro.fastpath.scc.nonempty_states_dense`), which computes the
    identical state set; see ``docs/PERFORMANCE.md``.
    """
    from repro.fastpath.config import dense_route

    with stage("emptiness.nonempty_states", states=aut.num_states) as step:
        if dense_route(aut.num_states * len(aut.alphabet)):
            from repro.fastpath.scc import nonempty_states_dense

            result = nonempty_states_dense(aut)
        else:
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
    if aut.acceptance.kind is Kind.STREETT:
        components = streett_good_components(aut.states, aut.successors, aut.acceptance.pairs)
    else:
        components = []
        for pair in aut.acceptance.pairs:
            allowed = frozenset(aut.states) - pair.right
            for scc in restricted_sccs(allowed, aut.successors):
                scc_set = frozenset(scc)
                internal = lambda s, inside=scc_set: [t for t in aut.successors(s) if t in inside]
                if scc_set & pair.left and is_nontrivial_component(scc, internal):
                    components.append(scc_set)
    for component in components:
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
        first = automata[0]
        from repro.fastpath.config import dense_route

        work = len(first.alphabet)
        for aut in automata:
            work *= aut.num_states
        # One route per ProductCheck: the same selection drives the explore,
        # the case representation (frozensets vs masks) and the witness.
        self._dense = dense_route(work)
        if self._dense:
            from repro.fastpath.product import explore_vector_dense
            from repro.fastpath.tables import flat_table_over

            rows, order = explore_vector_dense(
                [
                    flat_table_over(aut._delta, aut.alphabet, first.alphabet)  # noqa: SLF001
                    for aut in automata
                ],
                [aut.num_states for aut in automata],
                len(first.alphabet),
                [aut.initial for aut in automata],
            )
        else:
            from repro.finitary.dfa import explore

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
        num_product_states = len(order)

        # buckets[side][q] lists the product states whose side-th component
        # is q, so lifting a set costs its output size, not O(N) per set.
        buckets: list[list[list[int]]] = [
            [[] for _ in range(aut.num_states)] for aut in automata
        ]
        for i, vector in enumerate(order):
            for side, component in enumerate(vector):
                buckets[side][component].append(i)

        if self._dense:
            # Masks throughout — frozenset cases are never materialized.
            def lift(pairs: Iterable[Pair], side: int) -> tuple[tuple[int, int], ...]:
                side_buckets = buckets[side]
                buffer_size = num_product_states // 8 + 1

                def lift_mask(states: frozenset[int]) -> int:
                    buffer = bytearray(buffer_size)
                    for state in states:
                        for i in side_buckets[state]:
                            buffer[i >> 3] |= 1 << (i & 7)
                    return int.from_bytes(buffer, "little")

                return tuple((lift_mask(p.left), lift_mask(p.right)) for p in pairs)
        else:

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
        # case pairs the Streett obligations with the Rabin conjuncts, in
        # the route's set representation (Pair of frozensets / mask pairs).
        self.cases = [((), ())]
        for automaton_cases in per_automaton_cases:
            self.cases = [
                (streett + case_streett, rabin + case_rabin)
                for streett, rabin in self.cases
                for case_streett, case_rabin in automaton_cases
            ]

    def witness_component(self) -> frozenset[int] | None:
        with stage(
            "emptiness.product_check",
            states=self.automaton.num_states,
            route="dense" if self._dense else "reference",
        ):
            return self._witness_component()

    def _witness_component(self) -> frozenset[int] | None:
        if self._dense:
            return self._witness_component_dense()
        aut = self.automaton
        reachable = aut.reachable
        for streett, rabin_conjuncts in self.cases:
            # inf must avoid every Rabin F and meet every Rabin E: delete the
            # F states from the cycle arena, add (E, ∅) as extra Streett pairs.
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

    def _witness_component_dense(self) -> frozenset[int] | None:
        """Mask-based twin of :meth:`_witness_component`.

        The emptiness verdict is identical; when non-empty, the returned
        component may be a different (equally valid) accepting sub-SCC than
        the reference route would enumerate first.
        """
        from repro.fastpath.bitset import unpack_positions
        from repro.fastpath.scc import reachable_mask, streett_good_masks

        aut = self.automaton
        n = aut.num_states
        adjacency = aut._delta  # noqa: SLF001 — rows double as adjacency
        reachable = reachable_mask(n, aut.initial, adjacency)
        for streett, rabin_conjuncts in self.cases:
            removed = 0
            pairs = list(streett)
            for left, right in rabin_conjuncts:
                removed |= right
                pairs.append((left, 0))
            arena = reachable & ~removed
            good = streett_good_masks(n, arena, adjacency, pairs)
            if good:
                return frozenset(unpack_positions(good[0]))
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
