"""Nondeterministic Büchi automata over concrete alphabets.

The bridge between the temporal-logic view and the deterministic predicate
automata of §5: formulas compile to NBAs (GPVW tableau), NBAs determinize to
Rabin automata (Safra).  Membership of ultimately-periodic words is decided
by lasso search in the position-annotated transition graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.errors import AutomatonError
from repro.omega.graph import cyclic_sccs
from repro.words.alphabet import Alphabet, Symbol
from repro.words.lasso import LassoWord


class NBA:
    """An NBA ``(Σ, Q, I, δ, F)`` over integer states."""

    __slots__ = ("alphabet", "num_states", "transitions", "initials", "accepting")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        transitions: dict[tuple[int, Symbol], frozenset[int]],
        initials: Iterable[int],
        accepting: Iterable[int],
    ) -> None:
        self.alphabet = alphabet
        self.num_states = num_states
        self.transitions = {key: frozenset(value) for key, value in transitions.items()}
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        for (state, symbol), targets in self.transitions.items():
            if not 0 <= state < num_states or any(not 0 <= t < num_states for t in targets):
                raise AutomatonError("NBA transition out of range")
            if symbol not in alphabet:
                raise AutomatonError(f"NBA transition on foreign symbol {symbol!r}")

    def successors(self, state: int, symbol: Symbol) -> frozenset[int]:
        return self.transitions.get((state, symbol), frozenset())

    def post(self, states: Iterable[int], symbol: Symbol) -> frozenset[int]:
        result: set[int] = set()
        for state in states:
            result |= self.successors(state, symbol)
        return frozenset(result)

    # ------------------------------------------------------------ membership

    def accepts(self, lasso: LassoWord) -> bool:
        """Lasso search: does some run visit an accepting state infinitely often?

        Nodes of the search graph are ``(NBA state, offset into the loop)``;
        a run exists iff from some state reachable on the stem there is a
        reachable non-trivial SCC containing an accepting-state node.
        """
        lasso.check_alphabet(self.alphabet)
        current = self.initials
        for symbol in lasso.stem:
            current = self.post(current, symbol)
        if not current:
            return False
        loop = lasso.loop
        period = len(loop)

        nodes: dict[tuple[int, int], int] = {}
        order: list[tuple[int, int]] = []

        def node_id(state: int, offset: int) -> int:
            key = (state, offset)
            if key not in nodes:
                nodes[key] = len(order)
                order.append(key)
            return nodes[key]

        edges: dict[int, set[int]] = {}
        queue: deque[tuple[int, int]] = deque()
        for state in current:
            node_id(state, 0)
            queue.append((state, 0))
        seen = set(queue)
        while queue:
            state, offset = queue.popleft()
            source = node_id(state, offset)
            edges.setdefault(source, set())
            for target in self.successors(state, loop[offset]):
                key = (target, (offset + 1) % period)
                edges[source].add(node_id(*key))
                if key not in seen:
                    seen.add(key)
                    queue.append(key)

        return any(
            order[n][0] in self.accepting
            for scc in cyclic_sccs(range(len(order)), lambda n: edges.get(n, ()))
            for n in scc
        )

    def is_empty(self) -> bool:
        """Classic NBA emptiness: a reachable accepting state on a cycle."""
        reachable: set[int] = set(self.initials)
        queue = deque(self.initials)
        edges: dict[int, set[int]] = {}
        while queue:
            state = queue.popleft()
            targets: set[int] = set()
            for symbol in self.alphabet:
                targets |= self.successors(state, symbol)
            edges[state] = targets
            for target in targets:
                if target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        return not any(
            scc & self.accepting for scc in cyclic_sccs(reachable, lambda s: edges.get(s, ()))
        )

    def __repr__(self) -> str:
        return (
            f"NBA(states={self.num_states}, initials={sorted(self.initials)}, "
            f"accepting={sorted(self.accepting)})"
        )
