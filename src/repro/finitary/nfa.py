"""Nondeterministic finite automata with ε-moves, and the subset construction."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.errors import AutomatonError
from repro.finitary.dfa import DFA
from repro.words.alphabet import Alphabet, Symbol
from repro.words.finite import FiniteWord


class NFA:
    """An NFA ``(Σ, Q, I, δ, ε, F)`` over integer states ``0..n-1``."""

    __slots__ = ("alphabet", "num_states", "transitions", "epsilon", "initials", "accepting")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        transitions: dict[tuple[int, Symbol], set[int]],
        initials: Iterable[int],
        accepting: Iterable[int],
        epsilon: dict[int, set[int]] | None = None,
    ) -> None:
        self.alphabet = alphabet
        self.num_states = num_states
        self.transitions = {key: frozenset(targets) for key, targets in transitions.items()}
        self.epsilon = {state: frozenset(targets) for state, targets in (epsilon or {}).items()}
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        for (state, symbol), targets in self.transitions.items():
            if not 0 <= state < num_states or any(not 0 <= t < num_states for t in targets):
                raise AutomatonError("NFA transition out of range")
            if symbol not in alphabet:
                raise AutomatonError(f"NFA transition on foreign symbol {symbol!r}")

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            for target in self.epsilon.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return frozenset(seen)

    def successors(self, states: Iterable[int], symbol: Symbol) -> frozenset[int]:
        direct: set[int] = set()
        for state in states:
            direct |= self.transitions.get((state, symbol), frozenset())
        return self.epsilon_closure(direct)

    def accepts(self, word: FiniteWord | Iterable[Symbol]) -> bool:
        current = self.epsilon_closure(self.initials)
        for symbol in word:
            current = self.successors(current, symbol)
        return bool(current & self.accepting)

    def determinize(self) -> DFA:
        """The subset construction; the result is complete (∅ is the trap)."""
        initial = self.epsilon_closure(self.initials)
        return DFA.build(
            self.alphabet,
            initial,
            lambda subset, symbol: self.successors(subset, symbol),
            lambda subset: bool(subset & self.accepting),
        )

    def reversed(self) -> NFA:
        """The mirror-image NFA recognizing reversed words (ε-moves flipped too)."""
        transitions: dict[tuple[int, Symbol], set[int]] = {}
        for (state, symbol), targets in self.transitions.items():
            for target in targets:
                transitions.setdefault((target, symbol), set()).add(state)
        epsilon: dict[int, set[int]] = {}
        for state, targets in self.epsilon.items():
            for target in targets:
                epsilon.setdefault(target, set()).add(state)
        return NFA(self.alphabet, self.num_states, transitions, self.accepting, self.initials, epsilon)

    @classmethod
    def from_dfa(cls, dfa: DFA) -> NFA:
        transitions: dict[tuple[int, Symbol], set[int]] = {}
        for state, symbol, target in dfa.transitions():
            transitions.setdefault((state, symbol), set()).add(target)
        return cls(dfa.alphabet, dfa.num_states, transitions, [dfa.initial], dfa.accepting)

    def __repr__(self) -> str:
        return f"NFA(states={self.num_states}, initials={sorted(self.initials)}, accepting={sorted(self.accepting)})"
