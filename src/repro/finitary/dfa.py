"""Complete deterministic finite automata over an explicit alphabet.

States are the integers ``0..n-1``; automata are always *complete* (every
state has a successor on every symbol), which keeps complementation and the
paper's prefix-based constructions trivial.  The central construction tool is
:meth:`DFA.build`, which explores an abstract deterministic transition system
breadth-first and freezes it into a concrete DFA — every product, operator
and closure construction in the library is expressed through it.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import STATE_LIMIT, AutomatonError, state_limit_exceeded
from repro.words.alphabet import Alphabet, Symbol
from repro.words.finite import FiniteWord


def explore(
    alphabet: Alphabet,
    initial: Hashable,
    successor: Callable[[Hashable, Symbol], Hashable],
    *,
    state_limit: int = STATE_LIMIT,
) -> tuple[list[list[int]], list[Hashable]]:
    """Breadth-first freeze of an abstract deterministic transition system.

    Returns the integer transition table and the list of abstract states in
    discovery order (state ``i`` of the table is ``order[i]``; the initial
    abstract state is state ``0``).  Shared by DFA and ω-automaton builders.
    """
    index: dict[Hashable, int] = {initial: 0}
    order: list[Hashable] = [initial]
    rows: list[list[int]] = []
    queue: deque[Hashable] = deque([initial])
    while queue:
        current = queue.popleft()
        row: list[int] = []
        for symbol in alphabet:
            nxt = successor(current, symbol)
            if nxt not in index:
                if len(index) >= state_limit:
                    raise state_limit_exceeded(state_limit)
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    return rows, order


class DFA:
    """A complete DFA ``(Σ, Q, q₀, δ, F)`` recognizing a language of finite words."""

    __slots__ = ("alphabet", "_delta", "initial", "accepting")

    def __init__(
        self,
        alphabet: Alphabet,
        transitions: Sequence[Sequence[int]],
        initial: int,
        accepting: Iterable[int],
    ) -> None:
        self.alphabet = alphabet
        self._delta: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)
        n = len(self._delta)
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range for {n} states")
        for state, row in enumerate(self._delta):
            if len(row) != len(alphabet):
                raise AutomatonError(f"state {state} has {len(row)} transitions, expected {len(alphabet)}")
            for target in row:
                if not 0 <= target < n:
                    raise AutomatonError(f"transition target {target} out of range")
        for state in self.accepting:
            if not 0 <= state < n:
                raise AutomatonError(f"accepting state {state} out of range")

    @classmethod
    def trusted(
        cls,
        alphabet: Alphabet,
        transitions: Sequence[Sequence[int]],
        initial: int,
        accepting: Iterable[int],
    ) -> DFA:
        """Construct without re-validating the table.

        For rows produced by in-tree exploration (``explore``, the fastpath
        kernels), which are complete and in-range by construction; skips the
        ``O(n·|Σ|)`` validation pass of ``__init__``.
        """
        dfa = cls.__new__(cls)
        dfa.alphabet = alphabet
        dfa._delta = tuple(map(tuple, transitions))
        dfa.initial = initial
        dfa.accepting = frozenset(accepting)
        return dfa

    # ------------------------------------------------------------------ core

    @property
    def num_states(self) -> int:
        return len(self._delta)

    @property
    def states(self) -> range:
        return range(len(self._delta))

    def step(self, state: int, symbol: Symbol) -> int:
        return self._delta[state][self.alphabet.index(symbol)]

    def step_by_index(self, state: int, symbol_index: int) -> int:
        return self._delta[state][symbol_index]

    def run(self, word: FiniteWord | Iterable[Symbol], start: int | None = None) -> int:
        """The state ``δ(start, word)`` reached after reading the whole word."""
        state = self.initial if start is None else start
        for symbol in word:
            state = self.step(state, symbol)
        return state

    def trace(self, word: FiniteWord | Iterable[Symbol]) -> list[int]:
        """The full state sequence ``q₀, δ(q₀,σ[0]), …`` (length ``|word|+1``)."""
        states = [self.initial]
        for symbol in word:
            states.append(self.step(states[-1], symbol))
        return states

    def accepts(self, word: FiniteWord | Iterable[Symbol]) -> bool:
        return self.run(word) in self.accepting

    def __contains__(self, word: FiniteWord) -> bool:
        return self.accepts(word)

    # --------------------------------------------------------------- builder

    @classmethod
    def build(
        cls,
        alphabet: Alphabet,
        initial: Hashable,
        successor: Callable[[Hashable, Symbol], Hashable],
        is_accepting: Callable[[Hashable], bool],
        *,
        state_limit: int = STATE_LIMIT,
    ) -> DFA:
        """Freeze an abstract deterministic transition system into a DFA.

        ``initial`` is any hashable seed state; ``successor`` gives the unique
        next abstract state per symbol; reachable abstract states are numbered
        breadth-first.  Raises if more than ``state_limit`` states appear.
        """
        rows, order = explore(alphabet, initial, successor, state_limit=state_limit)
        accepting = [i for i, s in enumerate(order) if is_accepting(s)]
        return cls(alphabet, rows, 0, accepting)

    # ------------------------------------------------------------ set algebra

    def complement(self) -> DFA:
        return DFA(self.alphabet, self._delta, self.initial, set(self.states) - self.accepting)

    def _product(self, other: DFA, combine: Callable[[bool, bool], bool]) -> DFA:
        if not self.alphabet.is_compatible_with(other.alphabet):
            raise AutomatonError("product of DFAs over different alphabets")

        def successor(pair: tuple[int, int], symbol: Symbol) -> tuple[int, int]:
            return self.step(pair[0], symbol), other.step(pair[1], symbol)

        def accepting(pair: tuple[int, int]) -> bool:
            return combine(pair[0] in self.accepting, pair[1] in other.accepting)

        return DFA.build(self.alphabet, (self.initial, other.initial), successor, accepting)

    def union(self, other: DFA) -> DFA:
        return self._product(other, lambda a, b: a or b)

    def intersection(self, other: DFA) -> DFA:
        return self._product(other, lambda a, b: a and b)

    def difference(self, other: DFA) -> DFA:
        return self._product(other, lambda a, b: a and not b)

    def symmetric_difference(self, other: DFA) -> DFA:
        return self._product(other, lambda a, b: a != b)

    # ------------------------------------------------------------- inspection

    def reachable_states(self, start: int | None = None) -> frozenset[int]:
        seen = {self.initial if start is None else start}
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            for target in self._delta[state]:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return frozenset(seen)

    def coreachable_states(self, targets: Iterable[int] | None = None) -> frozenset[int]:
        """States from which some state in ``targets`` (default: accepting) is reachable."""
        goal = set(self.accepting if targets is None else targets)
        predecessors: dict[int, set[int]] = {s: set() for s in self.states}
        for state in self.states:
            for target in self._delta[state]:
                predecessors[target].add(state)
        seen = set(goal)
        queue = deque(goal)
        while queue:
            state = queue.popleft()
            for pred in predecessors[state]:
                if pred not in seen:
                    seen.add(pred)
                    queue.append(pred)
        return frozenset(seen)

    def is_empty(self) -> bool:
        return not (self.reachable_states() & self.accepting)

    def accepts_everything(self) -> bool:
        """True when the language is all of ``Σ*`` (including the empty word)."""
        return self.reachable_states() <= self.accepting

    def shortest_accepted(self) -> FiniteWord | None:
        """A length-lexicographic-minimal accepted word, or ``None`` if empty."""
        if self.initial in self.accepting:
            return FiniteWord.empty()
        parents: dict[int, tuple[int, Symbol]] = {}
        queue: deque[int] = deque([self.initial])
        seen = {self.initial}
        while queue:
            state = queue.popleft()
            for symbol in self.alphabet:
                target = self.step(state, symbol)
                if target in seen:
                    continue
                seen.add(target)
                parents[target] = (state, symbol)
                if target in self.accepting:
                    symbols: list[Symbol] = []
                    node = target
                    while node != self.initial:
                        node_parent, sym = parents[node]
                        symbols.append(sym)
                        node = node_parent
                    return FiniteWord(reversed(symbols))
                queue.append(target)
        return None

    def accepted_words(self, max_length: int, *, include_empty: bool = False) -> Iterator[FiniteWord]:
        """Enumerate accepted words of length ``≤ max_length`` (brute-force oracle)."""
        if include_empty and self.initial in self.accepting:
            yield FiniteWord.empty()
        frontier: list[tuple[int, tuple[Symbol, ...]]] = [(self.initial, ())]
        for _ in range(max_length):
            next_frontier: list[tuple[int, tuple[Symbol, ...]]] = []
            for state, word in frontier:
                for symbol in self.alphabet:
                    target = self.step(state, symbol)
                    extended = word + (symbol,)
                    if target in self.accepting:
                        yield FiniteWord(extended)
                    next_frontier.append((target, extended))
            frontier = next_frontier

    # ------------------------------------------------------------ minimization

    def minimized(self) -> DFA:
        """The canonical minimal complete DFA (Moore partition refinement).

        Unreachable states are dropped; the result is unique up to state
        numbering, which is fixed by breadth-first order from the initial
        state, so equal languages yield structurally identical automata.
        """
        reachable = sorted(self.reachable_states())
        position = {s: i for i, s in enumerate(reachable)}
        block = [1 if s in self.accepting else 0 for s in reachable]
        while True:
            signatures = {}
            new_block = []
            for s in reachable:
                signature = (
                    block[position[s]],
                    tuple(block[position[self.step_by_index(s, a)]] for a in range(len(self.alphabet))),
                )
                if signature not in signatures:
                    signatures[signature] = len(signatures)
                new_block.append(signatures[signature])
            if new_block == block:
                break
            block = new_block

        representative: dict[int, int] = {}
        for s in reachable:
            representative.setdefault(block[position[s]], s)

        def successor(b: int, symbol: Symbol) -> int:
            return block[position[self.step(representative[b], symbol)]]

        def accepting(b: int) -> bool:
            return representative[b] in self.accepting

        return DFA.build(self.alphabet, block[position[self.initial]], successor, accepting)

    def equivalent_to(self, other: DFA) -> bool:
        return self.symmetric_difference(other).is_empty()

    # ------------------------------------------------------------------ misc

    def map_accepting(self, predicate: Callable[[int], bool]) -> DFA:
        """Same structure, new accepting set ``{q : predicate(q)}``."""
        return DFA(self.alphabet, self._delta, self.initial, [s for s in self.states if predicate(s)])

    def transitions(self) -> Iterator[tuple[int, Symbol, int]]:
        for state, row in enumerate(self._delta):
            for symbol, target in zip(self.alphabet, row):
                yield state, symbol, target

    def __repr__(self) -> str:
        return f"DFA(states={self.num_states}, accepting={sorted(self.accepting)}, alphabet={len(self.alphabet)})"

    @classmethod
    def universal(cls, alphabet: Alphabet) -> DFA:
        """The DFA accepting all of ``Σ*``."""
        return cls(alphabet, [[0] * len(alphabet)], 0, [0])

    @classmethod
    def empty_language(cls, alphabet: Alphabet) -> DFA:
        return cls(alphabet, [[0] * len(alphabet)], 0, [])

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: FiniteWord) -> DFA:
        """The singleton language ``{word}``."""
        symbols = tuple(word)
        n = len(symbols)
        trap = n + 1
        rows = []
        for i in range(n):
            rows.append([i + 1 if symbol == symbols[i] else trap for symbol in alphabet])
        rows.append([trap] * len(alphabet))  # state n: the accepting end
        rows.append([trap] * len(alphabet))  # trap
        return cls(alphabet, rows, 0, [n])


def random_dfa(
    alphabet: Alphabet,
    num_states: int,
    rng: random.Random | int | None = None,
    *,
    accepting_probability: float = 0.4,
) -> DFA:
    """A uniformly random complete DFA — fuel for the property-test corpus.

    ``rng`` may be a ``random.Random`` instance, an integer seed, or ``None``
    (seed 0), so every randomized benchmark and test is reproducible by
    construction.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    rows = [[rng.randrange(num_states) for _ in alphabet] for _ in range(num_states)]
    accepting = [s for s in range(num_states) if rng.random() < accepting_probability]
    return DFA(alphabet, rows, 0, accepting)


def cross_product_states(*sizes: int) -> Iterator[tuple[int, ...]]:
    """All tuples over the given ranges (helper for explicit product tables)."""
    return itertools.product(*(range(size) for size in sizes))
