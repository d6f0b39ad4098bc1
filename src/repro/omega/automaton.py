"""Complete deterministic ω-automata (the paper's predicate automata, §5).

An automaton is ``⟨Q, q₀, T, acceptance⟩`` over a finite alphabet; the
transition table is total and deterministic, so every ω-word has exactly one
run and the Streett acceptance used here coincides with both acceptance
disciplines discussed in the paper ([Str82] vs [MP87]).

Membership is decided on ultimately-periodic words by computing the run's
infinity set exactly (simulate the stem, then pump the loop until the
loop-anchor state repeats).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from functools import cached_property

from repro.errors import STATE_LIMIT, AutomatonError
from repro.finitary.dfa import DFA, explore
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.graph import reachable_from
from repro.words.alphabet import Alphabet, Symbol
from repro.words.lasso import LassoWord


class DetAutomaton:
    """A complete deterministic ω-automaton with Streett or Rabin acceptance."""

    __slots__ = ("alphabet", "_delta", "initial", "acceptance", "__dict__")

    def __init__(
        self,
        alphabet: Alphabet,
        transitions: Sequence[Sequence[int]],
        initial: int,
        acceptance: Acceptance,
    ) -> None:
        self.alphabet = alphabet
        self._delta: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in transitions)
        self.initial = initial
        self.acceptance = acceptance
        n = len(self._delta)
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range")
        for state, row in enumerate(self._delta):
            if len(row) != len(alphabet):
                raise AutomatonError(f"state {state} has {len(row)} transitions, expected {len(alphabet)}")
            if any(not 0 <= t < n for t in row):
                raise AutomatonError("transition target out of range")
        acceptance.validate(n)

    @classmethod
    def trusted(
        cls,
        alphabet: Alphabet,
        transitions: Sequence[Sequence[int]],
        initial: int,
        acceptance: Acceptance,
    ) -> DetAutomaton:
        """Construct without re-validating the table.

        For rows produced by in-tree exploration (``explore``, the dense
        Safra twin, label expansion), which are complete and in-range by
        construction; skips the ``O(n·|Σ|)`` validation pass of ``__init__``.
        """
        aut = cls.__new__(cls)
        aut.alphabet = alphabet
        aut._delta = tuple(map(tuple, transitions))
        aut.initial = initial
        aut.acceptance = acceptance
        return aut

    def __getstate__(self) -> tuple:
        # Only the defining fields pickle; the derived caches in __dict__
        # (complement, adjacency, reachable set) are rebuilt on demand.
        return (self.alphabet, self._delta, self.initial, self.acceptance)

    def __setstate__(self, state: tuple) -> None:
        self.alphabet, self._delta, self.initial, self.acceptance = state

    # ------------------------------------------------------------------ core

    @property
    def num_states(self) -> int:
        return len(self._delta)

    @property
    def states(self) -> range:
        return range(len(self._delta))

    def step(self, state: int, symbol: Symbol) -> int:
        return self._delta[state][self.alphabet.index(symbol)]

    def run_word(self, word: Iterable[Symbol], start: int | None = None) -> int:
        state = self.initial if start is None else start
        for symbol in word:
            state = self.step(state, symbol)
        return state

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Symbol-erased successor sets, used by all graph algorithms."""
        return tuple(frozenset(row) for row in self._delta)

    def successors(self, state: int) -> frozenset[int]:
        return self.adjacency[state]

    @cached_property
    def reachable(self) -> frozenset[int]:
        return reachable_from(self.initial, self.successors)

    # ------------------------------------------------------------ membership

    def infinity_set(self, lasso: LassoWord, start: int | None = None) -> frozenset[int]:
        """``inf(r)`` of the unique run over ``lasso``."""
        lasso.check_alphabet(self.alphabet)
        anchor = self.run_word(lasso.stem, start)
        anchor_index: dict[int, int] = {}
        segments: list[frozenset[int]] = []
        while anchor not in anchor_index:
            anchor_index[anchor] = len(segments)
            visited = []
            state = anchor
            for symbol in lasso.loop:
                state = self.step(state, symbol)
                visited.append(state)
            segments.append(frozenset(visited))
            anchor = state
        cycle_start = anchor_index[anchor]
        inf: frozenset[int] = frozenset()
        for segment in segments[cycle_start:]:
            inf |= segment
        return inf

    def accepts(self, lasso: LassoWord) -> bool:
        return self.acceptance.accepts_infinity_set(self.infinity_set(lasso))

    def __contains__(self, lasso: LassoWord) -> bool:
        return self.accepts(lasso)

    # -------------------------------------------------------------- builders

    @classmethod
    def build(
        cls,
        alphabet: Alphabet,
        initial: Hashable,
        successor: Callable[[Hashable, Symbol], Hashable],
        acceptance_of: Callable[[list[Hashable]], Acceptance],
        *,
        state_limit: int = STATE_LIMIT,
    ) -> DetAutomaton:
        """Freeze an abstract deterministic system; ``acceptance_of`` receives
        the discovery-ordered abstract states and returns the acceptance over
        their integer indices."""
        rows, order = explore(alphabet, initial, successor, state_limit=state_limit)
        return cls(alphabet, rows, 0, acceptance_of(order))

    @classmethod
    def build_buchi(
        cls,
        alphabet: Alphabet,
        initial: Hashable,
        successor: Callable[[Hashable, Symbol], Hashable],
        accepting: Callable[[Hashable], bool],
    ) -> DetAutomaton:
        def acceptance(order: list[Hashable]) -> Acceptance:
            return Acceptance.buchi([i for i, s in enumerate(order) if accepting(s)])

        return cls.build(alphabet, initial, successor, acceptance)

    @classmethod
    def build_cobuchi(
        cls,
        alphabet: Alphabet,
        initial: Hashable,
        successor: Callable[[Hashable, Symbol], Hashable],
        persistent: Callable[[Hashable], bool],
    ) -> DetAutomaton:
        def acceptance(order: list[Hashable]) -> Acceptance:
            return Acceptance.cobuchi([i for i, s in enumerate(order) if persistent(s)])

        return cls.build(alphabet, initial, successor, acceptance)

    @classmethod
    def universal(cls, alphabet: Alphabet) -> DetAutomaton:
        """Accepts every ω-word (``Σ^ω``, the trivial property **T**)."""
        return cls(alphabet, [[0] * len(alphabet)], 0, Acceptance.buchi([0]))

    @classmethod
    def empty_language(cls, alphabet: Alphabet) -> DetAutomaton:
        return cls(alphabet, [[0] * len(alphabet)], 0, Acceptance.buchi([]))

    # --------------------------------------------------------------- algebra

    def complement(self) -> DetAutomaton:
        """Same core, dual acceptance — determinism makes this exact.

        Memoized per instance: the classification pass dualizes the same
        automaton several times, and the already-validated table need not be
        re-checked or re-copied.
        """
        cached = self.__dict__.get("_complement")
        if cached is None:
            cached = DetAutomaton.trusted(
                self.alphabet,
                self._delta,
                self.initial,
                self.acceptance.dual(self.num_states),
            )
            self.__dict__["_complement"] = cached
        return cached

    def with_acceptance(self, acceptance: Acceptance) -> DetAutomaton:
        return DetAutomaton(self.alphabet, self._delta, self.initial, acceptance)

    def trim(self) -> DetAutomaton:
        """Restrict to reachable states (renumbered breadth-first)."""
        rows, order = explore(self.alphabet, self.initial, self.step)
        index = {s: i for i, s in enumerate(order)}

        def remap(states: frozenset[int]) -> frozenset[int]:
            return frozenset(index[s] for s in states if s in index)

        return DetAutomaton(self.alphabet, rows, 0, self.acceptance.lift(remap))

    def intersection(self, other: DetAutomaton) -> DetAutomaton:
        """Product with conjoined acceptance; both sides must be
        Streett-presentable on their own cores (always true except multi-pair
        Rabin)."""
        mine = self.acceptance.as_streett_pairs(self.num_states)
        theirs = other.acceptance.as_streett_pairs(other.num_states)
        if mine is None or theirs is None:
            raise AutomatonError(
                "intersection needs Streett-presentable acceptance on both sides; "
                "complement or compare via is_subset_of instead"
            )
        return _combine(self, other, mine, theirs, Kind.STREETT)

    def union(self, other: DetAutomaton) -> DetAutomaton:
        """Product with disjoined acceptance; both sides must be
        Rabin-presentable on their own cores (always true except multi-pair
        Streett)."""
        mine = self.acceptance.as_rabin_pairs(self.num_states)
        theirs = other.acceptance.as_rabin_pairs(other.num_states)
        if mine is None or theirs is None:
            raise AutomatonError(
                "union needs Rabin-presentable acceptance on both sides; "
                "use De Morgan via complements or compare via is_subset_of"
            )
        return _combine(self, other, mine, theirs, Kind.RABIN)

    # ---------------------------------------------------- language predicates

    def is_empty(self) -> bool:
        from repro.omega.emptiness import is_empty

        return is_empty(self)

    def is_universal(self) -> bool:
        return self.complement().is_empty()

    def is_subset_of(self, other: DetAutomaton) -> bool:
        from repro.omega.emptiness import intersection_is_empty

        return intersection_is_empty(self, other, complement_second=True)

    def is_disjoint_from(self, other: DetAutomaton) -> bool:
        from repro.omega.emptiness import intersection_is_empty

        return intersection_is_empty(self, other)

    def equivalent_to(self, other: DetAutomaton) -> bool:
        return self.is_subset_of(other) and other.is_subset_of(self)

    def example_word(self) -> LassoWord | None:
        from repro.omega.emptiness import example_word

        return example_word(self)

    # ----------------------------------------------------- structural helpers

    def transition_dfa(self, accepting: Iterable[int]) -> DFA:
        """The transition core viewed as a DFA with the given accepting set."""
        return DFA(self.alphabet, self._delta, self.initial, accepting)

    def transitions(self) -> Iterable[tuple[int, Symbol, int]]:
        for state, row in enumerate(self._delta):
            for symbol, target in zip(self.alphabet, row):
                yield state, symbol, target

    def __repr__(self) -> str:
        return (
            f"DetAutomaton(states={self.num_states}, alphabet={len(self.alphabet)}, "
            f"acceptance={self.acceptance!r})"
        )


def product_core(
    a: DetAutomaton, b: DetAutomaton
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Reachable synchronous product of two transition cores."""
    if not a.alphabet.is_compatible_with(b.alphabet):
        raise AutomatonError("product of automata over different alphabets")
    return explore(
        a.alphabet,
        (a.initial, b.initial),
        lambda pair, symbol: (a.step(pair[0], symbol), b.step(pair[1], symbol)),
    )


def _combine(
    a: DetAutomaton,
    b: DetAutomaton,
    a_pairs: tuple[Pair, ...],
    b_pairs: tuple[Pair, ...],
    kind: Kind,
) -> DetAutomaton:
    rows, order = product_core(a, b)

    def lift_a(states: frozenset[int]) -> frozenset[int]:
        return frozenset(i for i, (p, _q) in enumerate(order) if p in states)

    def lift_b(states: frozenset[int]) -> frozenset[int]:
        return frozenset(i for i, (_p, q) in enumerate(order) if q in states)

    pairs = [Pair(lift_a(p.left), lift_a(p.right)) for p in a_pairs]
    pairs += [Pair(lift_b(p.left), lift_b(p.right)) for p in b_pairs]
    return DetAutomaton(a.alphabet, rows, 0, Acceptance(kind, tuple(pairs)))
