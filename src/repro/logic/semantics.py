"""Semantics of LTL+Past over ultimately-periodic words and finite words.

Three entry points:

* :func:`holds` — ``(σ, 0) ⊨ φ`` for a lasso word σ;
* :func:`end_satisfies` — the paper's ``σ ⊨̃ p`` for a finite word and a
  past formula (``p`` holds at the last position of σ);
* :func:`esat_language` — ``esat(p)`` as a finitary language, built from
  the deterministic *past tester*: the truth values of all past-operator
  subformulas at position ``j`` are a function of their values at ``j−1``
  and the current state, so they form a DFA state (the [LPZ85]
  construction behind Proposition 5.3).

Evaluation over a lasso proceeds in two phases: a forward pass computes all
pure-past subformulas, pumping the loop until the (loop-offset, tester
state) pair repeats — after which the word *and* every past value are
jointly periodic — and a fixpoint pass evaluates future operators on the
resulting finite cyclic structure (least fixpoints for U/F, greatest for
W/R/G).

Future operators nested *inside* past operators are rejected
(:class:`~repro.errors.UnsupportedFragmentError`); the paper's normal forms
never require them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import UnsupportedFragmentError
from repro.finitary.dfa import DFA
from repro.finitary.language import FinitaryLanguage
from repro.logic.ast import (
    Always,
    And,
    Eventually,
    FalseConst,
    Formula,
    Historically,
    Next,
    Not,
    Once,
    Or,
    Previous,
    Prop,
    Release,
    Since,
    TrueConst,
    Unless,
    Until,
    WeakPrevious,
)
from repro.words.alphabet import Alphabet, Symbol
from repro.words.finite import FiniteWord
from repro.words.lasso import LassoWord

_PAST_OPERATORS = (Previous, WeakPrevious, Since, Once, Historically)
_FUTURE_OPERATORS = (Next, Until, Unless, Release, Eventually, Always)


def prop_holds(name: str, symbol: Symbol) -> bool:
    """Interpretation of a basic proposition on a state.

    Over the powerset alphabet ``2^AP`` a symbol is the set of propositions
    holding in the state; over an abstract alphabet (the paper's
    ``Σ = {a, b, …}``) the states themselves serve as propositions, true
    exactly on themselves.
    """
    if isinstance(symbol, (frozenset, set)):
        return name in symbol
    return symbol == name


class PastTester:
    """The deterministic transducer computing all pure-past subformula values.

    ``advance(state, symbol)`` returns the successor tester state; ``values``
    of a state give the truth of every pure-past subformula at the current
    position.  ``START`` is the state before any input.

    The subformulas are numbered once, children before parents, so a step
    evaluates a flat plan over value slots: no formula node is hashed while
    the tester runs.  :meth:`step` returns the values by slot (the formula
    itself, when it is pure past, has the last slot); :meth:`advance` keys
    them by node.
    """

    START = None

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        subformulas = formula.subformulas()
        past: dict[Formula, bool] = {}
        for node in subformulas:  # children before parents
            past[node] = not isinstance(node, _FUTURE_OPERATORS) and all(
                past[child] for child in node.children()
            )
            if isinstance(node, _PAST_OPERATORS) and not past[node]:
                raise UnsupportedFragmentError(
                    f"future operator nested inside past operator in {node!r}"
                )
        self.pure_past: list[Formula] = [n for n in subformulas if past[n]]
        self.memory_nodes: list[Formula] = [
            n for n in self.pure_past if isinstance(n, _PAST_OPERATORS)
        ]
        slot = {node: i for i, node in enumerate(self.pure_past)}
        memory_slot = {node: j for j, node in enumerate(self.memory_nodes)}
        self._plan = [
            (type(node), _operand_slots(node, slot), memory_slot.get(node))
            for node in self.pure_past
        ]
        # Memory for the next position: for Y/Z the operand's value now, for
        # S/O/H the operator's own value now.
        self._memory_sources = [
            slot[n.operand] if isinstance(n, (Previous, WeakPrevious)) else slot[n]
            for n in self.memory_nodes
        ]

    def step(
        self, state: tuple[bool, ...] | None, symbol: Symbol
    ) -> tuple[tuple[bool, ...], list[bool]]:
        """One step: previous memory (or ``START``) plus the current state
        symbol give the new memory and all pure-past values here, by slot."""
        at_start = state is None
        values: list[bool] = []
        for kind, operands, memory in self._plan:
            if kind is Prop:
                value = prop_holds(operands, symbol)
            elif kind is TrueConst:
                value = True
            elif kind is FalseConst:
                value = False
            elif kind is Not:
                value = not values[operands]
            elif kind is And:
                value = all(values[op] for op in operands)
            elif kind is Or:
                value = any(values[op] for op in operands)
            elif kind is Previous:
                value = (not at_start) and state[memory]
            elif kind is WeakPrevious:
                value = at_start or state[memory]
            elif kind is Since:
                held = False if at_start else state[memory]
                value = values[operands[1]] or (values[operands[0]] and held)
            elif kind is Once:
                value = values[operands] or (not at_start and state[memory])
            elif kind is Historically:
                value = values[operands] and (at_start or state[memory])
            else:  # a future node inside pure_past is impossible by selection
                raise AssertionError(f"unexpected node kind in past closure: {kind}")
            values.append(value)
        return tuple(values[source] for source in self._memory_sources), values

    def advance(
        self, state: tuple[bool, ...] | None, symbol: Symbol
    ) -> tuple[tuple[bool, ...], dict[Formula, bool]]:
        """:meth:`step` with the values keyed by their subformula."""
        memory, values = self.step(state, symbol)
        return memory, dict(zip(self.pure_past, values))


def _operand_slots(node: Formula, slot: dict[Formula, int]):
    """A plan entry's operands: the proposition's name, one slot, or a
    tuple of slots (``And``/``Or`` operands, ``Since``'s left and right)."""
    if isinstance(node, Prop):
        return node.name
    if isinstance(node, (And, Or)):
        return tuple(slot[op] for op in node.operands)
    if isinstance(node, Since):
        return slot[node.left], slot[node.right]
    if isinstance(node, (Not, Previous, WeakPrevious, Once, Historically)):
        return slot[node.operand]
    return None


def _stabilized_past_values(
    formula: Formula, lasso: LassoWord
) -> tuple[list[dict[Formula, bool]], int, int]:
    """Forward pass: pure-past values per position for ``j ∈ [0, T+C)`` such
    that position ``j ≥ T`` behaves like ``j + C``.  Returns (values, T, C)."""
    tester = PastTester(formula)
    state: tuple[bool, ...] | None = PastTester.START
    per_position: list[dict[Formula, bool]] = []
    seen: dict[tuple[int, tuple[bool, ...] | None], int] = {}
    position = 0
    stem_length = len(lasso.stem)
    loop_length = len(lasso.loop)
    while True:
        if position >= stem_length:
            key = ((position - stem_length) % loop_length, state)
            if key in seen:
                start = seen[key]
                return per_position[:position], start, position - start
            seen[key] = position
        state, values = tester.advance(state, lasso[position])
        per_position.append(values)
        position += 1


class EvaluationTable:
    """Truth values of every subformula at every position of the folded lasso.

    Positions ``0..horizon-1`` cover the transient part plus one cycle;
    ``fold(j)`` maps an arbitrary position into that window.  Used by
    :func:`holds` and by the witness explanations of
    :mod:`repro.logic.explain`.
    """

    def __init__(self, formula: Formula, lasso: LassoWord) -> None:
        self.formula = formula
        self.lasso = lasso
        values, transient, cycle = _stabilized_past_values(formula, lasso)
        self.transient = transient
        self.cycle = cycle
        self.horizon = transient + cycle
        self.arrays = _future_pass(formula, values, transient, cycle)

    def fold(self, position: int) -> int:
        if position < self.horizon:
            return position
        return self.transient + (position - self.transient) % self.cycle

    def value(self, subformula: Formula, position: int) -> bool:
        return self.arrays[subformula][self.fold(position)]

    def successor(self, position: int) -> int:
        folded = self.fold(position)
        return folded + 1 if folded + 1 < self.horizon else self.transient

    def positions_where(self, subformula: Formula, *, truth: bool = True) -> list[int]:
        return [j for j in range(self.horizon) if self.arrays[subformula][j] == truth]


def evaluation_table(formula: Formula, lasso: LassoWord) -> EvaluationTable:
    """Evaluate every subformula at every (folded) position."""
    return EvaluationTable(formula, lasso)


def holds(formula: Formula, lasso: LassoWord, position: int = 0) -> bool:
    """``(σ, position) ⊨ φ`` for an ultimately-periodic σ.

    Past operators look below ``position``, so the evaluation always runs
    from the word's origin; ``position`` only selects where to read off the
    answer (folded into the cycle when beyond the stabilization horizon).
    """
    table = EvaluationTable(formula, lasso)
    return table.value(formula, position)


def _future_pass(
    formula: Formula,
    values: list[dict[Formula, bool]],
    transient: int,
    cycle: int,
) -> dict[Formula, list[bool]]:
    horizon = transient + cycle

    def successor(j: int) -> int:
        return j + 1 if j + 1 < horizon else transient

    arrays: dict[Formula, list[bool]] = {}
    for node in formula.subformulas():
        if node.is_past_formula():
            arrays[node] = [values[j][node] for j in range(horizon)]
            continue
        if isinstance(node, Not):
            arrays[node] = [not v for v in arrays[node.operand]]
        elif isinstance(node, And):
            arrays[node] = [all(arrays[op][j] for op in node.operands) for j in range(horizon)]
        elif isinstance(node, Or):
            arrays[node] = [any(arrays[op][j] for op in node.operands) for j in range(horizon)]
        elif isinstance(node, Next):
            child = arrays[node.operand]
            arrays[node] = [child[successor(j)] for j in range(horizon)]
        elif isinstance(node, (Until, Eventually)):
            left = arrays[node.left] if isinstance(node, Until) else [True] * horizon
            right = arrays[node.right if isinstance(node, Until) else node.operand]
            arrays[node] = _fixpoint(
                horizon, successor, seed=False,
                step=lambda j, nxt: right[j] or (left[j] and nxt),
            )
        elif isinstance(node, (Unless, Always)):
            left = arrays[node.left] if isinstance(node, Unless) else arrays[node.operand]
            right = arrays[node.right] if isinstance(node, Unless) else [False] * horizon
            arrays[node] = _fixpoint(
                horizon, successor, seed=True,
                step=lambda j, nxt: right[j] or (left[j] and nxt),
            )
        elif isinstance(node, Release):
            left, right = arrays[node.left], arrays[node.right]
            arrays[node] = _fixpoint(
                horizon, successor, seed=True,
                step=lambda j, nxt: right[j] and (left[j] or nxt),
            )
        else:
            raise AssertionError(f"unhandled node {node!r}")
    return arrays


def _fixpoint(horizon, successor, *, seed, step) -> list[bool]:
    current = [seed] * horizon
    while True:
        updated = [step(j, current[successor(j)]) for j in range(horizon)]
        if updated == current:
            return current
        current = updated


def satisfies(lasso: LassoWord, formula: Formula) -> bool:
    """``σ ⊨ φ`` — the paper's satisfaction at position 0."""
    return holds(formula, lasso, 0)


def end_satisfies(word: FiniteWord | Sequence[Symbol], formula: Formula) -> bool:
    """``σ ⊨̃ p`` — the past formula p holds at σ's last position (σ non-empty)."""
    if not formula.is_past_formula():
        raise UnsupportedFragmentError(f"end-satisfaction needs a past formula, got {formula!r}")
    symbols: Iterable[Symbol] = word.symbols if isinstance(word, FiniteWord) else word
    symbols = tuple(symbols)
    if not symbols:
        raise ValueError("end-satisfaction is defined on non-empty words only")
    tester = PastTester(formula)
    state: tuple[bool, ...] | None = PastTester.START
    values: dict[Formula, bool] = {}
    for symbol in symbols:
        state, values = tester.advance(state, symbol)
    return values[formula]


def esat_language(formula: Formula, alphabet: Alphabet) -> FinitaryLanguage:
    """``esat(p)``: the finitary property defined by the past formula p,
    materialized as a (minimized) DFA via the deterministic past tester."""
    if not formula.is_past_formula():
        raise UnsupportedFragmentError(f"esat needs a past formula, got {formula!r}")
    tester = PastTester(formula)

    def successor(state, symbol):
        memory = None if state == "start" else state[0]
        new_memory, values = tester.step(memory, symbol)
        return (new_memory, values[-1])

    def accepting(state) -> bool:
        return state != "start" and state[1]

    return FinitaryLanguage(DFA.build(alphabet, "start", successor, accepting))
