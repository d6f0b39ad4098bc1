"""LTL+Past → nondeterministic Büchi automata (the GPVW tableau).

Pipeline:

1. maximal pure-past subformulas become fresh *past atoms*, evaluated by the
   deterministic past tester (Prop 5.3's construction);
2. the remaining pure-future skeleton is normalized (NNF, ``F/G/W`` reduced
   to ``U/R``) and expanded by the classic Gerth–Peled–Vardi–Wolper node
   construction into a generalized Büchi automaton (one acceptance set per
   Until subformula);
3. the counter degeneralization and the synchronous composition with the
   past tester happen in one pass, yielding a plain :class:`NBA` over the
   concrete alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import UnsupportedFragmentError
from repro.logic.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    FalseConst,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Release,
    TrueConst,
    Unless,
    Until,
)
from repro.logic.rewrite import nnf, simplify
from repro.logic.semantics import PastTester, prop_holds
from repro.omega.buchi import NBA
from repro.words.alphabet import Alphabet, Symbol

_PAST_ATOM_PREFIX = "past_atom_"


def _extract_past_atoms(formula: Formula) -> tuple[Formula, dict[str, Formula]]:
    """Replace maximal pure-past, non-state subformulas by fresh atoms."""
    if formula.has_future_inside_past():
        raise UnsupportedFragmentError(
            "future operators nested inside past operators are not translatable"
        )
    table: dict[Formula, str] = {}

    def rewrite(node: Formula) -> Formula:
        if node.is_past_formula() and not node.is_state_formula():
            if node not in table:
                table[node] = f"{_PAST_ATOM_PREFIX}{len(table)}"
            return Prop(table[node])
        if isinstance(node, (Prop, TrueConst, FalseConst)):
            return node
        if isinstance(node, (And, Or)):
            return type(node)(tuple(rewrite(op) for op in node.operands))
        if isinstance(node, Not):
            return Not(rewrite(node.operand))
        if isinstance(node, (Next, Eventually, Always)):
            return type(node)(rewrite(node.operand))
        if isinstance(node, (Until, Unless, Release)):
            return type(node)(rewrite(node.left), rewrite(node.right))
        raise AssertionError(f"unexpected node {node!r}")

    skeleton = rewrite(formula)
    return skeleton, {name: past for past, name in table.items()}


def _to_core_operators(formula: Formula) -> Formula:
    """Rewrite F, G, W into U and R so the tableau handles four cases only."""
    if isinstance(formula, (Prop, TrueConst, FalseConst)):
        return formula
    if isinstance(formula, Not):
        return Not(_to_core_operators(formula.operand))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(_to_core_operators(op) for op in formula.operands))
    if isinstance(formula, Next):
        return Next(_to_core_operators(formula.operand))
    if isinstance(formula, Eventually):
        return Until(TRUE, _to_core_operators(formula.operand))
    if isinstance(formula, Always):
        return Release(FALSE, _to_core_operators(formula.operand))
    if isinstance(formula, Unless):
        left = _to_core_operators(formula.left)
        right = _to_core_operators(formula.right)
        return Release(right, Or((left, right)))
    if isinstance(formula, (Until, Release)):
        return type(formula)(
            _to_core_operators(formula.left), _to_core_operators(formula.right)
        )
    raise AssertionError(f"unexpected node {formula!r}")


@dataclass
class _Node:
    name: int
    incoming: set[int] = field(default_factory=set)
    new: set[Formula] = field(default_factory=set)
    old: set[Formula] = field(default_factory=set)
    nxt: set[Formula] = field(default_factory=set)

_INIT = -1


class _Tableau:
    """The GPVW node-splitting construction."""

    def __init__(self, formula: Formula) -> None:
        self.counter = itertools.count()
        self.nodes: list[_Node] = []
        # (old, nxt) → the node that owns the pair; a completed node's old
        # and nxt sets never change afterwards, so the index stays valid.
        self._by_sets: dict[tuple[frozenset, frozenset], _Node] = {}
        seed = _Node(name=next(self.counter), incoming={_INIT}, new={formula})
        self.expand(seed)

    def fresh(self, incoming: set[int], new: set[Formula], old: set[Formula], nxt: set[Formula]) -> _Node:
        return _Node(next(self.counter), set(incoming), set(new), set(old), set(nxt))

    def expand(self, node: _Node) -> None:
        if not node.new:
            key = (frozenset(node.old), frozenset(node.nxt))
            existing = self._by_sets.get(key)
            if existing is not None:
                existing.incoming |= node.incoming
                return
            self._by_sets[key] = node
            self.nodes.append(node)
            successor = self.fresh({node.name}, node.nxt, set(), set())
            self.expand(successor)
            return
        eta = node.new.pop()
        if eta in node.old:
            self.expand(node)
            return
        if isinstance(eta, FalseConst):
            return  # contradiction: drop the node
        if isinstance(eta, (Prop, TrueConst)) or (
            isinstance(eta, Not) and isinstance(eta.operand, Prop)
        ):
            negation = eta.operand if isinstance(eta, Not) else Not(eta)
            if negation in node.old:
                return  # contradiction
            node.old.add(eta)
            self.expand(node)
            return
        if isinstance(eta, And):
            node.old.add(eta)
            node.new |= {op for op in eta.operands if op not in node.old}
            self.expand(node)
            return
        if isinstance(eta, Or):
            node.old.add(eta)
            for operand in eta.operands:
                branch = self.fresh(node.incoming, node.new | {operand}, node.old, node.nxt)
                self.expand(branch)
            return
        if isinstance(eta, Next):
            node.old.add(eta)
            node.nxt.add(eta.operand)
            self.expand(node)
            return
        if isinstance(eta, Until):
            node.old.add(eta)
            left_branch = self.fresh(
                node.incoming, node.new | {eta.left}, node.old, node.nxt | {eta}
            )
            right_branch = self.fresh(node.incoming, node.new | {eta.right}, node.old, node.nxt)
            self.expand(left_branch)
            self.expand(right_branch)
            return
        if isinstance(eta, Release):
            node.old.add(eta)
            hold_branch = self.fresh(
                node.incoming, node.new | {eta.right}, node.old, node.nxt | {eta}
            )
            fire_branch = self.fresh(
                node.incoming, node.new | {eta.left, eta.right}, node.old, node.nxt
            )
            self.expand(hold_branch)
            self.expand(fire_branch)
            return
        raise AssertionError(f"tableau met unexpected node {eta!r}")


def _literal_satisfied(literal: Formula, symbol: Symbol, past_values: dict[str, bool]) -> bool:
    if isinstance(literal, TrueConst):
        return True
    if isinstance(literal, Prop):
        if literal.name in past_values:
            return past_values[literal.name]
        return prop_holds(literal.name, symbol)
    if isinstance(literal, Not) and isinstance(literal.operand, Prop):
        return not _literal_satisfied(literal.operand, symbol, past_values)
    raise AssertionError(f"non-literal in old-set: {literal!r}")


def formula_to_nba(formula: Formula, alphabet: Alphabet) -> NBA:
    """Compile an LTL+Past formula to an NBA over ``alphabet``.

    The result's language is ``Sat(φ)`` restricted to the alphabet; past
    subformulas are handled by composing with the deterministic past tester.
    """
    from repro.fastpath.config import kernel_selected
    from repro.obs.spans import stage

    with stage("gpvw.translate") as step:
        skeleton, past_atoms = _extract_past_atoms(simplify(formula))
        core = _to_core_operators(nnf(skeleton))
        tableau = _Tableau(core)
        nodes = tableau.nodes
        node_index = {node.name: position for position, node in enumerate(nodes)}

        # Generalized acceptance: one set per Until subformula of the core.
        untils = [n for n in core.subformulas() if isinstance(n, Until)]
        acceptance_sets: list[frozenset[int]] = []
        for until in untils:
            acceptance_sets.append(
                frozenset(
                    position
                    for position, node in enumerate(nodes)
                    if until not in node.old or until.right in node.old
                )
            )
        if not acceptance_sets:
            acceptance_sets = [frozenset(range(len(nodes)))]

        # The past tester shared by all past atoms: track the conjunction of
        # individual testers via a combined formula.
        monitor = And(tuple(past_atoms.values())) if past_atoms else TRUE
        tester = PastTester(monitor)

        literals_of = [
            [lit for lit in node.old if isinstance(lit, (Prop, TrueConst))
             or (isinstance(lit, Not) and isinstance(lit.operand, Prop))]
            for node in nodes
        ]
        entry_points = [
            position for position, node in enumerate(nodes) if _INIT in node.incoming
        ]
        successors_of: dict[int, list[int]] = {position: [] for position in range(len(nodes))}
        for position, node in enumerate(nodes):
            for source in node.incoming:
                if source != _INIT:
                    successors_of[node_index[source]].append(position)

        # Concrete NBA states: (tableau node, tester memory, counter) plus a
        # pseudo-initial state.  Enumerated lazily breadth-first; the dense twin
        # (repro.fastpath.gpvw) produces a bit-identical enumeration stepping
        # once per symbol-valuation class instead of once per symbol.
        if kernel_selected("gpvw", len(nodes) * len(alphabet)):
            from repro.fastpath.gpvw import enumerate_dense

            order, transitions, accepting = enumerate_dense(
                alphabet, entry_points, successors_of, literals_of,
                acceptance_sets, tester, past_atoms,
            )
        else:
            order, transitions, accepting = _enumerate_reference(
                alphabet, entry_points, successors_of, literals_of,
                acceptance_sets, tester, past_atoms,
            )
        step.set_attribute("tableau_nodes", len(nodes))
        step.set_attribute("nba_states", len(order))
        step.set_attribute("past_atoms", len(past_atoms))
        return NBA(alphabet, len(order), transitions, [0], accepting)


def _enumerate_reference(
    alphabet: Alphabet,
    entry_points: list[int],
    successors_of: dict[int, list[int]],
    literals_of: list[list[Formula]],
    acceptance_sets: list[frozenset[int]],
    tester: PastTester,
    past_atoms: dict[str, Formula],
) -> tuple[list[object], dict[tuple[int, Symbol], frozenset[int]], list[int]]:
    """Breadth-first enumeration of the concrete NBA states.

    Returns the state order (``"nba-init"`` first), the transition relation,
    and the accepting state indices.
    """
    from collections import deque

    k = len(acceptance_sets)
    state_index: dict[object, int] = {}
    order: list[object] = []
    transitions: dict[tuple[int, Symbol], set[int]] = {}

    def intern(state: object) -> int:
        if state not in state_index:
            state_index[state] = len(order)
            order.append(state)
        return state_index[state]

    intern("nba-init")
    queue: deque[object] = deque(["nba-init"])
    explored = {"nba-init"}
    while queue:
        state = queue.popleft()
        source = state_index[state]
        if state == "nba-init":
            memory, counter = PastTester.START, 0
            candidates = entry_points
            new_counter = 0
        else:
            node_position, memory, counter = state
            candidates = successors_of[node_position]
            # Source-based round-robin (Baier–Katoen): leaving a state whose
            # tableau node lies in the counter's acceptance set advances it.
            new_counter = (
                (counter + 1) % k if node_position in acceptance_sets[counter] else counter
            )
        for symbol in alphabet:
            new_memory, values = tester.advance(memory, symbol)
            past_values = {name: values[past] for name, past in past_atoms.items()}
            for target_position in candidates:
                if not all(
                    _literal_satisfied(lit, symbol, past_values)
                    for lit in literals_of[target_position]
                ):
                    continue
                target = (target_position, new_memory, new_counter)
                transitions.setdefault((source, symbol), set()).add(intern(target))
                if target not in explored:
                    explored.add(target)
                    queue.append(target)

    # Accepting: counter 0 at a node of the first acceptance set — visited
    # infinitely often iff the counter completes rounds infinitely often.
    accepting = [
        index
        for index, state in enumerate(order)
        if state != "nba-init" and state[2] == 0 and state[0] in acceptance_sets[0]
    ]
    return (
        order,
        {key: frozenset(value) for key, value in transitions.items()},
        accepting,
    )
