"""Safra's determinization: NBA → deterministic Rabin automaton.

Macrostates are Safra trees: ordered trees of named nodes, each carrying a
set of NBA states, children partitioning (a subset of) the parent, younger
siblings ordered to the right.  One step:

1. remove all marks;
2. every node whose label meets the NBA's accepting set sprouts a youngest
   child carrying that intersection (fresh smallest free name);
3. every label advances through the NBA transition on the input symbol;
4. horizontal merge — a state appearing under two siblings is deleted from
   the younger subtree;
5. nodes with empty labels die (with their subtrees);
6. vertical merge — a node whose label equals the union of its children's
   labels deletes all descendants and becomes *marked* (``!``).

Acceptance (Rabin, one pair per node name ``n``): some ``n`` is eventually
never deleted and marked infinitely often — ``E_n`` = macrostates with ``n``
marked, ``F_n`` = macrostates without ``n`` in the tree.

At most ``2·|Q|`` names are ever needed (a live tree has at most ``|Q|``
nodes, plus transient children within a step).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton
from repro.omega.buchi import NBA
from repro.words.alphabet import Symbol

FrozenTree = tuple  # (name, frozenset[int], tuple[FrozenTree, ...])


@dataclass
class _Node:
    name: int
    label: set[int]
    children: list["_Node"]

    def freeze(self) -> FrozenTree:
        return (self.name, frozenset(self.label), tuple(c.freeze() for c in self.children))

    @classmethod
    def thaw(cls, frozen: FrozenTree) -> "_Node":
        name, label, children = frozen
        return cls(name, set(label), [cls.thaw(c) for c in children])

    def all_nodes(self) -> list["_Node"]:
        result = [self]
        for child in self.children:
            result.extend(child.all_nodes())
        return result

    def remove_states(self, states: set[int]) -> None:
        self.label -= states
        for child in self.children:
            child.remove_states(states)


def _used_names(node: _Node) -> set[int]:
    return {n.name for n in node.all_nodes()}


def _safra_step(
    frozen: FrozenTree | None, symbol: Symbol, nba: NBA
) -> tuple[FrozenTree | None, frozenset[int]]:
    """One Safra transition; returns the new tree and the marked names."""
    if frozen is None:
        return None, frozenset()
    root = _Node.thaw(frozen)

    # Step 2: branch on accepting intersections (fresh smallest free names).
    used = _used_names(root)
    next_name = 0

    def fresh_name() -> int:
        nonlocal next_name
        while next_name in used:
            next_name += 1
        used.add(next_name)
        return next_name

    for node in root.all_nodes():
        hit = node.label & nba.accepting
        if hit:
            node.children.append(_Node(fresh_name(), set(hit), []))

    # Step 3: powerset update of every label.
    for node in root.all_nodes():
        node.label = set(nba.post(node.label, symbol))

    # Step 4: horizontal merge — keep each state only in the oldest sibling.
    def horizontal(node: _Node) -> None:
        seen: set[int] = set()
        for child in node.children:
            child.remove_states(seen)
            seen |= child.label
        for child in node.children:
            horizontal(child)

    horizontal(root)

    # Step 5: remove empty nodes (subtrees die with them).
    def prune(node: _Node) -> None:
        node.children = [c for c in node.children if c.label]
        for child in node.children:
            prune(child)

    prune(root)
    if not root.label:
        return None, frozenset()

    # Step 6: vertical merge and marking.
    marked: set[int] = set()

    def vertical(node: _Node) -> None:
        for child in node.children:
            vertical(child)
        union: set[int] = set()
        for child in node.children:
            union |= child.label
        if node.children and union == node.label:
            node.children = []
            marked.add(node.name)

    vertical(root)
    return root.freeze(), frozenset(marked)


def determinize(nba: NBA) -> DetAutomaton:
    """Safra's construction; the result is a deterministic Rabin automaton
    accepting exactly the NBA's language."""
    from repro.engine.metrics import METRICS
    from repro.fastpath.config import dense_route
    from repro.obs.spans import stage

    with stage("safra.determinize", nba_states=nba.num_states) as step:
        # Tree work per macrostate grows with the (up to exponential) number
        # of Safra nodes, so the work proxy is deliberately superlinear in |Q|.
        if dense_route(nba.num_states ** 2 * len(nba.alphabet)):
            from repro.fastpath.safra import determinize_dense

            result = determinize_dense(nba)
        else:
            result = _determinize_reference(nba)
        step.set_attribute("dra_states", result.num_states)
        step.set_attribute("pairs", len(result.acceptance.pairs))
    METRICS.histogram("safra.macrostates").observe(result.num_states)
    return result


def _determinize_reference(nba: NBA) -> DetAutomaton:
    from repro.finitary.dfa import explore

    if nba.initials:
        initial_tree: FrozenTree | None = (0, frozenset(nba.initials), ())
    else:
        initial_tree = None
    initial = (initial_tree, frozenset())

    def successor(state, symbol):
        tree, _marks = state
        return _safra_step(tree, symbol, nba)

    rows, order = explore(nba.alphabet, initial, successor)

    def names_in(tree: FrozenTree | None) -> frozenset[int]:
        if tree is None:
            return frozenset()
        name, _label, children = tree
        result = {name}
        for child in children:
            result |= names_in(child)
        return frozenset(result)

    all_names: set[int] = set()
    for tree, marks in order:
        all_names |= names_in(tree) | marks

    pairs = []
    for name in sorted(all_names):
        marked_states = frozenset(i for i, (_t, marks) in enumerate(order) if name in marks)
        absent_states = frozenset(
            i for i, (tree, _m) in enumerate(order) if name not in names_in(tree)
        )
        if marked_states:
            pairs.append(Pair(marked_states, absent_states))
    if not pairs:
        pairs.append(Pair(frozenset(), frozenset()))  # empty language
    return DetAutomaton(nba.alphabet, rows, 0, Acceptance(Kind.RABIN, tuple(pairs)))


def formula_to_dra(formula, alphabet) -> DetAutomaton:
    """Convenience: LTL+Past → NBA (GPVW) → deterministic Rabin (Safra),
    shrunk by the color-respecting quotient."""
    from repro.logic.translate import formula_to_nba
    from repro.omega.reduce import quotient_reduce

    return quotient_reduce(determinize(formula_to_nba(formula, alphabet)))
