"""Iterative SCC and ω-emptiness kernels over masks and adjacency arrays.

The same recursive-pruning Streett emptiness as
:func:`repro.omega.emptiness.streett_good_components`, with the set algebra
(``S∩R≠∅``, ``S⊆P``, candidate restriction) collapsed to big-int mask
arithmetic, and Tarjan run with flat ``index``/``lowlink`` arrays over the
transition rows instead of dicts over frozenset-valued closures.

Representation notes:

* masks are used for whole-set operations (one machine op per 64 states),
  but *per-element* membership tests on a large mask cost ``O(n/64)`` per
  shift — so inside the Tarjan loop membership is tracked in flat
  bytearrays, and masks are packed/unpacked through byte buffers
  (:func:`repro.fastpath.bitset.pack_mask`) rather than bit-by-bit;
* the pruning recursion reuses one set of scratch arrays, resetting only
  the entries its candidate touched, so a deep recursion over shrinking
  candidates does ``O(|candidate|)`` work per round, not ``O(n)``.

The *sets* these kernels compute — the union of accepting-cycle states, the
backward closure, the emptiness verdict — are identical to the reference
route's.  The *enumeration order* of good components may differ (Tarjan tie
order depends on edge iteration order), so witnesses extracted from a dense
run may be different, equally valid, lassos.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.fastpath.bitset import pack_mask, unpack_positions


class _TarjanScratch:
    """Reusable arrays for repeated restricted-SCC passes on one graph.

    ``index`` doubles as the membership filter: states outside the current
    candidate keep the sentinel ``num_states`` (≥ 0, never ``on_stack``), so
    the hot loop needs one list read per edge instead of a separate
    allowed-set lookup.
    """

    __slots__ = ("adjacency", "num_states", "index", "lowlink", "on_stack")

    def __init__(self, num_states: int, adjacency: Sequence[Sequence[int]]) -> None:
        self.num_states = num_states
        self.adjacency = adjacency
        self.index = [num_states] * num_states
        self.lowlink = [0] * num_states
        self.on_stack = bytearray(num_states)

    def sccs(
        self, candidate: Sequence[int], *, nontrivial_only: bool = False
    ) -> list[list[int]]:
        """SCC member lists of the subgraph induced by ``candidate``, in
        Tarjan emission order (reverse topological).

        With ``nontrivial_only`` the trivial components (singletons without
        a self-loop) are dropped at pop time — the pruning loops skip them
        anyway, and most components of a heavily pruned graph are trivial.
        """
        adjacency = self.adjacency
        index = self.index
        lowlink = self.lowlink
        on_stack = self.on_stack
        for state in candidate:
            index[state] = -1

        stack: list[int] = []
        components: list[list[int]] = []
        counter = 0
        for root in candidate:
            if index[root] >= 0:
                continue
            work = [(root, iter(adjacency[root]))]
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            while work:
                node, successors = work[-1]
                advanced = False
                low = lowlink[node]
                for target in successors:
                    target_index = index[target]
                    if target_index < 0:
                        lowlink[node] = low
                        index[target] = lowlink[target] = counter
                        counter += 1
                        stack.append(target)
                        on_stack[target] = 1
                        work.append((target, iter(adjacency[target])))
                        advanced = True
                        break
                    if target_index < low and on_stack[target]:
                        low = target_index
                if advanced:
                    continue
                lowlink[node] = low
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[node]:
                    member = stack.pop()
                    on_stack[member] = 0
                    if member == node:
                        if not nontrivial_only or node in adjacency[node]:
                            components.append([node])
                        continue
                    members = [member]
                    while member != node:
                        member = stack.pop()
                        on_stack[member] = 0
                        members.append(member)
                    components.append(members)
        sentinel = self.num_states
        for state in candidate:
            index[state] = sentinel
        return components


def restricted_sccs_masked(
    num_states: int, mask: int, adjacency: Sequence[Sequence[int]]
) -> list[tuple[int, list[int]]]:
    """SCCs of the subgraph induced by ``mask``: ``(scc_mask, members)``
    pairs in Tarjan emission order (reverse topological)."""
    scratch = _TarjanScratch(num_states, adjacency)
    return [
        (pack_mask(members, num_states), members)
        for members in scratch.sccs(unpack_positions(mask))
    ]


def streett_good_masks(
    num_states: int,
    initial_mask: int,
    adjacency: Sequence[Sequence[int]],
    pairs: Sequence[tuple[int, int]],
    *,
    scratch: "_TarjanScratch | None" = None,
) -> list[int]:
    """Maximal accepting sub-SCC masks under Streett pairs ``(left, right)``.

    The mask twin of ``streett_good_components``: a sub-SCC ``S`` is good
    when every pair satisfies ``S & left`` or ``S & ~right == 0``.
    """
    if scratch is None:
        scratch = _TarjanScratch(num_states, adjacency)
    good: list[int] = []
    pending = [unpack_positions(initial_mask)]
    while pending:
        candidate = pending.pop()
        for members in scratch.sccs(candidate, nontrivial_only=True):
            scc_mask = pack_mask(members, num_states)
            restricted = scc_mask
            violated = False
            for left, right in pairs:
                if not scc_mask & left and scc_mask & ~right:
                    violated = True
                    restricted &= right
            if not violated:
                good.append(scc_mask)
            elif restricted:
                pending.append(unpack_positions(restricted))
    return good


def rabin_cycle_mask(
    num_states: int,
    initial_mask: int,
    adjacency: Sequence[Sequence[int]],
    pairs: Sequence[tuple[int, int]],
) -> int:
    """States on a cycle meeting some ``E_i`` while avoiding its ``F_i``."""
    scratch = _TarjanScratch(num_states, adjacency)
    result = 0
    for left, right in pairs:
        allowed = unpack_positions(initial_mask & ~right)
        for members in scratch.sccs(allowed, nontrivial_only=True):
            scc_mask = pack_mask(members, num_states)
            if scc_mask & left:
                result |= scc_mask
    return result


def reachable_mask(
    num_states: int, initial: int, adjacency: Sequence[Sequence[int]]
) -> int:
    """Forward closure from ``initial``, as a bitmask."""
    seen = bytearray(num_states)
    seen[initial] = 1
    reached = [initial]
    frontier = [initial]
    while frontier:
        next_frontier: list[int] = []
        for state in frontier:
            for target in adjacency[state]:
                if not seen[target]:
                    seen[target] = 1
                    reached.append(target)
                    next_frontier.append(target)
        frontier = next_frontier
    return pack_mask(reached, num_states)


def can_reach_mask(
    num_states: int, target_mask: int, adjacency: Sequence[Sequence[int]]
) -> int:
    """Backward closure: states from which ``target_mask`` is reachable."""
    predecessors: list[list[int]] = [[] for _ in range(num_states)]
    for state in range(num_states):
        for successor in adjacency[state]:
            predecessors[successor].append(state)
    seen = bytearray(num_states)
    reached = unpack_positions(target_mask)
    for state in reached:
        seen[state] = 1
    frontier = list(reached)
    while frontier:
        next_frontier: list[int] = []
        for state in frontier:
            for pred in predecessors[state]:
                if not seen[pred]:
                    seen[pred] = 1
                    reached.append(pred)
                    next_frontier.append(pred)
        frontier = next_frontier
    return pack_mask(reached, num_states)


def nonempty_states_dense(aut) -> frozenset[int]:
    """The dense twin of ``repro.omega.emptiness.nonempty_states``.

    The transition rows double as the adjacency (duplicate successors cost a
    revisited ``seen`` check, far less than deduplicating every row).
    """
    from repro.omega.acceptance import Kind

    n = aut.num_states
    adjacency = aut._delta  # noqa: SLF001 — in-tree twin
    full = (1 << n) - 1
    pairs = [
        (pack_mask(p.left, n), pack_mask(p.right, n)) for p in aut.acceptance.pairs
    ]
    if aut.acceptance.kind is Kind.STREETT:
        target = 0
        for component in streett_good_masks(n, full, adjacency, pairs):
            target |= component
    else:
        target = rabin_cycle_mask(n, full, adjacency, pairs)
    return frozenset(unpack_positions(can_reach_mask(n, target, adjacency)))
