"""Graph utilities for ω-automata: SCCs, the SCC DAG, cycles, reachability.

The "cycles" of the paper (§5) are sets of states ``C`` admitting a cyclic
path through *all* of them — exactly the non-trivial strongly connected
subsets.  The decision procedures of §5.1 quantify over *accessible cycles*,
which this module enumerates (per SCC, with memoized strong-connectivity
checks) and summarizes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple


def strongly_connected_components(
    num_states: int, successors: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components come out in reverse
    topological order; each is a list of state indices."""
    index_counter = 0
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []

    for root in range(num_states):
        if root in index:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edge_iter = work[-1]
            advanced = False
            for target in edge_iter:
                if target not in index:
                    index[target] = lowlink[target] = index_counter
                    index_counter += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(successors(target))))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def restricted_sccs(
    states: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """SCCs of the subgraph induced by ``states``."""
    members = sorted(set(states))
    position = {s: i for i, s in enumerate(members)}

    def local_successors(i: int) -> Iterator[int]:
        for target in successors(members[i]):
            if target in position:
                yield position[target]

    return [
        [members[i] for i in component]
        for component in strongly_connected_components(len(members), local_successors)
    ]


def is_nontrivial_component(
    component: Sequence[int], successors: Callable[[int], Iterable[int]]
) -> bool:
    """True when the component carries a cycle (size ≥ 2, or a self-loop)."""
    if len(component) > 1:
        return True
    state = component[0]
    return state in set(successors(state))


def cyclic_sccs(
    states: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> list[frozenset[int]]:
    """The SCCs of the subgraph induced by ``states`` that carry a cycle,
    in reverse topological order."""
    return [
        frozenset(component)
        for component in restricted_sccs(states, successors)
        if is_nontrivial_component(component, successors)
    ]


class Condensation(NamedTuple):
    """The SCC DAG of an induced subgraph.

    ``components`` come in Tarjan's reverse topological order, so every
    edge in ``edges[i]`` enters a component with a smaller index: a DP over
    the DAG runs in index order, with no recursion however long its paths.
    """

    components: list[list[int]]
    component_of: dict[int, int]
    edges: list[set[int]]


def condensation(
    states: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> Condensation:
    """The SCC DAG of the subgraph induced by ``states``."""
    components = restricted_sccs(states, successors)
    component_of = {
        state: index for index, component in enumerate(components) for state in component
    }
    edges: list[set[int]] = [set() for _ in components]
    for index, component in enumerate(components):
        for state in component:
            for target in successors(state):
                other = component_of.get(target)
                if other is not None and other != index:
                    edges[index].add(other)
    return Condensation(components, component_of, edges)


def is_cycle_set(states: Iterable[int], successors: Callable[[int], Iterable[int]]) -> bool:
    """The paper's notion of *cycle*: a cyclic path visits exactly ``states``.

    Equivalent to: the induced subgraph is strongly connected and carries at
    least one edge (so a covering closed walk exists).
    """
    members = set(states)
    if not members:
        return False
    components = restricted_sccs(members, successors)
    if len(components) != 1 or set(components[0]) != members:
        return False
    return is_nontrivial_component(components[0], successors)


def reachable_from(
    start: int | Iterable[int], successors: Callable[[int], Iterable[int]]
) -> frozenset[int]:
    seeds = [start] if isinstance(start, int) else list(start)
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        state = queue.popleft()
        for target in successors(state):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return frozenset(seen)


def can_reach(
    num_states: int, targets: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> frozenset[int]:
    """States from which some target is reachable (backward closure)."""
    predecessors: dict[int, set[int]] = {s: set() for s in range(num_states)}
    for state in range(num_states):
        for target in successors(state):
            predecessors[target].add(state)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for pred in predecessors[state]:
            if pred not in seen:
                seen.add(pred)
                queue.append(pred)
    return frozenset(seen)


def enumerate_cycle_sets(
    scc: Sequence[int],
    successors: Callable[[int], Iterable[int]],
    *,
    limit: int | None = None,
) -> Iterator[frozenset[int]]:
    """All cycle sets (strongly connected subsets carrying a cycle) inside one SCC.

    Worst-case exponential in ``|scc|`` — the Wagner-index analyses that use
    this keep their automata small, and ``limit`` guards runaway cases.
    """
    members = sorted(scc)
    count = 0
    seen: set[frozenset[int]] = set()
    # Grow candidate subsets from each state; strong-connectivity is checked
    # per emitted subset.  Subsets are enumerated by bitmask over the SCC.
    n = len(members)
    if n > 20:
        raise ValueError(f"SCC of size {n} is too large for explicit cycle enumeration")
    for mask in range(1, 1 << n):
        subset = frozenset(members[i] for i in range(n) if mask >> i & 1)
        if subset in seen:
            continue
        seen.add(subset)
        if is_cycle_set(subset, successors):
            yield subset
            count += 1
            if limit is not None and count >= limit:
                return
