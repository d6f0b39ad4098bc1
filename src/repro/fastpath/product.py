"""Dense synchronous products: integer-coded state vectors, flat tables.

The reference route explores products over tuples of ints with per-symbol
``alphabet.index`` lookups and frozenset/tuple hashing.  These kernels
encode a state vector as one integer in mixed radix (``code = p·n₁ + q``
for a pair) and drive the exploration off flat per-automaton tables, so the
inner loop is pure integer arithmetic plus one small-int dict probe.

Exploration order is *identical* to :func:`repro.finitary.dfa.explore` —
same BFS, symbols in the base alphabet's order, states numbered by
discovery — so the produced tables match the reference row for row.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import STATE_LIMIT, state_limit_exceeded

#: Largest code space for which the pair kernel trades the interning dict
#: for a flat slot array (4M entries ≈ 32 MB of small-int pointers).
_FLAT_INDEX_LIMIT = 1 << 22


def explore_pair_dense(
    table_a,
    n_a: int,
    table_b,
    n_b: int,
    k: int,
    initial_a: int,
    initial_b: int,
    *,
    state_limit: int = STATE_LIMIT,
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """BFS product of two flat tables; returns (rows, order-of-pairs).

    The reachable code space ``n_a·n_b`` is usually small enough to intern
    through a flat slot array — one list index per probe instead of hashing
    every successor code — with per-symbol successor codes produced by
    zipping the two table row slices.
    """
    scaled_a = [target * n_b for target in table_a]
    initial = initial_a * n_b + initial_b
    total = n_a * n_b
    order: list[int] = [initial]
    rows: list[list[int]] = []
    head = 0
    if total <= _FLAT_INDEX_LIMIT:
        slots = [-1] * total
        slots[initial] = 0
        while head < len(order):
            code = order[head]
            head += 1
            base_a = (code // n_b) * k
            base_b = (code % n_b) * k
            row: list[int] = []
            append = row.append
            for successor_a, successor_b in zip(
                scaled_a[base_a : base_a + k], table_b[base_b : base_b + k]
            ):
                successor = successor_a + successor_b
                slot = slots[successor]
                if slot < 0:
                    if len(order) >= state_limit:
                        raise state_limit_exceeded(state_limit)
                    slot = len(order)
                    slots[successor] = slot
                    order.append(successor)
                append(slot)
            rows.append(row)
        return rows, [divmod(code, n_b) for code in order]

    index: dict[int, int] = {initial: 0}
    while head < len(order):
        code = order[head]
        head += 1
        base_a = (code // n_b) * k
        base_b = (code % n_b) * k
        row = []
        append = row.append
        for successor_a, successor_b in zip(
            scaled_a[base_a : base_a + k], table_b[base_b : base_b + k]
        ):
            successor = successor_a + successor_b
            slot = index.get(successor)
            if slot is None:
                if len(order) >= state_limit:
                    raise state_limit_exceeded(state_limit)
                slot = len(order)
                index[successor] = slot
                order.append(successor)
            append(slot)
        rows.append(row)
    return rows, [divmod(code, n_b) for code in order]


def explore_vector_dense(
    tables: Sequence,
    sizes: Sequence[int],
    k: int,
    initials: Sequence[int],
    *,
    state_limit: int = STATE_LIMIT,
) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """BFS product of N flat tables; returns (rows, order-of-vectors)."""
    m = len(tables)
    if m == 2:
        rows, order = explore_pair_dense(
            tables[0], sizes[0], tables[1], sizes[1], k,
            initials[0], initials[1], state_limit=state_limit,
        )
        return rows, order

    # Mixed-radix strides (last component is the fastest-varying digit);
    # pre-scaling each table by its stride makes a successor code a plain
    # sum of m table reads.
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    scaled = [
        [target * stride for target in table]
        for table, stride in zip(tables, strides)
    ]

    def encode(vector: Sequence[int]) -> int:
        code = 0
        for size, component in zip(sizes, vector):
            code = code * size + component
        return code

    def decode(code: int) -> tuple[int, ...]:
        components = [0] * m
        for i in range(m - 1, -1, -1):
            code, components[i] = divmod(code, sizes[i])
        return tuple(components)

    component_range = range(m)
    initial = encode(initials)
    index: dict[int, int] = {initial: 0}
    order: list[int] = [initial]
    rows: list[list[int]] = []
    head = 0
    while head < len(order):
        vector = decode(order[head])
        head += 1
        bases = [component * k for component in vector]
        row: list[int] = []
        append = row.append
        for a in range(k):
            successor = 0
            for i in component_range:
                successor += scaled[i][bases[i] + a]
            slot = index.get(successor)
            if slot is None:
                if len(order) >= state_limit:
                    raise state_limit_exceeded(state_limit)
                slot = len(order)
                index[successor] = slot
                order.append(successor)
            append(slot)
        rows.append(row)
    return rows, [decode(code) for code in order]
