"""Dense Safra determinization: flat mask-labelled trees, compressed columns.

The reference route (:mod:`repro.omega.safra`) thaws every macrostate into a
tree of dataclass nodes carrying ``set[int]`` labels, recomputes the NBA
powerset image with frozenset unions, and re-freezes — per state, *per
symbol*.  This twin keeps the identical algorithm but changes the
representation and the stepping granularity:

* node labels are ``int`` bitmasks; the powerset update is an OR-reduction
  over precomputed per-(state, class) successor masks, and the horizontal /
  vertical merges are single mask operations per node;
* trees are mutable ``[name, mask, children]`` lists while stepping and
  intern to flat nested-tuple signatures between steps — no dataclass or
  frozenset churn;
* symbols are compressed through :func:`repro.fastpath.labels.nba_partition`
  first, so each macrostate is stepped **once per label class** instead of
  once per symbol; rows re-expand through the partition.

Parity contract (enforced by the qa ``fastpath`` oracle and
``tests/test_fastpath_safra_gpvw.py``): the produced deterministic Rabin
automaton is *bit-identical* to the reference — same macrostate discovery
order (class order preserves per-symbol first occurrences), same node
names (the fresh-smallest-free-name scan is replicated exactly), hence the
same table, the same Rabin pairs in the same order.
"""

from __future__ import annotations

from repro.errors import STATE_LIMIT, state_limit_exceeded
from repro.fastpath.labels import nba_partition
from repro.omega.acceptance import Acceptance, Kind, Pair
from repro.omega.automaton import DetAutomaton

#: The dead macrostate (empty tree) — reference ``(None, frozenset())``.
_DEAD = (None, 0)


def _thaw(signature):
    """Signature ``(name, mask, (children…))`` → mutable ``[name, mask, [children…]]``."""
    name, mask, children = signature
    return [name, mask, [_thaw(child) for child in children]]


def _freeze(node):
    name, mask, children = node
    return (name, mask, tuple(_freeze(child) for child in children))


def _name_mask(signature) -> int:
    name, _mask, children = signature
    result = 1 << name
    for child in children:
        result |= _name_mask(child)
    return result


def _image(label: int, chunk: dict, post, cls: int, num_classes: int) -> int:
    """OR-reduction of per-state successor masks over ``label``'s members,
    byte-chunked: each (byte offset, byte value) pair of the label resolves
    through a lazily-built 256-entry table, so dense labels cost one dict
    probe per 8 states instead of one table read per state."""
    image = 0
    offset = 0
    while label:
        byte = label & 0xFF
        if byte:
            key = (offset << 8) | byte
            part = chunk.get(key)
            if part is None:
                part = 0
                bits = byte
                base = offset << 3
                while bits:
                    low = bits & -bits
                    part |= post[(base + low.bit_length() - 1) * num_classes + cls]
                    bits ^= low
                chunk[key] = part
            image |= part
        label >>= 8
        offset += 1
    return image


def _remove(node: list, mask: int) -> None:
    node[1] &= ~mask
    for child in node[2]:
        _remove(child, mask)


def _horizontal(node: list) -> None:
    seen = 0
    for child in node[2]:
        if seen:
            _remove(child, seen)
        seen |= child[1]
    for child in node[2]:
        _horizontal(child)


def _prune(node: list) -> None:
    node[2] = [child for child in node[2] if child[1]]
    for child in node[2]:
        _prune(child)


def _vertical(node: list, marked: int) -> int:
    children = node[2]
    union = 0
    for child in children:
        marked = _vertical(child, marked)
        union |= child[1]
    if children and union == node[1]:
        node[2] = []
        marked |= 1 << node[0]
    return marked


def _step(signature, cls: int, post, num_classes: int, accept_mask: int, chunk: dict, cache: dict):
    """One Safra transition on label class ``cls``; mirrors the reference
    ``_safra_step`` move for move.  Returns ``(signature, marked_mask)``."""
    root = _thaw(signature)

    preorder: list[list] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(reversed(node[2]))

    # Step 2: branch on accepting intersections.  The fresh-name scan is the
    # reference's exactly: one cursor over the set of used names, never
    # reset within a step; new children are not themselves branched.
    used = {node[0] for node in preorder}
    next_name = 0
    sprouted: list[list] = []
    for node in preorder:
        hit = node[1] & accept_mask
        if hit:
            while next_name in used:
                next_name += 1
            used.add(next_name)
            child = [next_name, hit, []]
            node[2].append(child)
            sprouted.append(child)

    # Step 3: powerset update of every label (new children included).  Node
    # labels recur heavily across macrostates, so whole-label images are
    # cached per class; misses fall back to the byte-chunked reduction.
    for node in preorder:
        label = node[1]
        image = cache.get(label)
        if image is None:
            image = _image(label, chunk, post, cls, num_classes)
            cache[label] = image
        node[1] = image
    for node in sprouted:
        label = node[1]
        image = cache.get(label)
        if image is None:
            image = _image(label, chunk, post, cls, num_classes)
            cache[label] = image
        node[1] = image

    # Step 4: horizontal merge — keep each state only in the oldest sibling.
    _horizontal(root)

    # Step 5: remove empty nodes (subtrees die with them).
    _prune(root)
    if not root[1]:
        return _DEAD

    # Step 6: vertical merge and marking.
    marked = _vertical(root, 0)
    return _freeze(root), marked


def determinize_dense(nba, *, state_limit: int = STATE_LIMIT) -> DetAutomaton:
    """Safra's construction over masks and compressed labels.

    Returns a deterministic Rabin automaton bit-identical to the reference
    :func:`repro.omega.safra.determinize` result.
    """
    partition = nba_partition(nba)
    num_classes = partition.num_classes
    class_of = partition.class_of
    representatives = partition.representatives()
    n = nba.num_states

    # post[s·C + c]: bitmask of the successors of ``s`` on class ``c``.
    post = [0] * (n * num_classes)
    for cls, symbol in enumerate(representatives):
        for state in range(n):
            mask = 0
            for target in nba.transitions.get((state, symbol), ()):
                mask |= 1 << target
            post[state * num_classes + cls] = mask

    accept_mask = 0
    for state in nba.accepting:
        accept_mask |= 1 << state

    if nba.initials:
        initial_mask = 0
        for state in nba.initials:
            initial_mask |= 1 << state
        initial = ((0, initial_mask, ()), 0)
    else:
        initial = _DEAD

    index: dict[tuple, int] = {initial: 0}
    order: list[tuple] = [initial]
    rows: list[list[int]] = []
    chunks = [dict() for _ in range(num_classes)]
    caches = [dict() for _ in range(num_classes)]
    head = 0
    while head < len(order):
        tree, _marks = order[head]
        head += 1
        by_class: list[int] = []
        for cls in range(num_classes):
            successor = _DEAD if tree is None else _step(
                tree, cls, post, num_classes, accept_mask, chunks[cls], caches[cls]
            )
            slot = index.get(successor)
            if slot is None:
                if len(order) >= state_limit:
                    raise state_limit_exceeded(state_limit)
                slot = len(order)
                index[successor] = slot
                order.append(successor)
            by_class.append(slot)
        rows.append([by_class[c] for c in class_of])

    # Rabin pairs, one per node name, exactly as the reference builds them.
    name_masks = [0 if tree is None else _name_mask(tree) for tree, _m in order]
    all_names = 0
    for (tree, marks), names in zip(order, name_masks):
        all_names |= names | marks

    pairs = []
    name = 0
    remaining = all_names
    while remaining:
        if remaining & 1:
            bit = 1 << name
            marked_states = frozenset(
                i for i, (_t, marks) in enumerate(order) if marks & bit
            )
            if marked_states:
                absent_states = frozenset(
                    i for i, names in enumerate(name_masks) if not names & bit
                )
                pairs.append(Pair(marked_states, absent_states))
        remaining >>= 1
        name += 1
    if not pairs:
        pairs.append(Pair(frozenset(), frozenset()))  # empty language
    return DetAutomaton.trusted(
        nba.alphabet, rows, 0, Acceptance(Kind.RABIN, tuple(pairs))
    )
