"""Flat transition tables: the dense twin of ``Sequence[Sequence[int]]``.

A complete deterministic transition structure over ``n`` states and ``k``
symbols is one flat list of ``n·k`` small ints, row-major:
``table[state * k + a]`` is the successor of ``state`` on the symbol with
index ``a``.  (A plain list beats ``array('l')`` here: array reads box a
fresh int object per access, while list reads return cached small ints.)
"""

from __future__ import annotations

from collections.abc import Sequence


def flat_table(rows: Sequence[Sequence[int]]) -> list[int]:
    """Flatten a row-per-state table into one row-major list."""
    flat: list[int] = []
    for row in rows:
        flat.extend(row)
    return flat

