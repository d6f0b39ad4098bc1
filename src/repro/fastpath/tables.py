"""Flat transition tables: the dense twin of ``Sequence[Sequence[int]]``.

A complete deterministic transition structure over ``n`` states and ``k``
symbols is one flat list of ``n·k`` small ints, row-major:
``table[state * k + a]`` is the successor of ``state`` on the symbol with
index ``a``.  (A plain list beats ``array('l')`` here: array reads box a
fresh int object per access, while list reads return cached small ints.)
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.words.alphabet import Alphabet


def flat_table(rows: Sequence[Sequence[int]]) -> list[int]:
    """Flatten a row-per-state table into one row-major list."""
    flat: list[int] = []
    for row in rows:
        flat.extend(row)
    return flat


def flat_table_over(
    rows: Sequence[Sequence[int]], own: Alphabet, base: Alphabet
) -> list[int]:
    """Flatten ``rows`` with columns re-ordered to ``base``'s symbol order.

    Product kernels iterate symbols in the *first* automaton's alphabet
    order; each other automaton's table must present its columns in that
    same order (the alphabets contain the same symbols, possibly permuted).
    """
    if own is base or own.symbols == base.symbols:
        return flat_table(rows)
    columns = [own.index(symbol) for symbol in base]
    flat: list[int] = []
    for row in rows:
        flat.extend(row[column] for column in columns)
    return flat
