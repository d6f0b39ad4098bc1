"""State sets as Python ``int`` bitmasks.

A set of states ``S ⊆ {0..n-1}`` is the integer ``Σ_{s∈S} 2^s``.  Union,
intersection and difference become single big-int operations executed in C,
membership is a shift-and-test, and the masks double as perfect dict keys —
the representation every dense kernel in this package shares.

Packing and unpacking go through a little-endian byte buffer: ``mask |= 1 <<
s`` copies the whole big int per member (O(|S|·n/64) total), while the byte
buffer costs O(|S| + n/8) — the difference dominates SCC-sized sets.
"""

from __future__ import annotations

from collections.abc import Iterable

_BYTE_POSITIONS = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)


def pack_mask(states: Iterable[int], num_states: int) -> int:
    """The bitmask of ``states`` built through one byte buffer."""
    buffer = bytearray(num_states // 8 + 1)
    for state in states:
        buffer[state >> 3] |= 1 << (state & 7)
    return int.from_bytes(buffer, "little")


def unpack_positions(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, via byte-table lookup."""
    positions: list[int] = []
    extend = positions.extend
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8 or 1, "little"):
        if byte:
            if byte == 255:
                extend(range(base, base + 8))
            else:
                extend(base + bit for bit in _BYTE_POSITIONS[byte])
        base += 8
    return positions
