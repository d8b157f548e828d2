"""The per-tree loop encoders, kept as the reference for ``titrees.formats``.

Each walks one whole parent tuple and writes its line directly: graph6
sets one bit per edge in a byte array of 6-bit groups, sparse6 shifts
one (k + 1)-bit field per vertex through a pending-bits accumulator, and
the parent list joins the numbers.  The package encodes segments
instead (one per run of vertices, added up and finished once);
``tests/test_formats.py`` checks every split of a tree, and every tree
the generator emits, against these.  They carry their own order header
so that the two sides share no code.
"""

from __future__ import annotations

_PRINTABLE = bytes((b + 63) % 256 for b in range(256))


def _encode_order(order: int) -> bytes:
    if order <= 62:
        return bytes([order + 63])
    return bytes([126, 63 + (order >> 12 & 63), 63 + (order >> 6 & 63), 63 + (order & 63)])


def graph6_line(parents: tuple[int, ...]) -> bytes:
    """graph6 of a tree: edge (parents[x], x) is bit x(x-1)/2 + parents[x]."""
    n = len(parents)
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for x in range(1, n):
        pos = x * (x - 1) // 2 + parents[x]
        groups[pos // 6] |= 32 >> pos % 6
    return _encode_order(n) + groups.translate(_PRINTABLE) + b"\n"


def sparse6_line(parents: tuple[int, ...]) -> bytes:
    """sparse6 of a tree: a 1-bit and the k-bit parent per vertex, 1-padded."""
    n = len(parents)
    k = max(1, (n - 1).bit_length())
    advance = 1 << k
    groups = bytearray()
    pending = width = 0
    for x in range(1, n):
        pending = pending << (k + 1) | advance | parents[x]
        width += k + 1
        while width >= 6:
            width -= 6
            groups.append(pending >> width)
            pending &= (1 << width) - 1
    if width:
        pad = 6 - width
        groups.append(pending << pad | (1 << pad) - 1)
    return b":" + _encode_order(n) + groups.translate(_PRINTABLE) + b"\n"


def parent_list_line(parents: tuple[int, ...]) -> bytes:
    """The parents of vertices 1..n-1 on one line; just the newline for K1."""
    return (" ".join(map(str, parents[1:])) + "\n").encode("ascii")
