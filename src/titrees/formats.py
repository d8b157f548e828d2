"""Output encodings of emitted trees: graph6, sparse6, and parent-list text.

Every encoder reads only ``tree.order`` and ``tree.parents``, the parent
array with ``parents[x] < x`` that the generator emits, so the edges of a
tree are (parents[x], x) for x = 1..n-1.  Each returns one whole line,
ended by ``b"\n"``, so a stream of trees is the concatenation of their
lines.  graph6 and sparse6 follow the published format description
(McKay, formats.txt) byte for byte, as networkx's ``to_graph6_bytes`` and
``to_sparse6_bytes`` with ``header=False`` write them.
"""

from __future__ import annotations

from .wti import WTITree

__all__ = ["GRAPH6_MAX_ORDER", "graph6_line", "sparse6_line", "parent_list_line"]

# The three-byte order escape tops out at 2^18 - 1 vertices.
GRAPH6_MAX_ORDER = 258047

# Adds 63 to every 6-bit group, moving it into the printable range.
_PRINTABLE = bytes((b + 63) % 256 for b in range(256))


def _check_order(order: int) -> None:
    if not 1 <= order <= GRAPH6_MAX_ORDER:
        raise ValueError(f"order must be in 1..{GRAPH6_MAX_ORDER}, got {order}")


def _encode_order(order: int) -> bytes:
    if order <= 62:
        return bytes([order + 63])
    return bytes([126, 63 + (order >> 12 & 63), 63 + (order >> 6 & 63), 63 + (order & 63)])


def graph6_line(tree: WTITree) -> bytes:
    """graph6 of a tree: the upper triangle of its adjacency matrix.

    The triangle is read column by column, so edge (parents[x], x) is
    bit x(x-1)/2 + parents[x]; bits are packed big-endian into 6-bit
    groups, zero-padded.
    """
    n = tree.order
    _check_order(n)
    parents = tree.parents
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for x in range(1, n):
        pos = x * (x - 1) // 2 + parents[x]
        groups[pos // 6] |= 32 >> pos % 6
    return _encode_order(n) + groups.translate(_PRINTABLE) + b"\n"


def sparse6_line(tree: WTITree) -> bytes:
    """sparse6 of a tree: one edge-stream entry per vertex x = 1..n-1.

    Vertex x is the larger end of exactly one edge, (parents[x], x), so
    the stream is a 1-bit (advance to vertex x) followed by the k-bit
    parent for each x in turn, k being the bit width of n - 1.  The
    stream ends at vertex n - 1, so padding it with 1-bits to a whole
    6-bit group only advances past the last vertex and adds no edge.
    """
    n = tree.order
    _check_order(n)
    k = max(1, (n - 1).bit_length())
    advance = 1 << k
    parents = tree.parents
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


def parent_list_line(tree: WTITree) -> bytes:
    """One text line with the parents of vertices 1..n-1; just the newline for K1."""
    return (" ".join(map(str, tree.parents[1:])) + "\n").encode("ascii")
