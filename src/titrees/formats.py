"""Output encodings of emitted trees: graph6, sparse6, and parent-list text.

Every encoder takes the parent tuple of a tree, as the generator emits
it: ``parents[0] == 0`` and ``parents[x] < x``, so the order n is
``len(parents)`` and the edges are (parents[x], x) for x = 1..n-1.  The
single vertex is ``(0,)``.  Each returns one whole line, ended by
``b"\n"``, so a stream of trees is the concatenation of their lines.
graph6 and sparse6 follow the published format description (McKay,
formats.txt) byte for byte, as networkx's ``to_graph6_bytes`` and
``to_sparse6_bytes`` with ``header=False`` write them.

Each format writes, for every vertex x, a piece that depends only on x,
``parents[x]`` and n, so ``segment(entries, first, n)`` encodes vertices
``first, first + 1, ...`` alone, and a tree's line is ``finish`` of the
sum of segments that cover it.  graph6 and sparse6 segments are ints with
disjoint bits, the line before ``translate(_PRINTABLE)`` with one byte per
6-bit group; the header, padding and newline go with vertex 0.  Parent-list
segments are bytes: each number and a space, or the newline after n - 1's.
"""

from __future__ import annotations

from binascii import b2a_base64

__all__ = ["GRAPH6_MAX_ORDER", "graph6_line", "sparse6_line", "parent_list_line"]

# The three-byte order escape tops out at 2^18 - 1 vertices.
GRAPH6_MAX_ORDER = 258047

# Adds 63 to every 6-bit group, moving it into the printable range.
_PRINTABLE = bytes((b + 63) % 256 for b in range(256))
_FROM_BASE64 = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(64)))


def _frame(tag: int, order: int, groups: int) -> int:
    """The raw line, bytes less 63 mod 256, of the raw ``tag`` (0: none), order, ``groups`` '?'s and newline."""
    if not 1 <= order <= GRAPH6_MAX_ORDER:
        raise ValueError(f"order must be in 1..{GRAPH6_MAX_ORDER}, got {order}")
    if order > 62:  # '~' (raw 63) and the order's two high 6-bit groups, then its low one
        tag = (tag << 8 | 63) << 16 | (order >> 12 & 63) << 8 | order >> 6 & 63
    return (tag << 8 | order & 63) << 8 * groups + 8 | 203  # a raw '?' is 0 and a raw newline 203


def _to_line(segment: int) -> bytes:
    return segment.to_bytes((segment.bit_length() + 7) // 8, "big").translate(_PRINTABLE)  # no leading raw 0


def _graph6_segment(entries: tuple[int, ...], first: int, n: int) -> int:
    groups = (n * (n - 1) // 2 + 5) // 6
    line = _frame(0, n, groups) if first == 0 else 0  # no tag; a bad order raises before the allocation
    bits = bytearray(groups)
    for x in range(max(first, 1), first + len(entries)):
        pos = x * (x - 1) // 2 + entries[x - first]
        bits[pos // 6] |= 32 >> pos % 6
    return line | int.from_bytes(bits, "big") << 8


def _sparse6_segment(entries: tuple[int, ...], first: int, n: int) -> int:
    field = max(1, (n - 1).bit_length()) + 1  # the 1-bit and the k-bit parent
    groups = ((n - 1) * field + 5) // 6
    line = _frame(251, n, groups) if first == 0 else 0  # a raw ':'
    fields = [1 << field - 1 | p for p in (entries[1:] if first == 0 else entries)]
    run = int(("{:b}" * len(fields)).format(*fields) or "0", 2)  # every field starts with its 1-bit
    pad = 6 * groups - (n - 1) * field if first == 0 else 0  # the 1-bits after vertex n - 1
    stream = run << 6 * groups - (first + len(entries) - 1) * field | (1 << pad) - 1  # x's field ends at bit x * field
    # Base64 spreads 3 bytes into 4 groups, one byte each; leading zero groups vanish in the int.
    spread = b2a_base64(stream.to_bytes((groups + 3) // 4 * 3, "big"), newline=False).translate(_FROM_BASE64)
    return line | int.from_bytes(spread, "big") << 8


def _parent_list_segment(entries: tuple[int, ...], first: int, n: int) -> bytes:
    text = " ".join(map(str, entries[1:] if first == 0 else entries))
    end = "\n" if first + len(entries) == n else " " if text else ""
    return (text + end).encode("ascii")


def graph6_line(parents: tuple[int, ...]) -> bytes:
    """graph6 of a tree: the upper triangle of its adjacency matrix.

    The triangle is read column by column, so edge (parents[x], x) is
    bit x(x-1)/2 + parents[x]; bits are packed big-endian into 6-bit
    groups, zero-padded.
    """
    return _to_line(_graph6_segment(parents, 0, len(parents)))


def sparse6_line(parents: tuple[int, ...]) -> bytes:
    """sparse6 of a tree: one edge-stream entry per vertex x = 1..n-1.

    Vertex x is the larger end of exactly one edge, (parents[x], x), so
    the stream is a 1-bit (advance to vertex x) followed by the k-bit
    parent for each x in turn, k being the bit width of n - 1.  The
    stream ends at vertex n - 1, so padding it with 1-bits to a whole
    6-bit group only advances past the last vertex and adds no edge.
    """
    return _to_line(_sparse6_segment(parents, 0, len(parents)))


def parent_list_line(parents: tuple[int, ...]) -> bytes:
    """One text line with the parents of vertices 1..n-1; just the newline for K1."""
    return _parent_list_segment(parents, 0, len(parents))


# Each shipped encoder's (segment, finish), keyed by the function itself: a
# wrapper, even a functools.wraps one, is not a key.  bytes(b) is b.
_SEGMENTS = {
    graph6_line: (_graph6_segment, _to_line),
    sparse6_line: (_sparse6_segment, _to_line),
    parent_list_line: (_parent_list_segment, bytes),
}
