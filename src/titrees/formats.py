"""Output encodings: graph6, sparse6, and parent-list text.

graph6 packs the upper triangle of the adjacency matrix into printable
6-bit groups; sparse6 packs an edge stream of (bit, vertex) pairs.  Both
follow the published format description byte for byte.  The decoders
exist for round-trip testing and are not wired to the command line.
"""

from __future__ import annotations

from typing import Sequence

from .wti import WTITree

__all__ = [
    "GRAPH6_MAX_ORDER",
    "to_edge_list",
    "encode_graph6",
    "encode_sparse6",
    "encode_parent_list",
    "decode_graph6",
    "decode_sparse6",
    "graph6_line",
    "sparse6_line",
    "parent_list_line",
]

Edge = tuple[int, int]

# The three-byte order escape tops out at 2^18 - 1 vertices.
GRAPH6_MAX_ORDER = 258047


def to_edge_list(tree: WTITree) -> list[Edge]:
    """Edges (parent, child) as (smaller, larger) pairs, sorted."""
    edges = [(tree.parents[x], x) for x in range(1, tree.order)]
    edges.sort()
    return edges


def _check_order(order: int) -> None:
    if not 1 <= order <= GRAPH6_MAX_ORDER:
        raise ValueError(f"order must be in 1..{GRAPH6_MAX_ORDER}, got {order}")


def _encode_order(order: int) -> bytes:
    if order <= 62:
        return bytes([order + 63])
    return bytes([126, 63 + (order >> 12 & 63), 63 + (order >> 6 & 63), 63 + (order & 63)])


def _decode_order(data: bytes) -> tuple[int, int]:
    """(order, bytes consumed) from the front of an encoding."""
    if data[0] != 126:
        return data[0] - 63, 1
    if data[1] != 126:
        return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    raise ValueError("orders above the three-byte escape are not supported")


def encode_graph6(edges: Sequence[Edge], order: int) -> bytes:
    """graph6 encoding of a graph given by its edge list.

    The upper-triangle adjacency bits are streamed column by column,
    packed big-endian into 6-bit groups, zero-padded, and offset by 63
    into the printable range.
    """
    _check_order(order)
    total_bits = order * (order - 1) // 2
    groups = bytearray((total_bits + 5) // 6)
    for u, v in edges:
        if u > v:
            u, v = v, u
        pos = v * (v - 1) // 2 + u
        groups[pos // 6] |= 1 << (5 - pos % 6)
    return _encode_order(order) + bytes(g + 63 for g in groups)


def decode_graph6(data: bytes) -> tuple[int, list[Edge]]:
    """Invert :func:`encode_graph6`; returns (order, sorted edge list)."""
    order, start = _decode_order(data)
    edges = []
    pos = 0
    for v in range(1, order):
        for u in range(v):
            group = data[start + pos // 6] - 63
            if group >> (5 - pos % 6) & 1:
                edges.append((u, v))
            pos += 1
    return order, sorted(edges)


def encode_sparse6(edges: Sequence[Edge], order: int) -> bytes:
    """sparse6 encoding of a graph given by its edge list.

    Edges are streamed sorted by larger endpoint as (b, x) pairs, where b
    advances the current vertex and x is a k-bit label, k being the width
    of order - 1.  Padding uses 1-bits, except that a lone 0-bit is
    inserted first when order is a power of two, at least k padding bits
    are needed and the stream never reached the last vertex; otherwise
    the padding could decode as a loop on that vertex.
    """
    _check_order(order)
    k = max(1, (order - 1).bit_length())
    bits: list[int] = []

    def push(x: int, width: int) -> None:
        bits.extend(x >> (width - 1 - i) & 1 for i in range(width))

    v = 0
    for hi, lo in sorted((max(e), min(e)) for e in edges):
        if hi == v:
            push(0, 1)
        elif hi == v + 1:
            v += 1
            push(1, 1)
        else:
            v = hi
            push(1, 1)
            push(hi, k)
            push(0, 1)
        push(lo, k)

    if k < 6 and order == 1 << k and -len(bits) % 6 >= k and v < order - 1:
        bits.append(0)
    bits.extend([1] * (-len(bits) % 6))

    packed = bytes(
        63 + sum(bits[i + j] << (5 - j) for j in range(6)) for i in range(0, len(bits), 6)
    )
    return b":" + _encode_order(order) + packed


def decode_sparse6(data: bytes) -> tuple[int, list[Edge]]:
    """Invert :func:`encode_sparse6`; returns (order, sorted edge list)."""
    if not data.startswith(b":"):
        raise ValueError("sparse6 data must start with ':'")
    order, start = _decode_order(data[1:])
    k = max(1, (order - 1).bit_length())
    bits: list[int] = []
    for byte in data[1 + start:]:
        value = byte - 63
        bits.extend(value >> (5 - j) & 1 for j in range(6))

    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for j in range(1, k + 1):
            x = x << 1 | bits[pos + j]
        pos += 1 + k
        if b:
            v += 1
        if v >= order or x >= order:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return order, sorted(edges)


def encode_parent_list(tree: WTITree) -> bytes:
    """One text line with the parents of vertices 1..n-1; empty for K1."""
    return " ".join(str(tree.parents[x]) for x in range(1, tree.order)).encode("ascii")


# One-call adapters used by the CLI and the parallel workers.


def graph6_line(tree: WTITree) -> bytes:
    return encode_graph6(to_edge_list(tree), tree.order)


def sparse6_line(tree: WTITree) -> bytes:
    return encode_sparse6(to_edge_list(tree), tree.order)


def parent_list_line(tree: WTITree) -> bytes:
    return encode_parent_list(tree)
