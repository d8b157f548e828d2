"""Test-only code: edge lists, decoders, and independent reference checks.

Nothing in the package needs these.  The decoders are written apart
from the encoders, which work on parent tuples, so a round trip through
them checks the encoders; the TI test re-checks what the phase-2 scan
emits; the WTI invariant checker and the rooted-tree and Prufer
enumerations are the oracle's second opinions.  A tree is its parent
tuple, ``parents[x] < x``, as the generator emits it, except where a
helper reads level bitsets and takes a ``WTITree``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from titrees.oracle import MAX_ENUMERATION_ORDER, _next_rooted_sequence, _tree_from_levels
from titrees.wti import WTITree

Edge = tuple[int, int]
Parents = tuple[int, ...]


def to_edge_list(parents: Parents) -> list[Edge]:
    """Edges (parent, child) as (smaller, larger) pairs, sorted."""
    return sorted((parents[x], x) for x in range(1, len(parents)))


def parents_from_edges(order: int, edges: Sequence[Edge]) -> Parents:
    """Parent tuple of the tree with these edges on labels 0..order-1,
    relabelled in breadth-first order from vertex 0."""
    neighbors: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    label = {0: 0}
    parents = [0]
    visit = [0]
    for v in visit:
        for w in neighbors[v]:
            if w not in label:
                label[w] = len(parents)
                parents.append(label[v])
                visit.append(w)
    if len(parents) != order or len(edges) != order - 1:
        raise ValueError(f"{len(edges)} edges do not form a tree on {order} vertices")
    return tuple(parents)


def chain_edges(order: int) -> list[Edge]:
    return [(i, i + 1) for i in range(order - 1)]


def star_edges(order: int) -> list[Edge]:
    return [(0, i) for i in range(1, order)]


# ----------------------------------------------------------------------
# graph6 and sparse6 decoders
# ----------------------------------------------------------------------


def _decode_order(data: bytes) -> tuple[int, int]:
    """(order, bytes consumed) from the front of an encoding."""
    if data[0] != 126:
        return data[0] - 63, 1
    if data[1] != 126:
        return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    raise ValueError("orders above the three-byte escape are not supported")


def decode_graph6(data: bytes) -> tuple[int, list[Edge]]:
    """Invert :func:`titrees.formats.graph6_line`; returns (order, sorted edge list)."""
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


def decode_sparse6(data: bytes) -> tuple[int, list[Edge]]:
    """Invert :func:`titrees.formats.sparse6_line`; returns (order, sorted edge list).

    The line's terminating newline, if any, is not part of the edge stream.
    """
    if not data.startswith(b":"):
        raise ValueError("sparse6 data must start with ':'")
    order, start = _decode_order(data[1:])
    k = max(1, (order - 1).bit_length())
    bits: list[int] = []
    for byte in data[1 + start:].removesuffix(b"\n"):
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


# ----------------------------------------------------------------------
# WTI invariants
# ----------------------------------------------------------------------


def levels_from_parents(parents: Parents) -> list[int]:
    """Level of every vertex, derived from the parent array alone."""
    level = [0] * len(parents)
    for x in range(1, len(parents)):
        level[x] = level[parents[x]] + 1
    return level


def subtree_sizes_from_parents(parents: Parents) -> list[int]:
    """Size of every vertex's subtree, itself included, from the parent array alone."""
    size = [1] * len(parents)
    for x in range(len(parents) - 1, 0, -1):
        size[parents[x]] += size[x]
    return size


def level_transmissions(parents: Parents) -> tuple[tuple[int, ...], ...]:
    """The transmissions of each level, in ascending label order.

    Derived from ``parents`` alone: the root's transmission is the sum
    of the depths, and crossing the edge into the subtree of x changes a
    transmission by order - 2 * size(x).
    """
    n = len(parents)
    size, level = subtree_sizes_from_parents(parents), levels_from_parents(parents)
    value = [sum(level)] * n
    grouped: list[list[int]] = [[value[0]]] + [[] for _ in range(max(level))]
    for x in range(1, n):
        value[x] = value[parents[x]] + n - 2 * size[x]
        grouped[level[x]].append(value[x])
    return tuple(map(tuple, grouped))


def level_path_sums(parents: Parents) -> tuple[tuple[int, ...], ...]:
    """The doubled path sums of each level, in ascending label order.

    Derived from ``parents`` alone: a vertex's path sum is its parent's
    plus its own subtree size, and the root's is 0.
    """
    n = len(parents)
    size, level = subtree_sizes_from_parents(parents), levels_from_parents(parents)
    value = [0] * n
    grouped: list[list[int]] = [[0]] + [[] for _ in range(max(level))]
    for x in range(1, n):
        value[x] = value[parents[x]] + 2 * size[x]
        grouped[level[x]].append(value[x])
    return tuple(map(tuple, grouped))


def wti_from_parents(parents: Parents) -> WTITree:
    """The tree with its level bitsets derived from ``parents`` alone.

    Bit q of level d is set iff a level-d vertex has doubled path sum q
    (``level_path_sums``), so a repeated value on a level leaves fewer
    bits than vertices there, and ``is_ti_tree`` then fails.
    """
    levels = tuple(reduce(or_, (1 << q for q in sums)) for sums in level_path_sums(parents))
    return WTITree(len(parents), parents, levels)


def get_max_degree(parents: Parents) -> tuple[int, int]:
    """(maximum vertex degree, number of root children) of a rooted tree."""
    child_count = [0] * len(parents)
    for x in range(1, len(parents)):
        child_count[parents[x]] += 1
    root_children = child_count[0]
    max_degree = root_children
    for v in range(1, len(parents)):
        degree = child_count[v] + 1
        if degree > max_degree:
            max_degree = degree
    return max_degree, root_children


def level_sets(tree: WTITree) -> list[set[int]]:
    """The doubled path sums of each level, read off the level bitsets."""
    return [{t for t in range(bits.bit_length()) if bits >> t & 1} for bits in tree.levels]


def is_ti_tree(tree: WTITree) -> bool:
    """True iff the tree is a canonical TI form.

    Requires all transmissions to be pairwise distinct, with the unique
    minimum at the root.  Shifting level d up by n * (D - d), D the
    depth, puts a vertex with doubled path sum q at bit n * D less its
    excess n * d - q over the root.  A WTI level has as many bits as
    vertices, so the union has n bits iff the values are distinct, and
    no bit above the root's, n * D, iff the root is the minimum.
    """
    n, depth = tree.order, len(tree.levels) - 1
    union = reduce(or_, (bits << n * (depth - d) for d, bits in enumerate(tree.levels)))
    return union.bit_count() == n and union >> n * depth == 1


def validate_wti_tree(tree: WTITree) -> None:
    """Check every structural invariant, raising ValueError on a violation.

    The generator never produces trees that fail these checks.
    """
    n = tree.order
    if n < 1:
        raise ValueError("order must be positive")
    if len(tree.parents) != n:
        raise ValueError("parent array length differs from order")

    for x in range(1, n):
        if not 0 <= tree.parents[x] < x:
            raise ValueError(f"parent of {x} must precede it, got {tree.parents[x]}")

    # Level populations derived from the parent array must match the bit
    # counts: a level with fewer bits than vertices repeats a value.
    level_of = [0] * n
    for x in range(1, n):
        level_of[x] = level_of[tree.parents[x]] + 1
    if len(tree.levels) != max(level_of) + 1:
        raise ValueError("level count differs from the parent-array depth + 1")
    for i, bits in enumerate(tree.levels):
        if level_of.count(i) != bits.bit_count():
            raise ValueError(f"level {i} holds {bits.bit_count()} values for {level_of.count(i)} vertices")

    # A level-l path sum adds l strictly decreasing subtree sizes below n.
    for l, bits in enumerate(tree.levels):
        low, high = l * (l + 1), 2 * l * n - l * (l + 1)
        if bits & ((1 << low) - 1) or bits >> (high + 1):
            raise ValueError(f"level {l} holds a doubled path sum outside {low}..{high}")
    derived = [set(values) for values in level_path_sums(tree.parents)]
    if level_sets(tree) != derived:
        raise ValueError("level bitsets differ from the path sums of the parent array")

    # Children of every vertex, taken in label order, must have strictly
    # increasing subtree orders.
    subtree = [1] * n
    for x in range(n - 1, 0, -1):
        subtree[tree.parents[x]] += subtree[x]
    children: list[list[int]] = [[] for _ in range(n)]
    for x in range(1, n):
        children[tree.parents[x]].append(x)
    for v in range(n):
        sizes = [subtree[c] for c in children[v]]
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"children of {v} do not have increasing subtree orders")


# ----------------------------------------------------------------------
# The oracle's second enumeration paths
# ----------------------------------------------------------------------


def enumerate_rooted_trees(n: int) -> Iterator[Parents]:
    """Yield every rooted tree of order n once, rooted at vertex 0."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUMERATION_ORDER}, got {n}")
    layout: list[int] | None = list(range(n))
    while layout is not None:
        yield _tree_from_levels(layout)
        layout = _next_rooted_sequence(layout)


def prufer_to_edges(code: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a Prufer sequence into the edge list of a labeled tree.

    A sequence of length n-2 over {0..n-1} yields a tree on n vertices;
    the empty sequence yields the single edge on two vertices.
    """
    n = len(code) + 2
    degree = [1] * n
    for x in code:
        degree[x] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in code:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges
