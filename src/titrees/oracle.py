"""Brute-force reference machinery for cross-checking the generator.

Everything in this module works on plain adjacency lists: free trees are
enumerated by the classical level-sequence successor scheme, transmissions
are computed by one breadth-first search per vertex, and isomorphism is
decided through canonical encodings of the tree rooted at its
minimum-transmission vertices, one or two adjacent ones.  None of the
path-sum arithmetic used by the generator appears here,
which is what makes agreement between the two paths meaningful evidence.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "AdjacencyTree",
    "MAX_ENUMERATION_ORDER",
    "enumerate_free_trees",
    "transmissions_bfs",
    "is_ti_graph",
    "canonical_form",
]

# Free-tree counts grow like 2.96^n; beyond this order a single call would
# run for hours, which is never what a verification pass wants.
MAX_ENUMERATION_ORDER = 22


class AdjacencyTree(NamedTuple):
    """Unrooted tree on labels 0..order-1 stored as adjacency lists: an
    immutable named tuple ``(order, adjacency)`` that indexes, unpacks and
    compares like a tuple."""

    order: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, order: int, edges: Sequence[tuple[int, int]]) -> "AdjacencyTree":
        """Build a tree from an edge list, validating that it is one."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(edges) != order - 1:
            raise ValueError(f"a tree on {order} vertices needs {order - 1} edges, got {len(edges)}")
        neighbors: list[list[int]] = [[] for _ in range(order)]
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            neighbors[u].append(v)
            neighbors[v].append(u)
        tree = cls(order, tuple(tuple(ns) for ns in neighbors))
        if -1 in _distances(tree.adjacency, order, 0):
            raise ValueError("edge list is not connected")
        return tree


# ----------------------------------------------------------------------
# Enumeration by level sequences
# ----------------------------------------------------------------------
#
# A rooted tree on n vertices is stored as the sequence of vertex levels
# in preorder, root first (level 0).  The canonical sequence of a rooted
# isomorphism class is the lexicographically largest one, and the
# Beyer-Hedetniemi successor steps through all canonical sequences in
# decreasing order starting from the path.  Free trees are the subset of
# rooted sequences singled out by the Wright-Richmond-Odlyzko-McKay
# conditions on the first root subtree, with a jump rule that skips the
# rooted sequences sharing a rejected prefix.


def _next_rooted_sequence(seq: list[int], p: int | None = None) -> list[int] | None:
    """Successor of a canonical rooted level sequence, or None at the star."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_first_subtree(seq: list[int]) -> tuple[list[int], list[int]]:
    """Split into (first root subtree re-rooted, remainder including root)."""
    m = len(seq)
    ones = 0
    for i, level in enumerate(seq):
        if level == 1:
            ones += 1
            if ones == 2:
                m = i
                break
    left = [seq[i] - 1 for i in range(1, m)]
    rest = [0] + seq[m:]
    return left, rest


def _advance_free(seq: list[int]) -> list[int] | None:
    """Return seq if it encodes a free tree, else jump to the next one."""
    left, rest = _split_first_subtree(seq)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return seq
    p = len(left)
    succ = _next_rooted_sequence(seq, p)
    if seq[p] > 2:
        new_left, _ = _split_first_subtree(succ)
        suffix = list(range(1, max(new_left) + 2))
        succ[-len(suffix):] = suffix
    return succ


def _tree_from_levels(seq: list[int]) -> AdjacencyTree:
    n = len(seq)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    last_at_level = [0] * n
    for v in range(1, n):
        parent = last_at_level[seq[v] - 1]
        neighbors[parent].append(v)
        neighbors[v].append(parent)
        last_at_level[seq[v]] = v
    return AdjacencyTree(n, tuple(tuple(ns) for ns in neighbors))


def enumerate_free_trees(n: int, emit: Callable[[AdjacencyTree], None]) -> None:
    """Emit every free tree of order n exactly once up to isomorphism."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUMERATION_ORDER}, got {n}")
    if n == 1:
        emit(AdjacencyTree(1, ((),)))
        return
    # Start from the path rooted at its center, the largest valid sequence.
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _advance_free(layout)
        if layout is not None:
            emit(_tree_from_levels(layout))
            layout = _next_rooted_sequence(layout)


# ----------------------------------------------------------------------
# Transmissions and canonical forms
# ----------------------------------------------------------------------


def _distances(adjacency: Sequence[Sequence[int]], n: int, source: int) -> list[int]:
    """Breadth-first distances from ``source``; -1 for unreachable vertices."""
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def transmissions_bfs(tree: AdjacencyTree) -> list[int]:
    """Transmission of every vertex, one breadth-first search per vertex."""
    return [sum(_distances(tree.adjacency, tree.order, v)) for v in range(tree.order)]


def is_ti_graph(tree: AdjacencyTree) -> bool:
    """True iff all vertex transmissions are pairwise distinct."""
    seen = set()
    for v in range(tree.order):
        t = sum(_distances(tree.adjacency, tree.order, v))
        if t in seen:
            return False
        seen.add(t)
    return True


def _rooted_encoding(tree: AdjacencyTree, root: int) -> bytes:
    """Parenthesized encoding with children sorted by (subtree size, encoding)."""

    def encode(v: int, parent: int) -> bytes:
        subs = sorted(
            (encode(w, v) for w in tree.adjacency[v] if w != parent),
            key=lambda e: (len(e), e),
        )
        return b"(" + b"".join(subs) + b")"

    return encode(root, -1)


def canonical_form(tree: AdjacencyTree) -> bytes:
    """Byte string equal for two trees iff they are isomorphic.

    The tree is encoded rooted at its minimum-transmission vertices, one
    or two adjacent ones, taking the smaller encoding when there are two.
    In a tree these vertices are exactly the centroid (Zelinka, 1968):
    for an edge vw, T(w) - T(v) = n - 2 * |w's side|.
    """
    tr = transmissions_bfs(tree)
    low = min(tr)
    return min(_rooted_encoding(tree, v) for v in range(tree.order) if tr[v] == low)
