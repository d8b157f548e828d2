"""Brute-force reference machinery for cross-checking the generator.

A tree here is its parent tuple, as the generator emits it: vertex 0 is
the root, ``parents[0] == 0`` and ``0 <= parents[x] < x`` for every other
vertex x.  Every such tuple is a tree, and the functions that take one
raise ValueError on any other.  Free trees are enumerated by the
classical level-sequence successor scheme, transmissions are computed by
one breadth-first search per vertex over neighbour lists rebuilt from
the tuple, and isomorphism is decided through canonical encodings of the
tree rooted at its center, the one or two adjacent vertices left by
peeling leaves.  None of the path-sum arithmetic used by the generator
appears here, which is what makes agreement between the two paths
meaningful evidence.
"""

from __future__ import annotations

from collections import deque
from itertools import cycle, islice
from typing import Iterator, Sequence

__all__ = [
    "MAX_ENUMERATION_ORDER",
    "enumerate_free_trees",
    "transmissions_bfs",
    "is_ti_graph",
    "canonical_form",
]

# Free-tree counts grow like 2.96^n; beyond this order a single call would
# run for hours, which is never what a verification pass wants.
MAX_ENUMERATION_ORDER = 22


def _adjacency(parents: Sequence[int]) -> list[list[int]]:
    """Neighbour lists of the tree with these parents, checked to be one."""
    if not parents or parents[0] != 0:
        raise ValueError(f"a parent tuple starts with 0, got {tuple(parents)!r}")
    neighbors: list[list[int]] = [[] for _ in parents]
    for x in range(1, len(parents)):
        parent = parents[x]
        if not 0 <= parent < x:
            raise ValueError(f"parents[{x}] must be in 0..{x - 1}, got {parent}")
        neighbors[parent].append(x)
        neighbors[x].append(parent)
    return neighbors


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
    out = seq[:p]
    out += islice(cycle(seq[q:p]), len(seq) - p)
    return out


def _split_first_subtree(seq: list[int]) -> tuple[list[int], list[int]]:
    """Split into (first root subtree re-rooted, remainder including root)."""
    try:
        m = seq.index(1, 2)
    except ValueError:  # the root has one child
        m = len(seq)
    left = [level - 1 for level in seq[1:m]]
    rest = [0] + seq[m:]
    return left, rest


def _advance_free(seq: list[int]) -> list[int] | None:
    """Return seq if it encodes a free tree, else jump to the next one."""
    left, rest = _split_first_subtree(seq)
    # The first subtree may not exceed the rest in height, then order, then sequence.
    if (max(left, default=0), len(left), left) <= (max(rest), len(rest), rest):
        return seq
    p = len(left)
    succ = _next_rooted_sequence(seq, p)
    if seq[p] > 2:
        new_left, _ = _split_first_subtree(succ)
        suffix = list(range(1, max(new_left) + 2))
        succ[-len(suffix):] = suffix
    return succ


def _tree_from_levels(seq: list[int]) -> tuple[int, ...]:
    """Parent tuple of a level sequence: each vertex hangs from the last
    earlier vertex one level up, so ``parents[v] < v``."""
    parents = [0] * len(seq)
    last_at_level = [0] * len(seq)
    for v in range(1, len(seq)):
        parents[v] = last_at_level[seq[v] - 1]
        last_at_level[seq[v]] = v
    return tuple(parents)


def enumerate_free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every free tree of order n exactly once up to isomorphism."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUMERATION_ORDER}, got {n}")
    # Start from the path rooted at its center, the largest valid sequence.
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _advance_free(layout)
        if layout is not None:
            yield _tree_from_levels(layout)
            layout = _next_rooted_sequence(layout)


# ----------------------------------------------------------------------
# Transmissions and canonical forms
# ----------------------------------------------------------------------


def _distances(adjacency: list[list[int]], source: int) -> list[int]:
    """Breadth-first distances from ``source``."""
    dist = [-1] * len(adjacency)
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


def transmissions_bfs(parents: Sequence[int]) -> list[int]:
    """Transmission of every vertex, one breadth-first search per vertex."""
    adjacency = _adjacency(parents)
    return [sum(_distances(adjacency, v)) for v in range(len(adjacency))]


def is_ti_graph(parents: Sequence[int]) -> bool:
    """True iff all vertex transmissions are pairwise distinct.

    Two leaves on one neighbour swap under an automorphism of the tree, so
    their transmissions tie, and such a tree is rejected with no search.
    Any other tree is searched vertex by vertex, leaves first, until two
    transmissions clash.
    """
    adjacency = _adjacency(parents)
    supports = [neighbors[0] for neighbors in adjacency if len(neighbors) == 1]
    if len(set(supports)) < len(supports):
        return False
    seen = set()
    # Leaves first: the two ends of a path, or of two equal legs, tie.
    for v in sorted(range(len(adjacency)), key=list(map(len, adjacency)).__getitem__):
        t = sum(_distances(adjacency, v))
        if t in seen:
            return False
        seen.add(t)
    return True


def canonical_form(parents: Sequence[int]) -> bytes:
    """Byte string equal for two trees iff they are isomorphic.

    Peeling all leaves at once, layer by layer, leaves the tree's center
    (Jordan, 1869), one vertex or two adjacent ones.  A vertex is encoded
    when peeled, as its peeled neighbours' encodings in byte order inside
    parentheses, for its one neighbour left.  The form is the center's
    encodings in byte order.  Each encoding is one balanced group of
    parentheses, so a form shows how many centers it was made from.
    """
    adjacency = _adjacency(parents)
    below: list[list[bytes]] = [[] for _ in adjacency]
    leaves = [v for v, neighbors in enumerate(adjacency) if len(neighbors) < 2]
    remaining = len(adjacency)
    while remaining > 2:
        remaining -= len(leaves)
        inner = []
        for v in leaves:
            (w,) = adjacency[v]
            adjacency[w].remove(v)
            below[w].append(b"(" + b"".join(sorted(below[v])) + b")")
            if len(adjacency[w]) == 1:
                inner.append(w)
        leaves = inner
    return b"".join(sorted(b"(" + b"".join(sorted(below[v])) + b")" for v in leaves))
