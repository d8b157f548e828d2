"""Weakly transmission irregular (WTI) rooted trees and the join step.

An ordered rooted tree is WTI when any two vertices on the same level
have different transmissions (a vertex's transmission is its hop-count
sum to all other vertices).  Trees are represented compactly: a parent
array plus one int bitset per level of doubled path sums.  The path sum
P(v) of a vertex v is the sum of the subtree sizes on the path from the
root to v, the root's own excluded.  Crossing the edge into a subtree
of size s changes a transmission by n - 2s (Zelinka 1968), so a vertex
at depth d of a tree of order n has

    T(v) = T(root) + n * d - 2 * P(v),

and on one level transmissions differ exactly when path sums do.  New
trees are built exclusively by joining smaller WTI trees under a fresh
root.  A path sum does not depend on the tree a subtree is joined into:
under the new root, each vertex of a child of order c gains c, so every
level of that child shifts by the same 2c.  A join is one big-int shift
per child level, an AND to test for a repeated value and an OR.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = [
    "WTITree",
    "SINGLE_VERTEX",
    "join_wti_trees",
]


class WTITree(NamedTuple):
    """Immutable ordered rooted tree with one path-sum bitset per level.

    A named tuple ``(order, parents, levels)`` that indexes, unpacks and
    compares like a tuple.  Vertices are labeled 0..order-1 with the root
    labeled 0 and every child labeled after its parent, so
    ``parents[x] < x`` for x >= 1 (``parents[0]`` is an unused sentinel).
    Bit q of ``levels[i]`` is set iff some level-i vertex has doubled
    path sum q, so ``levels[0]`` is 1; a WTI level has as many bits as
    vertices.  Instances are safe to share across threads and processes.
    """

    order: int
    parents: tuple[int, ...]
    levels: tuple[int, ...]


SINGLE_VERTEX = WTITree(order=1, parents=(0,), levels=(1,))


def join_wti_trees(children: Sequence[WTITree]) -> WTITree | None:
    """Join WTI trees under a new root; None if the result is not WTI.

    Children must have strictly increasing orders; ValueError otherwise.
    The result's root is labeled 0 and the vertices of child i keep their
    relative order, offset by 1 plus the orders of the earlier children.
    Returns None exactly when some level of the combined tree would
    contain a duplicated transmission value.
    """
    previous = 0
    for child in children:
        if child.order <= previous:
            raise ValueError("children must have strictly increasing orders")
        previous = child.order
    levels = [1]
    parents = [0]
    for child in children:
        shift = 2 * child.order
        for lvl, bits in enumerate(child.levels, 1):
            bits <<= shift
            if lvl == len(levels):
                levels.append(bits)
            elif levels[lvl] & bits:
                return None
            else:
                levels[lvl] |= bits
        # The child's segment, relabeled; its root hangs off the new root.
        offset = len(parents)
        parents += map(offset.__add__, child.parents)
        parents[offset] = 0
    return WTITree(len(parents), tuple(parents), tuple(levels))
