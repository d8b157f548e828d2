"""Weakly transmission irregular (WTI) rooted trees and the join step.

An ordered rooted tree is WTI when any two vertices on the same level
have different transmissions (a vertex's transmission is its hop-count
sum to all other vertices).  Trees are represented compactly: a parent
array plus one int bitset per level, with bit t set when some vertex of
that level has transmission t.  New trees are built exclusively by
joining smaller WTI trees under a fresh root, and the levels of the
result are derived from the children's levels without distance sweeps:

* the new root's transmission R is the sum of the children's root
  transmissions plus one for each of the n - 1 other vertices;
* crossing the edge from the root to a child subtree of size c changes
  a transmission by n - 2c;
* every vertex deeper inside a child shifts by the same root delta plus
  (n - c) times its level within the child.

So all vertices of one level of a child of order c and root
transmission rt shift by the same amount, R + n - 2c - rt + (n - c) * l
at level l, which is always positive: a join is one big-int shift per
child level, an AND to test for a repeated value and an OR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "WTITree",
    "SINGLE_VERTEX",
    "join_wti_trees",
]


@dataclass(frozen=True, slots=True)
class WTITree:
    """Immutable ordered rooted tree with one transmission bitset per level.

    Vertices are labeled 0..order-1 with the root labeled 0 and every
    child labeled after its parent, so ``parents[x] < x`` for x >= 1
    (``parents[0]`` is an unused sentinel).  Bit t of ``levels[i]`` is
    set iff some level-i vertex has transmission t; a WTI level has as
    many bits as vertices.  Instances are safe to share across threads
    and processes.
    """

    order: int
    parents: tuple[int, ...]
    levels: tuple[int, ...]

    @property
    def root_transmission(self) -> int:
        return self.levels[0].bit_length() - 1


SINGLE_VERTEX = WTITree(order=1, parents=(0,), levels=(1,))


def join_wti_trees(children: Sequence[WTITree]) -> WTITree | None:
    """Join WTI trees under a new root; None if the result is not WTI.

    Children must have strictly increasing orders; ValueError otherwise.
    The result's root is labeled 0 and the vertices of child i keep their
    relative order, offset by 1 plus the orders of the earlier children.
    Returns None exactly when some level of the combined tree would
    contain a duplicated transmission value.
    """
    order = 1
    root_value = 0
    previous = 0
    for child in children:
        if child.order <= previous:
            raise ValueError("children must have strictly increasing orders")
        previous = child.order
        order += previous
        root_value += child.root_transmission
    root_value += order - 1
    levels = [1 << root_value]
    parents = [0]
    for child in children:
        c = child.order
        shift = root_value + order - 2 * c - child.root_transmission
        step = order - c
        for lvl, bits in enumerate(child.levels, 1):
            bits <<= shift
            if lvl == len(levels):
                levels.append(bits)
            elif levels[lvl] & bits:
                return None
            else:
                levels[lvl] |= bits
            shift += step
        # The child's segment, relabeled; its root hangs off the new root.
        offset = len(parents)
        parents += map(offset.__add__, child.parents)
        parents[offset] = 0
    return WTITree(order, tuple(parents), tuple(levels))
