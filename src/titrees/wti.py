"""Weakly transmission irregular (WTI) rooted trees and the join step.

An ordered rooted tree is WTI when any two vertices on the same level
have different transmissions (a vertex's transmission is its hop-count
sum to all other vertices).  Trees are represented compactly: a parent
array plus one list of transmission values per level.  New trees are
built exclusively by joining smaller WTI trees under a fresh root, and
the transmission lists of the result are derived from the children's
lists with O(1) arithmetic per vertex instead of fresh distance sweeps:

* the new root's transmission is the sum of the children's root
  transmissions plus one for each of the n - 1 other vertices;
* crossing the edge from the root to a child subtree of size c changes
  a transmission by n - 2c;
* every vertex deeper inside a child shifts by the same root delta plus
  (n - c) times its level within the child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "WTITree",
    "SINGLE_VERTEX",
    "root_transmission_of_join",
    "child_transmission_step",
    "lift_level",
    "join_wti_trees",
]


@dataclass(frozen=True, slots=True)
class WTITree:
    """Immutable ordered rooted tree with per-level transmission lists.

    Vertices are labeled 0..order-1 with the root labeled 0 and every
    child labeled after its parent, so ``parents[x] < x`` for x >= 1
    (``parents[0]`` is an unused sentinel).  ``level_transmissions[i]``
    holds the transmissions of the level-i vertices, grouped by child
    in join order.  Instances are safe to share across threads and
    processes.
    """

    order: int
    depth: int
    parents: tuple[int, ...]
    level_transmissions: tuple[tuple[int, ...], ...]

    @property
    def root_transmission(self) -> int:
        return self.level_transmissions[0][0]


SINGLE_VERTEX = WTITree(order=1, depth=0, parents=(0,), level_transmissions=((0,),))


def root_transmission_of_join(child_root_transmissions: Sequence[int], joined_order: int) -> int:
    """Transmission of a fresh root placed above the given child trees."""
    return sum(child_root_transmissions) + joined_order - 1


def child_transmission_step(root_transmission: int, joined_order: int, child_subtree_order: int) -> int:
    """Transmission of a root's child, given the root's, in the joined tree.

    Stepping across an edge toward a subtree with ``child_subtree_order``
    vertices moves the walker closer to those vertices and farther from
    the remaining ``joined_order - child_subtree_order``.
    """
    return root_transmission + joined_order - 2 * child_subtree_order


def lift_level(
    child_level_values: Sequence[int],
    delta_root: int,
    joined_order: int,
    child_order: int,
    level_in_child: int,
) -> list[int]:
    """Map a child's within-child transmissions to joined-tree values.

    ``delta_root`` is the change the child's own root experienced when
    the trees were joined; a vertex ``level_in_child`` edges below it
    additionally gains that many steps against the vertices outside the
    child.  Order is preserved.
    """
    shift = delta_root + (joined_order - child_order) * level_in_child
    return [t + shift for t in child_level_values]


def join_wti_trees(children: Sequence[WTITree]) -> WTITree | None:
    """Join WTI trees under a new root; None if the result is not WTI.

    Children must have strictly increasing orders; ValueError otherwise.
    The result's root is labeled 0 and the vertices of child i keep their
    relative order, offset by 1 plus the orders of the earlier children.
    Returns None exactly when some level of the combined tree would
    contain a duplicated transmission value.
    """
    if any(a.order >= b.order for a, b in zip(children, children[1:])):
        raise ValueError("children must have strictly increasing orders")
    order = 1 + sum(c.order for c in children)
    depth = 1 + max(c.depth for c in children)
    root_value = root_transmission_of_join([c.root_transmission for c in children], order)

    levels: list[list[int]] = [[root_value]]
    levels.extend([] for _ in range(depth))
    for child in children:
        entry = child_transmission_step(root_value, order, child.order)
        delta = entry - child.root_transmission
        levels[1].append(entry)
        for lvl in range(1, child.depth + 1):
            levels[lvl + 1].extend(
                lift_level(child.level_transmissions[lvl], delta, order, child.order, lvl)
            )

    for values in levels:
        if len(set(values)) != len(values):
            return None

    parents = [0] * order
    offset = 1
    for child in children:
        for x in range(1, child.order):
            parents[offset + x] = child.parents[x] + offset
        offset += child.order

    return WTITree(order, depth, tuple(parents), tuple(tuple(v) for v in levels))

