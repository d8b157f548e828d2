"""The list-based WTI join, TI test and offset mask, kept as a reference.

These are the seed kernels that ``titrees.wti`` and ``titrees.generation``
replaced with one int bitset per level.  A reference tree holds a parent
array and one tuple of transmission values per level, grouped by child
in join order, and every step works on those values one by one: slow,
but plainly the arithmetic of the package docstrings.  The tests compare
the bitset kernels against these join by join, and ``reference_scan.py``
and ``reference_generate`` in ``test_generation.py`` run on them alone,
so the reference paths share no arithmetic with the bitset kernels.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from titrees.enumeration import generate_increasing


class ListTree(NamedTuple):
    """A WTI tree as the seed kernels stored it."""

    order: int
    parents: tuple[int, ...]
    level_transmissions: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.level_transmissions) - 1

    @property
    def root_transmission(self) -> int:
        return self.level_transmissions[0][0]


LIST_SINGLE_VERTEX = ListTree(1, (0,), ((0,),))


def reference_join(children: Sequence[ListTree]) -> ListTree | None:
    """Join under a new root with per-vertex arithmetic; None if not WTI."""
    if any(a.order >= b.order for a, b in zip(children, children[1:])):
        raise ValueError("children must have strictly increasing orders")
    order = 1 + sum(c.order for c in children)
    depth = 1 + max(c.depth for c in children)
    # The new root sees every other vertex one step farther than the
    # child roots do.
    root_value = sum(c.root_transmission for c in children) + order - 1

    levels: list[list[int]] = [[root_value]]
    levels.extend([] for _ in range(depth))
    for child in children:
        # Stepping from the root into a subtree of size c moves the walker
        # closer to c vertices and farther from the other order - c.
        entry = root_value + order - 2 * child.order
        delta = entry - child.root_transmission
        levels[1].append(entry)
        for lvl in range(1, child.depth + 1):
            shift = delta + (order - child.order) * lvl
            levels[lvl + 1].extend(t + shift for t in child.level_transmissions[lvl])

    for values in levels:
        if len(set(values)) != len(values):
            return None

    parents = [0] * order
    offset = 1
    for child in children:
        for x in range(1, child.order):
            parents[offset + x] = child.parents[x] + offset
        offset += child.order

    return ListTree(order, tuple(parents), tuple(tuple(v) for v in levels))


def reference_is_ti_tree(tree: ListTree) -> bool:
    """All transmissions pairwise distinct, with the minimum at the root."""
    root_value = tree.level_transmissions[0][0]
    seen: set[int] = set()
    for values in tree.level_transmissions:
        for t in values:
            if t < root_value or t in seen:
                return False
            seen.add(t)
    return True


def reference_offset_mask(tree: ListTree, joined_order: int) -> int | None:
    """The offset mask of ``reference_scan._offset_mask``, value by value."""
    c = tree.order
    base = joined_order - 2 * c - tree.root_transmission
    step = joined_order - c
    mask = 0
    for level, values in enumerate(tree.level_transmissions):
        shift = base + step * level
        for t in values:
            offset = t + shift
            if offset <= 0:
                return None
            mask |= 1 << offset
    if mask.bit_count() != c:
        return None
    return mask


def reference_pool(n: int, h: int) -> list[list[ListTree]]:
    """``generate_wti_trees(n, h)`` built with the reference join."""
    pool: list[list[ListTree]] = [[] for _ in range(n + 1)]
    pool[1].append(LIST_SINGLE_VERTEX)
    for k in range(2, n + 1):
        for seq in generate_increasing(k - 1, k - 1, h):
            for children in itertools.product(*(pool[s] for s in seq)):
                tree = reference_join(children)
                if tree is not None:
                    pool[k].append(tree)
    return pool
