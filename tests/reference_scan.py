"""The seed phase-2 scan and the per-order slicing, kept as references.

``_scan_products`` is the seed kernel: one Python ``used & mask`` test
per pool tree per scan node, slow, but plainly the pairwise-disjointness
test the offset masks stand for.  ``tests/test_generation.py`` compares
``titrees.generation`` against it per (order, sequence) over counts,
degree caps and emission order.  It scans pools of list-based trees with
the list-based masks, join and TI test of ``reference_join.py``, not the
package's bitset kernels.

``_sliced_pool`` is the per-tree transposition that the package's key
tables replaced: one offset mask per pool tree (``_offset_mask``, checked
against the list-based mask in ``test_reference_join.py``) for every
joined order, its bits ORed into the columns one by one.  The tests
compare the columns and valid trees of ``titrees.generation._order_pool``
with it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, NamedTuple, Sequence

from reference_join import (
    ListTree,
    reference_is_ti_tree,
    reference_join,
    reference_offset_mask,
)
from support import level_transmissions
from titrees.enumeration import IncreasingSequence
from titrees.wti import WTITree


def _offset_mask(tree: WTITree, joined_order: int) -> int | None:
    """Bitmask of root-relative transmissions of ``tree`` under a join.

    When a pool tree of order c becomes a root subtree in a joined tree
    of order ``joined_order``, the transmission of its level-l vertex
    with within-tree value t exceeds the new root's transmission by

        t - root_transmission + (joined_order - 2c) + (joined_order - c) * l

    independently of the sibling subtrees.  Bit o of the mask is set for
    each such offset o, so the mask is the OR of the levels' transmission
    bitsets, each shifted by the offset of its level's value 0.  Returns
    None when the tree can never take part in a TI join of this order:
    some offset is <= 0 (a vertex would tie or undercut the root) or two
    of its own vertices always collide.

    The transmissions come from ``support.level_transmissions``, which
    derives them from ``parents`` alone, not from the package's level
    bitsets, so this reference does not share the representation it
    checks.
    """
    c = tree.order
    levels = level_transmissions(tree.parents)
    shift = joined_order - 2 * c - levels[0][0]
    step = joined_order - c
    mask = 0
    for values in levels:
        bits = reduce(or_, (1 << t for t in values))
        if shift > 0:
            mask |= bits << shift
        elif bits & ((2 << -shift) - 1):  # a value t <= -shift
            return None
        else:
            mask |= bits >> -shift
        shift += step
    if mask.bit_count() != c:
        return None
    return mask


class SlicedPool(NamedTuple):
    """The trees of one pool with a mask for one joined order, transposed.

    ``trees`` keeps pool order and ``offsets[j]`` lists the set bits of
    the mask of ``trees[j]``.  ``columns[b]`` has bit j set iff that mask
    has bit b; it has one entry per possible offset, all below k * k for
    joined order k (a vertex at level l < c of a tree of order c < k/2
    has offset at most k - 2c + l(k - 2)).  ``full`` has a bit per tree.
    """

    trees: list[WTITree]
    offsets: list[list[int]]
    columns: list[int]
    full: int


def _sliced_pool(trees: Sequence[WTITree], joined_order: int) -> SlicedPool:
    """Keep the trees with an offset mask and transpose their masks."""
    kept: list[WTITree] = []
    offsets: list[list[int]] = []
    columns = [0] * (joined_order * joined_order)
    for tree in trees:
        mask = _offset_mask(tree, joined_order)
        if mask is None:
            continue
        index_bit = 1 << len(kept)
        bits = []
        while mask:
            low = mask & -mask
            b = low.bit_length() - 1
            bits.append(b)
            columns[b] |= index_bit
            mask ^= low
        kept.append(tree)
        offsets.append(bits)
    return SlicedPool(kept, offsets, columns, (1 << len(kept)) - 1)


MaskedPool = list[tuple[int, ListTree]]


def _masked_collection(trees: Sequence[ListTree], joined_order: int) -> MaskedPool:
    out: MaskedPool = []
    for tree in trees:
        mask = reference_offset_mask(tree, joined_order)
        if mask is not None:
            out.append((mask, tree))
    return out


def _scan_products(
    k: int,
    sequences: Sequence[IncreasingSequence],
    masked: dict[int, MaskedPool],
    func: Callable[[tuple[int, ...]], None] | None,
) -> int:
    """Count (and optionally emit, as parent tuples) the TI joins of order k.

    Candidates are scanned in sequence order, then in mixed-radix tuple
    order with the last coordinate varying fastest, skipping every branch
    whose partial union of masks already collides.
    """
    count = 0
    for seq in sequences:
        pools = [masked[s] for s in seq]
        if not all(pools):
            continue
        last = len(pools) - 1
        chosen = [None] * len(pools)

        def walk(i: int, used: int) -> None:
            nonlocal count
            if i == last:
                for mask, tree in pools[i]:
                    if used & mask:
                        continue
                    count += 1
                    if func is not None:
                        chosen[i] = tree
                        joined = reference_join(chosen)
                        assert joined is not None and reference_is_ti_tree(joined)
                        func(joined.parents)
            else:
                for mask, tree in pools[i]:
                    if used & mask:
                        continue
                    chosen[i] = tree
                    walk(i + 1, used | mask)

        walk(0, 0)
    return count
