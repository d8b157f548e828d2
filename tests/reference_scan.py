"""The seed phase-2 scan, kept as the reference for the bit-sliced kernel.

One Python ``used & mask`` test per pool tree per scan node: slow, but
plainly the pairwise-disjointness test the offset masks stand for.
``tests/test_generation.py`` compares ``titrees.generation`` against it
per (order, sequence) over counts, degree caps and emission order.
"""

from __future__ import annotations

from typing import Sequence

from titrees.enumeration import IncreasingSequence
from titrees.generation import TreeCallback, _offset_mask, is_ti_tree
from titrees.wti import WTITree, join_wti_trees


MaskedPool = list[tuple[int, WTITree]]


def _masked_collection(trees: Sequence[WTITree], joined_order: int) -> MaskedPool:
    out: MaskedPool = []
    for tree in trees:
        mask = _offset_mask(tree, joined_order)
        if mask is not None:
            out.append((mask, tree))
    return out


def _scan_products(
    k: int,
    sequences: Sequence[IncreasingSequence],
    masked: dict[int, MaskedPool],
    func: TreeCallback | None,
) -> int:
    """Count (and optionally emit) the TI joins of order k.

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
                        joined = join_wti_trees(chosen)
                        assert joined is not None and is_ti_tree(joined)
                        func(joined)
            else:
                for mask, tree in pools[i]:
                    if used & mask:
                        continue
                    chosen[i] = tree
                    walk(i + 1, used | mask)

        walk(0, 0)
    return count
