"""The seed phase-2 scan, kept as the reference for the bit-sliced kernel.

One Python ``used & mask`` test per pool tree per scan node: slow, but
plainly the pairwise-disjointness test the offset masks stand for.
``tests/test_generation.py`` compares ``titrees.generation`` against it
per (order, sequence) over counts, degree caps and emission order.  It
scans pools of list-based trees with the list-based masks, join and TI
test of ``reference_join.py``, not the package's bitset kernels.
"""

from __future__ import annotations

from typing import Callable, Sequence

from reference_join import (
    ListTree,
    reference_is_ti_tree,
    reference_join,
    reference_offset_mask,
)
from titrees.enumeration import IncreasingSequence


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
    func: Callable[[ListTree], None] | None,
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
                        joined = reference_join(chosen)
                        assert joined is not None and reference_is_ti_tree(joined)
                        func(joined)
            else:
                for mask, tree in pools[i]:
                    if used & mask:
                        continue
                    chosen[i] = tree
                    walk(i + 1, used | mask)

        walk(0, 0)
    return count
