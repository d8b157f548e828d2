"""Sequence generators and the bottom-up WTI tree pool.

The pool builder assembles all WTI trees of order k from the trees of
smaller orders: every multiset of child orders is a strictly increasing
sequence summing to k - 1 (children of one vertex must have distinct
subtree orders), and every way of picking concrete child trees is a
cartesian product over the already-built collections.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .wti import SINGLE_VERTEX, WTITree, join_wti_trees

__all__ = [
    "IncreasingSequence",
    "WTIPool",
    "generate_increasing",
    "generate_wti_trees",
]

# A strictly increasing tuple of positive integers.
IncreasingSequence = tuple[int, ...]

# Collections of WTI trees indexed by order; entry 0 is an unused placeholder.
WTIPool = list[list[WTITree]]


def generate_increasing(alpha: int, beta: int, gamma: int) -> Iterator[IncreasingSequence]:
    """Every strictly increasing positive sequence summing to alpha.

    Qualifying sequences (s_1 < s_2 < ... < s_q) satisfy sum(s) == alpha,
    s_q <= beta and q <= gamma; they are yielded in lexicographic order.
    Yields nothing when no sequence qualifies.
    """
    if alpha < 1 or beta < 1 or gamma < 1:
        raise ValueError("alpha, beta and gamma must all be positive")

    def extend(remaining: int, minimum: int, slots: int) -> Iterator[IncreasingSequence]:
        if remaining == 0:
            yield ()
        elif slots:
            for s in range(minimum, min(beta, remaining) + 1):
                for rest in extend(remaining - s, s + 1, slots - 1):
                    yield (s, *rest)

    yield from extend(alpha, 1, gamma)


def generate_wti_trees(n: int, h: int, stats: dict | None = None) -> WTIPool:
    """Build all WTI trees of order <= n with at most h children per vertex.

    Returns a pool where entry k lists the order-k trees; entry 0 is an
    empty placeholder.  Collections are finalized in increasing order of
    k since each order only joins strictly smaller trees.  When ``stats``
    is given, the number of discarded (non-WTI) join attempts is added
    under the key ``"failed_joins"``.
    """
    if n < 1 or h < 1:
        raise ValueError("n and h must be positive")
    pool: WTIPool = [[] for _ in range(n + 1)]
    pool[1].append(SINGLE_VERTEX)
    failed = 0

    for k in range(2, n + 1):
        for seq in generate_increasing(k - 1, k - 1, h):
            for children in itertools.product(*(pool[s] for s in seq)):
                tree = join_wti_trees(children)
                if tree is not None:
                    pool[k].append(tree)
                else:
                    failed += 1

    if stats is not None:
        stats["failed_joins"] = stats.get("failed_joins", 0) + failed
    return pool
