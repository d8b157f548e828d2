"""Generation of transmission irregular (TI) trees from a WTI pool.

A tree is TI when all of its vertices have pairwise distinct
transmissions.  Every TI tree has a canonical rooted form: root at the
unique minimum-transmission vertex, children ordered by increasing
subtree order.  For order k the root's subtrees all have fewer than k/2
vertices, so phase 1 only builds the WTI pool of the orders below half
the target, the components.  Phase 2 constructs the canonical forms of
every order from 3 up directly: each admissible multiset of root-subtree
orders is an increasing sequence over which a cartesian product of
component pools is scanned.  The single vertex, the only TI tree of
order below 3, is reported before the scan.

The phase-2 scan never materializes failing joins.  For a fixed joined
order k, the transmission of any vertex of a candidate differs from the
new root's transmission by an offset that depends only on the subtree
containing it, so each pool tree gets a bitmask of offsets and a
candidate is TI exactly when the chosen masks are pairwise disjoint.

The disjointness test is bit-sliced, as in the vertical bitsets of
bit-parallel clique search (San Segundo, Rodriguez-Losada and Jimenez,
Computers & OR 38, 2011).  Each pool is transposed once per joined
order: column b is an int bitset over pool indices whose mask has bit b.
Choosing a tree ORs the columns of its offsets into a "forbidden" bitset
of every later coordinate, so the trees still allowed at a coordinate
are one big-int AND-NOT away, and the last coordinate is counted with
``bit_count()`` instead of being tested tree by tree.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .enumeration import IncreasingSequence, WTIPool, generate_increasing, generate_wti_trees
from .wti import SINGLE_VERTEX, WTITree, join_wti_trees

__all__ = [
    "TICensus",
    "is_ti_tree",
    "generate_ti_trees",
]

TreeCallback = Callable[[WTITree], None]

# One phase-2 task: a joined order and its root-subtree order sequence.
Task = tuple[int, IncreasingSequence]


@dataclass
class TICensus:
    """Per-order counts of emitted TI trees for orders 1..n_max."""

    counts: list[int] = field(default_factory=lambda: [0])

    @classmethod
    def zeros(cls, n_max: int) -> "TICensus":
        return cls([0] * (n_max + 1))

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, order: int) -> int:
        return self.counts[order]

    def items(self) -> Iterable[tuple[int, int]]:
        return ((k, self.counts[k]) for k in range(1, len(self.counts)))

    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self) -> dict[int, int]:
        return dict(self.items())


def is_ti_tree(tree: WTITree) -> bool:
    """True iff the tree is a canonical TI form.

    Requires all transmissions across all levels to be pairwise distinct
    with the unique minimum sitting at the root.  The levels of a WTI
    tree hold as many bits as vertices, so the values are distinct
    exactly when their union has ``order`` bits.
    """
    union = reduce(or_, tree.levels)
    return union.bit_count() == tree.order and union & -union == tree.levels[0]


# ----------------------------------------------------------------------
# Phase-2 offset masks
# ----------------------------------------------------------------------


def _offset_mask(tree: WTITree, joined_order: int) -> int | None:
    """Bitmask of root-relative transmissions of ``tree`` under a join.

    When a pool tree of order c becomes a root subtree in a joined tree
    of order ``joined_order``, the transmission of its level-l vertex
    with within-tree value t exceeds the new root's transmission by

        t - root_transmission + (joined_order - 2c) + (joined_order - c) * l

    independently of the sibling subtrees.  Bit o of the mask is set for
    each such offset o, so the mask is the OR of the level bitsets, each
    shifted by the offset of its level's value 0.  Returns None when the
    tree can never take part in a TI join of this order: some offset is
    <= 0 (a vertex would tie or undercut the root) or two of its own
    vertices always collide.
    """
    c = tree.order
    shift = joined_order - 2 * c - tree.root_transmission
    step = joined_order - c
    mask = 0
    for bits in tree.levels:
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


def _set_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of ``x``, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _scan_sequence(k: int, pools: Sequence[SlicedPool], func: TreeCallback | None) -> int:
    """Count (and optionally emit) the TI joins of order k over one sequence.

    ``pools`` holds the sliced pool of each part of the sequence.
    Candidates are scanned in mixed-radix tuple order with the last
    coordinate varying fastest.  The walk carries one forbidden bitset
    per coordinate not yet chosen: choosing tree j ORs ``columns[b]`` of
    each later pool into that pool's forbidden set, for every offset b of
    tree j, so a tree is reachable exactly when its mask is disjoint from
    the masks chosen before it.  The last coordinate of a counting run
    costs one ``bit_count()``; emission walks the allowed indices in
    increasing order, so trees arrive in pool order.
    """
    if not all(pool.full for pool in pools):
        return 0
    count = 0
    last = len(pools) - 1
    chosen: list[WTITree | None] = [None] * len(pools)

    def walk(i: int, forbidden: list[int]) -> None:
        nonlocal count
        pool = pools[i]
        allowed = pool.full & ~forbidden[0]
        if i == last:
            for j in _set_bits(allowed):
                count += 1
                chosen[i] = pool.trees[j]
                joined = join_wti_trees(chosen)
                if joined is None or not is_ti_tree(joined):
                    raise RuntimeError(f"offset masks admitted a non-TI join of order {k}")
                func(joined)
        elif i == last - 1 and func is None:
            # A count needs only a popcount of the last coordinate, so
            # it ends the walk here (sequences have at least 3 parts).
            tail = pools[last]
            column = tail.columns.__getitem__
            for j in _set_bits(allowed):
                hit = reduce(or_, map(column, pool.offsets[j]), forbidden[1])
                count += (tail.full & ~hit).bit_count()
        else:
            later = list(zip(pools[i + 1 :], forbidden[1:]))
            for j in _set_bits(allowed):
                bits = pool.offsets[j]
                chosen[i] = pool.trees[j]
                hits = [reduce(or_, map(p.columns.__getitem__, bits), f) for p, f in later]
                walk(i + 1, hits)

    walk(0, [0] * len(pools))
    return count


def _phase2_sequences(k: int, max_children: int) -> list[IncreasingSequence]:
    """Admissible root-subtree order sequences for a TI tree of order k >= 3.

    Subtrees of the minimum-transmission root have fewer than k/2
    vertices each, hence the cap of ceil(k/2) - 1 on every part.
    """
    return list(generate_increasing(k - 1, (k - 1) // 2, max_children))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _build_subtree_pools(n: int, m_eff: int) -> WTIPool:
    """Phase 1: the WTI components of the root subtrees, by order.

    A root subtree of a TI tree of order k <= n has at most (n - 1) // 2
    vertices.  Each of its vertices has at most m_eff - 1 children: the
    subtree's root gains an edge to the new root, every other vertex has
    one to its parent.
    """
    return generate_wti_trees(max(1, (n - 1) // 2), max(1, m_eff - 1))


def _task_runner(subtrees: WTIPool, func: TreeCallback | None) -> Callable[[Task], int]:
    """A function that scans one phase-2 (k, sequence) task and counts it.

    The sliced pools of the current order are cached by part size and
    dropped when a task of another order arrives; tasks come in
    increasing k, so each pool is sliced once per order.
    """
    sliced: dict[int, SlicedPool] = {}
    order = 0

    def run(task: Task) -> int:
        nonlocal order
        k, seq = task
        if k != order:
            sliced.clear()
            order = k
        for s in seq:
            if s not in sliced:
                sliced[s] = _sliced_pool(subtrees[s], k)
        return _scan_sequence(k, [sliced[s] for s in seq], func)

    return run


def generate_ti_trees(
    n: int,
    m: int | None = None,
    func: Callable[[Any], None] | None = None,
    *,
    workers: int = 1,
    encoder: Callable[[WTITree], bytes] | None = None,
) -> TICensus:
    """Generate every TI tree of order <= n and maximum degree <= m.

    Each tree is produced exactly once, in canonical representation, and
    passed to ``func`` when given, or ``encoder(tree)`` is passed when an
    encoder is given; the returned census counts emitted trees per order.
    ``m=None`` means unbounded degree.  Trees arrive by order, then by
    root-subtree order sequence, then by tuple of components.

    Phase 2 is a list of independent (order, sequence) tasks.  With
    ``workers == 1`` or a single task they run in this process; otherwise
    they run on a pool of at most ``workers`` processes and no more than
    one per task (CPython threads would serialize on the interpreter
    lock), which encode their trees and send the lines back.
    The lines are passed on in task order, so the output is the same for
    any worker count; emitting from workers therefore needs an encoder.
    """
    if n < 1:
        raise ValueError(f"order bound must be >= 1, got {n}")
    if m is not None and m < 2:
        raise ValueError(f"degree bound must be >= 2, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and func is not None and encoder is None:
        raise ValueError("emitting from more than one worker needs an encoder")
    m_eff = n - 1 if m is None else m
    census = TICensus.zeros(n)
    emit = func if func is None or encoder is None else lambda tree: func(encoder(tree))
    census.counts[1] = 1
    if emit is not None:
        emit(SINGLE_VERTEX)
    subtrees = _build_subtree_pools(n, m_eff)
    tasks = [(k, seq) for k in range(3, n + 1) for seq in _phase2_sequences(k, m_eff)]
    # A fork-based pool starts all its workers at the first task, so
    # never ask for more workers than there are tasks.
    workers = min(workers, len(tasks))
    if workers <= 1:
        run = _task_runner(subtrees, emit)
        for task in tasks:
            census.counts[task[0]] += run(task)
        return census

    # Imported here: the process pool adds about 20 ms to the start-up
    # of every run, and serial runs never use it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        ctx = multiprocessing.get_context()
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_worker_init,
        initargs=(subtrees, encoder if func is not None else None),
    )
    try:
        for (k, _), (count, lines) in zip(tasks, executor.map(_worker_task, tasks)):
            census.counts[k] += count
            for line in lines:
                func(line)
    finally:
        # On an interrupt or a closed pipe, drop the tasks not yet started
        # instead of running the rest of the list.
        executor.shutdown(cancel_futures=True)
    return census


# Set in each worker process: the task runner, by the initializer, and the
# lines that the task at hand has emitted, by the task.
_worker_run: Callable[[Task], int]
_worker_lines: list[bytes] = []


def _worker_init(subtrees: WTIPool, encoder: Callable[[WTITree], bytes] | None) -> None:
    global _worker_run
    # Ctrl-C is the parent's to handle; it stops the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    emit = None if encoder is None else lambda tree: _worker_lines.append(encoder(tree))
    _worker_run = _task_runner(subtrees, emit)


def _worker_task(task: Task) -> tuple[int, list[bytes]]:
    global _worker_lines
    _worker_lines = []
    return _worker_run(task), _worker_lines
