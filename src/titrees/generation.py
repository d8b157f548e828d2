"""Two-phase generation of transmission irregular (TI) trees.

A tree is TI when all of its vertices have pairwise distinct
transmissions.  Every TI tree has a canonical rooted form: root at the
unique minimum-transmission vertex, children ordered by increasing
subtree order.  Phase 1 builds the WTI pool up to half the target order
and reports the pool trees that already are canonical TI forms.  Phase 2
constructs the canonical forms of the larger orders directly: for order
k the root's subtrees all have fewer than k/2 vertices, so they come
from the pool, and each admissible multiset of subtree orders is an
increasing sequence over which a cartesian product of pool entries is
scanned.

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

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .enumeration import IncreasingSequence, generate_increasing, generate_wti_trees
from .wti import WTITree, join_wti_trees

__all__ = [
    "TICensus",
    "SubtreePool",
    "get_max_degree",
    "is_ti_tree",
    "generate_ti_trees",
]

# Pool of degree-admissible join components, indexed by order like WTIPool.
SubtreePool = list[list[WTITree]]

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


def get_max_degree(tree: WTITree) -> tuple[int, int]:
    """(maximum vertex degree, number of root children) of a WTI tree."""
    child_count = [0] * tree.order
    for x in range(1, tree.order):
        child_count[tree.parents[x]] += 1
    root_children = child_count[0]
    max_degree = root_children
    for v in range(1, tree.order):
        degree = child_count[v] + 1
        if degree > max_degree:
            max_degree = degree
    return max_degree, root_children


def is_ti_tree(tree: WTITree) -> bool:
    """True iff the tree is a canonical TI form.

    Requires all transmissions across all levels to be pairwise distinct
    with the unique minimum sitting at the root.
    """
    root_value = tree.level_transmissions[0][0]
    seen: set[int] = set()
    for values in tree.level_transmissions:
        for t in values:
            if t < root_value or t in seen:
                return False
            seen.add(t)
    return True


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
    each such offset o.  Returns None when the tree can never take part
    in a TI join of this order: some offset is <= 0 (a vertex would tie
    or undercut the root) or two of its own vertices always collide.
    """
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


def _scan_sequences(
    k: int,
    sequences: Sequence[IncreasingSequence],
    sliced: dict[int, SlicedPool],
    func: TreeCallback | None,
) -> int:
    """Count (and optionally emit) the TI joins of order k.

    Candidates are scanned in sequence order, then in mixed-radix tuple
    order with the last coordinate varying fastest.  The walk carries one
    forbidden bitset per coordinate not yet chosen: choosing tree j ORs
    ``columns[b]`` of each later pool into that pool's forbidden set, for
    every offset b of tree j, so a tree is reachable exactly when its
    mask is disjoint from the masks chosen before it.  The last
    coordinate of a counting run costs one ``bit_count()``; emission
    walks the allowed indices in increasing order, so trees arrive in
    pool order.
    """
    count = 0
    for seq in sequences:
        pools = [sliced[s] for s in seq]
        if not all(pool.full for pool in pools):
            continue
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
    """Admissible root-subtree order sequences for a TI tree of order k.

    Subtrees of the minimum-transmission root have fewer than k/2
    vertices each, hence the cap of ceil(k/2) - 1 on every part.
    """
    beta = (k - 1) // 2
    if beta < 1:
        return []
    sequences: list[IncreasingSequence] = []
    generate_increasing(k - 1, beta, max_children, sequences.append)
    return sequences


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _build_subtree_pools(
    n: int,
    m_eff: int,
    census: TICensus,
    func: TreeCallback | None,
) -> SubtreePool:
    """Phase 1: filter the WTI pool, report small TI trees, keep components.

    Every pool tree with maximum degree <= m_eff survives; survivors that
    are canonical TI forms are reported, and survivors whose root has
    strictly fewer than m_eff children are kept as phase-2 components
    (one more edge will arrive at their root).
    """
    half = max(1, n // 2)
    pool = generate_wti_trees(half, max(1, m_eff))
    subtrees: SubtreePool = [[] for _ in range(half + 1)]
    for k in range(1, half + 1):
        for tree in pool[k]:
            max_degree, root_children = get_max_degree(tree)
            if max_degree > m_eff:
                continue
            if is_ti_tree(tree):
                census.counts[k] += 1
                if func is not None:
                    func(tree)
            if root_children < m_eff:
                subtrees[k].append(tree)
    return subtrees


def _task_runner(subtrees: SubtreePool, func: TreeCallback | None) -> Callable[[Task], int]:
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
        return _scan_sequences(k, [seq], sliced, func)

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
    ``m=None`` means unbounded degree.  Trees arrive in increasing
    phase-1 order first, then by order, sequence and tuple for phase 2.

    Phase 2 is a list of independent (order, sequence) tasks.  With
    ``workers == 1`` they run in this process; otherwise they run on a
    pool of worker processes (CPython threads would serialize on the
    interpreter lock), which encode their trees and send the lines back.
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
    subtrees = _build_subtree_pools(n, m_eff, census, emit)
    tasks = [
        (k, seq)
        for k in range(max(1, n // 2) + 1, n + 1)
        for seq in _phase2_sequences(k, m_eff)
    ]
    if workers == 1 or not tasks:
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
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_worker_init,
        initargs=(subtrees, encoder if func is not None else None),
    ) as executor:
        for (k, _), (count, lines) in zip(tasks, executor.map(_worker_task, tasks)):
            census.counts[k] += count
            for line in lines:
                func(line)
    return census


# Set in each worker process: the task runner, by the initializer, and the
# lines that the task at hand has emitted, by the task.
_worker_run: Callable[[Task], int]
_worker_lines: list[bytes] = []


def _worker_init(subtrees: SubtreePool, encoder: Callable[[WTITree], bytes] | None) -> None:
    global _worker_run
    emit = None if encoder is None else lambda tree: _worker_lines.append(encoder(tree))
    _worker_run = _task_runner(subtrees, emit)


def _worker_task(task: Task) -> tuple[int, list[bytes]]:
    global _worker_lines
    _worker_lines = []
    return _worker_run(task), _worker_lines
