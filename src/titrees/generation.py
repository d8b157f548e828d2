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
order k, the transmission of any vertex of a candidate exceeds the new
root's transmission by an offset that depends only on the subtree
containing it: crossing an edge into a subtree of s vertices adds
k - 2s (Zelinka 1968), and every subtree on the way has s < k/2
vertices, so every offset is positive.  Each pool tree gets a bitmask
of offsets and a candidate is TI, with the root as its unique minimum,
exactly when the chosen masks are pairwise disjoint.  That is the one
proof of TI: an emitted tree is joined only to build its parent tuple.

The disjointness test is bit-sliced, as in the vertical bitsets of
bit-parallel clique search (San Segundo, Rodriguez-Losada and Jimenez,
Computers & OR 38, 2011).  Column b of a pool at joined order k is an
int bitset over pool indices, with bit j set when tree j has a vertex at
offset b.  A vertex's offset is a + m * k for a key (a, m) that does not
depend on k, so each pool is keyed once per run, before any worker
starts, and the columns of an order are one OR per key of the pool.
Choosing a tree ORs its clash row against each later coordinate (the OR
of that pool's columns at the tree's offsets, cached per order and pair
of parts) into a "forbidden" bitset of the coordinate, so the trees
still allowed at a coordinate are one big-int AND-NOT away, and the last
coordinate is counted with ``bit_count()`` instead of being tested tree
by tree.

A call of ``_scan_order`` scans a list of sequences of one order, and its
pools and clash rows live only as long as the call.  A serial run makes
one call per order.  A parallel run cuts each order's list into maximal
contiguous chunks, none heavier than the heaviest single sequence, a
sequence weighing the number of candidates it scans.  No task can be
lighter than that sequence, so the bound comes from the input.  List
scheduling ends a run within the longest task of an even share of the
work (Graham, SIAM J. Appl. Math. 17, 1969), and the cut keeps the
longest task no longer than it has to be.
"""

from __future__ import annotations

import signal
from array import array
from collections import deque
from functools import reduce
from itertools import combinations, islice
from math import prod
from operator import or_
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .enumeration import IncreasingSequence, WTIPool, generate_increasing, generate_wti_trees
from .wti import WTITree, join_wti_trees

__all__ = ["generate_ti_trees"]

TreeCallback = Callable[[tuple[int, ...]], None]

# One parallel phase-2 task: a joined order and a contiguous chunk of its
# root-subtree order sequences (see ``_tasks``).
Task = tuple[int, list[IncreasingSequence]]


# ----------------------------------------------------------------------
# Phase-2 tables
# ----------------------------------------------------------------------


class KeyTable(NamedTuple):
    """The vertices of one component pool as keys that hold for every order.

    When a pool tree of order c becomes a root subtree of a joined tree
    of order k, its level-l vertex with doubled path sum q sits at depth
    l + 1 with doubled path sum 2c + q, so its transmission exceeds the
    new root's by

        k * (l + 1) - 2c - q  =  a + m * k,

    with a = -2c - q and m = l + 1, independently of the sibling
    subtrees.  Neither a nor m depends on k, so the pool is keyed once
    per run: ``keys`` lists the distinct (a, m) pairs of the pool,
    ``members[i]`` has bit j set iff ``trees[j]`` has a vertex with key
    ``keys[i]``, and ``tree_keys[c * j : c * j + c]`` holds the key
    indices of ``trees[j]``, c being ``order``, the order of every tree
    of the pool.  The vertices of one tree have distinct keys: on one
    level the values q differ, and levels differ in m.  ``trees`` is None
    in a run that only counts, which never reads a tree.
    """

    order: int
    trees: list[WTITree] | None
    keys: list[tuple[int, int]]
    members: list[int]
    tree_keys: array

    @property
    def size(self) -> int:
        """The number of trees in the pool, read off ``tree_keys``."""
        return len(self.tree_keys) // self.order


def _key_table(c: int, trees: list[WTITree]) -> KeyTable:
    """Key the vertices of the component pool of order c (see ``KeyTable``)."""
    keys: list[tuple[int, int]] = []
    # The keys of level l have m = l + 1, so each level indexes its own by a.
    index: list[dict[int, int]] = [{} for _ in range(c)]
    # One byte buffer per key: ORing the bits into an int one by one
    # would copy the whole bitset per vertex.
    buffers: list[bytearray] = []
    size = (len(trees) + 7) // 8
    # A level-l path sum adds l decreasing subtree sizes below c, so
    # level l has at most l(c - l - 1) + 1 keys and the indices fit in
    # 16 bits for c <= 74, far past any pool that fits in memory; a
    # larger one raises OverflowError.
    tree_keys = array("H")
    base = 1 - 2 * c  # a = -2c - q, q being the bit length of its bit less 1
    for j, tree in enumerate(trees):
        byte, bit = j >> 3, 1 << (j & 7)
        for level, bits in enumerate(tree.levels):
            at = index[level]
            while bits:
                low = bits & -bits
                key = base - low.bit_length()
                i = at.get(key)
                if i is None:
                    i = at[key] = len(keys)
                    keys.append((key, level + 1))
                    buffers.append(bytearray(size))
                buffers[i][byte] |= bit
                tree_keys.append(i)
                bits ^= low
    members = [int.from_bytes(buffer, "little") for buffer in buffers]
    return KeyTable(c, trees, keys, members, tree_keys)


class OrderPool(NamedTuple):
    """A component pool transposed for one joined order k, from its key table.

    ``offsets[i]`` is a + m * k for key i = (a, m).  ``columns[b]`` has
    bit j set iff tree j of ``table`` has a vertex at offset b; it has one
    entry per possible offset, all below k * k (a vertex at level l < c of
    a tree of order c < k/2 has offset at most k - 2c + l(k - 2)).
    ``full`` has bit j set iff tree j can take part in a TI join of order
    k: its offsets are pairwise distinct.  The order must exceed 2c, as
    every phase-2 order does; then every offset is positive (see the
    module docstring), so no vertex ties or undercuts the root.
    """

    table: KeyTable
    offsets: list[int]
    columns: list[int]
    full: int


def _order_pool(table: KeyTable, joined_order: int) -> OrderPool:
    """Re-index a key table for one joined order k > 2c: one OR per key."""
    offsets = [a + m * joined_order for a, m in table.keys]
    columns = [0] * (joined_order * joined_order)
    invalid = 0
    for b, members in zip(offsets, table.members):
        # A tree already in the column has another vertex at offset b.
        invalid |= columns[b] & members
        columns[b] |= members
    return OrderPool(table, offsets, columns, ((1 << table.size) - 1) & ~invalid)


class _ClashRows(dict):
    """Clash rows of one pair of parts at one joined order; a pure cache.

    Entry j is the OR of the later part's columns at the offsets of tree
    j of the earlier part: the later trees that clash with tree j.  A
    missing entry is computed on lookup, from ``key_columns``, the later
    part's column at the offset of each key of the earlier part (every
    such offset is positive), and is stored only when ``keep`` is set, so
    what is cached never changes a result.
    """

    __slots__ = ("key_columns", "tree_keys", "c", "keep")

    def __init__(self, earlier: OrderPool, later: OrderPool) -> None:
        super().__init__()
        columns = later.columns
        self.key_columns = [columns[b] for b in earlier.offsets]
        self.tree_keys = earlier.table.tree_keys
        self.c = earlier.table.order
        self.keep = True

    def __missing__(self, j: int) -> int:
        c = self.c
        row = reduce(or_, map(self.key_columns.__getitem__, self.tree_keys[c * j : c * j + c]))
        if self.keep:
            self[j] = row
        return row


def _set_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of ``x``, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _scan_sequence(
    k: int,
    pools: Sequence[OrderPool],
    clash: Sequence[Sequence[_ClashRows]],
    func: TreeCallback | None,
) -> int:
    """Count (and optionally emit) the TI joins of order k over one sequence.

    ``pools`` holds the order-k pool of each part of the sequence, none
    of them empty, and ``clash[i][p - i - 1]`` the clash rows of part i
    against part p > i.  Candidates are scanned in mixed-radix tuple
    order with the last coordinate varying fastest.  The walk carries one
    forbidden bitset per coordinate not yet chosen: choosing tree j ORs
    its clash row against each later part into that part's forbidden
    set, so a tree is reachable exactly when its offsets are disjoint
    from those of the trees chosen before it.  The last coordinate of a
    counting run costs one ``bit_count()``; emission walks the allowed
    indices in increasing order, so trees arrive in pool order.

    A reachable tuple is TI by that alone, so emission joins the chosen
    trees only to build the parent tuple passed to ``func``; a join that
    returns None would mean wrong masks and raises RuntimeError.
    """
    count = 0
    last = len(pools) - 1
    chosen: list[WTITree | None] = [None] * len(pools)

    def walk(i: int, forbidden: list[int]) -> None:
        nonlocal count
        pool = pools[i]
        trees = pool.table.trees
        allowed = pool.full & ~forbidden[0]
        if i == last:
            for j in _set_bits(allowed):
                count += 1
                chosen[i] = trees[j]
                joined = join_wti_trees(chosen)
                if joined is None:
                    raise RuntimeError(f"offset masks admitted a non-TI join of order {k}")
                func(joined.parents)
        elif i == last - 1 and func is None:
            # A count needs only a popcount of the last coordinate, so
            # it ends the walk here (sequences have at least 3 parts).
            rows = clash[i][0]
            tail = pools[last].full & ~forbidden[1]
            size = tail.bit_count()
            for j in _set_bits(allowed):
                count += size - (tail & rows[j]).bit_count()
        else:
            later = list(zip(clash[i], forbidden[1:]))
            for j in _set_bits(allowed):
                if func is not None:
                    chosen[i] = trees[j]
                walk(i + 1, [rows[j] | hit for rows, hit in later])

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


def _scan_order(
    tables: dict[int, KeyTable], k: int, sequences: Sequence[IncreasingSequence], func: TreeCallback | None
) -> int:
    """Count (and optionally emit) the TI joins of order k over ``sequences``.

    The sequences are scanned in the given order and share the order-k
    pools and the clash rows of each pair of parts; all of it is local to
    the call.  The rows of a pair are dropped after the last sequence
    that uses it, and in that sequence a row is stored only where more
    than one prefix reaches its coordinate, since no later node can read
    it otherwise.  The rows are a pure cache: any list of sequences of
    order k, in any order, gives the sum of their counts.
    """
    pools = {s: _order_pool(tables[s], k) for s in {s for seq in sequences for s in seq}}
    last_use = {pair: i for i, seq in enumerate(sequences) for pair in combinations(seq, 2)}
    pairs: dict[tuple[int, int], _ClashRows] = {}
    count = 0
    for i, seq in enumerate(sequences):
        final = {pair for pair in combinations(seq, 2) if last_use[pair] == i}
        if all(pools[s].full for s in seq):
            clash = []
            prefixes = 1
            for p, s in enumerate(seq):
                clash.append([])
                for later in seq[p + 1 :]:
                    rows = pairs.get((s, later))
                    if rows is None:
                        rows = pairs[s, later] = _ClashRows(pools[s], pools[later])
                    rows.keep = prefixes > 1 or (s, later) not in final
                    clash[p].append(rows)
                prefixes *= pools[s].full.bit_count()
            count += _scan_sequence(k, [pools[s] for s in seq], clash, func)
        for pair in final:
            pairs.pop(pair, None)
    return count


def _tasks(tables: dict[int, KeyTable], orders: list[tuple[int, list[IncreasingSequence]]]) -> list[Task]:
    """Cut each order's sequences into the tasks of a parallel run.

    A sequence weighs the product of its parts' pool sizes, the number
    of candidates its scan ranges over.  Each order's list is cut into
    maximal contiguous chunks, none heavier than the heaviest single
    sequence of the run: a chunk ends only where its next sequence would
    push it over that weight.
    """
    weights = {k: [prod(tables[s].size for s in seq) for seq in sequences] for k, sequences in orders}
    heaviest = max((w for ws in weights.values() for w in ws), default=0)
    tasks: list[Task] = []
    for k, sequences in orders:
        load = heaviest + 1  # no chunk of order k yet
        for seq, weight in zip(sequences, weights[k]):
            load += weight
            if load > heaviest:
                tasks.append((k, []))
                load = weight
            tasks[-1][1].append(seq)
    return tasks


def generate_ti_trees(
    n: int,
    m: int | None = None,
    func: Callable[[Any], None] | None = None,
    *,
    workers: int = 1,
    encoder: Callable[[tuple[int, ...]], bytes] | None = None,
) -> dict[int, int]:
    """Generate every TI tree of order <= n and maximum degree <= m.

    Each tree is produced exactly once, in canonical representation, and
    passed to ``func`` when given as its parent tuple: the root is vertex
    0, ``parents[0] == 0`` and ``parents[x] < x``, so the order is
    ``len(parents)`` and the single vertex is ``(0,)``.  With an encoder,
    ``func`` receives bytes instead: the calls concatenate to
    ``encoder(parents)`` of every tree in emission order, one call per
    tree in a serial run and at most one per task in a parallel one.
    The returned census is a dict that maps every order 1..n, in
    increasing order, to its number of emitted trees, zero included.
    ``m=None`` means unbounded degree.  Trees arrive by order, then by
    root-subtree order sequence, then by tuple of components.

    Phase 2 scans each order's sequences with ``_scan_order``: with
    ``workers == 1`` or a single task, in this process, one call per
    order.  Otherwise each task is a contiguous chunk of one order's
    sequences, no heavier than the heaviest single sequence (see
    ``_tasks``), and the tasks run on a pool of at most ``workers``
    processes and no more than one per task (CPython threads would
    serialize on the interpreter lock).  The workers encode their trees
    and send each task's encodings back end to end as one block, which
    is passed to ``func`` as it is.  At most two tasks per worker are
    submitted and not yet passed on, so a slow reader holds back the
    workers rather than filling memory.  The blocks are passed on in
    task order, so the output is the same for any worker count; emitting
    from workers therefore needs an encoder.
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
    census = dict.fromkeys(range(1, n + 1), 0)
    emit = func if func is None or encoder is None else lambda parents: func(encoder(parents))
    census[1] = 1
    if emit is not None:
        emit((0,))
    subtrees = _build_subtree_pools(n, m_eff)
    # Keyed here, before any worker starts, so no worker keys a pool again.
    tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
    if emit is None:
        # A count reads only the keys: dropping the trees frees their
        # memory for the clash rows.
        tables = {s: table._replace(trees=None) for s, table in tables.items()}
    del subtrees
    orders = [(k, _phase2_sequences(k, m_eff)) for k in range(3, n + 1)]
    tasks = _tasks(tables, orders)
    # A fork-based pool starts all its workers at the first task, so
    # never ask for more workers than there are tasks.
    workers = min(workers, len(tasks))
    if workers <= 1:
        for k, sequences in orders:
            census[k] += _scan_order(tables, k, sequences, emit)
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
        initargs=(tables, encoder if func is not None else None),
    )
    try:
        submitted = (executor.submit(_worker_task, task) for task in tasks)
        window = deque(islice(submitted, 2 * workers))
        for k, _ in tasks:
            count, block = window.popleft().result()
            window.extend(islice(submitted, 1))
            census[k] += count
            if block:
                func(block)
    finally:
        # On an interrupt or a closed pipe, drop the tasks not yet started
        # instead of running the rest of the list.
        executor.shutdown(cancel_futures=True)
    return census


# Set in each worker process by the initializer.
_worker_tables: dict[int, KeyTable]
_worker_encoder: Callable[[tuple[int, ...]], bytes] | None


def _worker_init(tables: dict[int, KeyTable], encoder: Callable[[tuple[int, ...]], bytes] | None) -> None:
    global _worker_tables, _worker_encoder
    # Ctrl-C is the parent's to handle; it stops the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_tables, _worker_encoder = tables, encoder


def _worker_task(task: Task) -> tuple[int, bytes]:
    """Scan one task: its count and its trees' encodings end to end."""
    k, sequences = task
    block = bytearray()
    emit = None if _worker_encoder is None else lambda parents: block.extend(_worker_encoder(parents))
    count = _scan_order(_worker_tables, k, sequences, emit)
    # Sent as bytes: pickle protocol 4 sends a bytearray through a bytes
    # copy, one more copy of the block in each process.
    return count, bytes(block)
