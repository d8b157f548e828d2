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
proof of TI: emission joins and encodes the chosen prefix once per
visit of the last coordinate, a tree is one add (and one finish when
encoded), and each visit is one unit of emission (see ``_deliver``).

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

Phase 2 cuts each order's sequences into maximal contiguous chunks, the
tasks, none heavier than the heaviest single sequence, a sequence
weighing the number of candidates it scans.  A parallel run forks its
workers once and deals them the tasks by list scheduling, which ends a
run within the heaviest task of an even share of the work (Graham, SIAM
J. Appl. Math. 17, 1969).  Each process scans its tasks with one
``_scan_order`` call per order, which shares pools, tails and clash rows
across them, and a serial run is one process with every task.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
from array import array
from functools import partial, reduce
from itertools import groupby, islice
from math import prod
from operator import index, itemgetter, or_
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .enumeration import IncreasingSequence, WTIPool, generate_increasing, generate_wti_trees
from .formats import _SEGMENTS
from .wti import WTITree, join_wti_trees

__all__ = ["generate_ti_trees"]

# An emitting run's one (segment, finish, trees), shared by every scan; ``trees[c]`` holds the components of order c.
Codec = tuple[Callable[[tuple[int, ...], int, int], Any], Callable[[Any], bytes] | None, WTIPool]

# A phase-2 task: a joined order, a contiguous chunk of its sequences and its worker (see ``_tasks``).
Task = tuple[int, list[IncreasingSequence], int]


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
    ``members[i]`` has bit j set iff tree j of the pool has a vertex
    with key ``keys[i]``, and ``tree_keys[c * j : c * j + c]`` holds the
    key indices of tree j, c being ``order``, the order of every tree of
    the pool.  The vertices of one tree have distinct keys: on one level
    the values q differ, and levels differ in m.
    """

    order: int
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
    return KeyTable(c, keys, members, tree_keys)


class OrderPool(NamedTuple):
    """A component pool transposed for one joined order k, from its key table.

    ``offsets[i]`` is a + m * k for key i = (a, m).  ``columns[b]`` has
    bit j set iff tree j of ``table`` has a vertex at offset b; it has one
    entry per possible offset, all below k * k (a vertex at level l < c of
    a tree of order c < k/2 has offset at most k - 2c + l(k - 2)).
    ``full`` has bit j set iff tree j can take part in a TI join of order
    k: its offsets are pairwise distinct.  The order must exceed 2c, as
    every phase-2 order does; then every offset is positive (see the
    module docstring), so no vertex ties or undercuts the root.  No
    ``full`` is 0: each pool holds the path rooted at an end, its offsets
    growing by k - 2(c - l - 1) > 0 per level l.
    """

    table: KeyTable
    offsets: list[int]
    columns: list[int]
    full: int


def _order_pool(table: KeyTable, k: int) -> OrderPool:
    """Re-index a key table for one joined order k > 2c: one OR per key."""
    offsets = [a + m * k for a, m in table.keys]
    columns = [0] * (k * k)
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
    such offset is positive), and is stored only if the sequence being
    scanned sets ``keep``; what is cached never changes a result.
    """

    __slots__ = ("key_columns", "tree_keys", "c", "keep")

    def __init__(self, earlier: OrderPool, later: OrderPool) -> None:
        super().__init__()
        self.key_columns = list(map(later.columns.__getitem__, earlier.offsets))
        self.tree_keys = earlier.table.tree_keys
        self.c = earlier.table.order

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


def _deliver(target: Callable[[Any], None], finish: Callable[[Any], bytes] | None, sums: Iterable[Any]) -> None:
    """Pass one visit's trees, given as sums of segments, to ``target``:
    without ``finish`` the sums are parent tuples, one call for each; with
    it, one call with their lines joined, unless that is empty."""
    if finish is None:
        for parents in sums:
            target(parents)
    elif block := b"".join(map(finish, sums)):
        target(block)


def _scan_sequence(pools: Sequence[OrderPool], clash: Sequence[Sequence[_ClashRows]], emit: Callable | None) -> int:
    """Count the TI joins over one sequence of parts, passing each visit to ``emit`` when given.

    ``pools`` holds the pool of each part of the sequence at one joined
    order, none with ``full`` 0 (see ``OrderPool``), and
    ``clash[i][p - i - 1]`` the clash rows of part i against part p > i.
    Candidates are scanned in mixed-radix tuple order with the last
    coordinate varying fastest.  The scan carries one forbidden bitset per
    coordinate not yet chosen: choosing tree j ORs its clash row against
    each later part into that part's forbidden set, so a tree is reachable
    exactly when its offsets are disjoint from those of the trees chosen
    before it, and a reachable tuple is TI by that alone.

    The recursion, ``reach``, only picks prefixes: for every reachable
    choice of the parts before the penultimate one it yields the tuple of
    indices chosen, the penultimate trees allowed and ``tail``, the last
    trees allowed.  The leaf runs once per yielded node, in one loop over
    the penultimate trees allowed: for each such tree j it takes ``hit``,
    the allowed last trees that clash with j, and adds the
    ``bit_count()`` of the rest, ``tail ^ hit``.  Each visit, a choice for
    every part but the last that leaves some last tree allowed, is one
    call ``emit(chosen, tail ^ hit)``: ``chosen`` is a new tuple of the
    index chosen in each part but the last, which ``emit`` may keep, and
    the mask has bit x set for each last tree x that completes a TI join.
    """
    last = len(pools) - 1

    # reach's closure cycle stays on purpose: a module-level generator with no cycle raised
    # the peak RSS of `titrees -c 36 --threads 1` from 64.6-64.7 MB to 83.1-83.5 MB (ROADMAP item 9).
    def reach(i: int, forbidden: list[int], chosen: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int, int]]:
        allowed = pools[i].full & ~forbidden[0]
        if i == last - 1:
            yield chosen, allowed, pools[last].full & ~forbidden[1]
            return
        later = list(zip(clash[i], forbidden[1:]))
        for j in _set_bits(allowed):
            yield from reach(i + 1, [rows[j] | hit for rows, hit in later], (*chosen, j))

    count, rows = 0, clash[last - 1][0]
    for chosen, allowed, tail in reach(0, [0] * len(pools), ()):
        size = tail.bit_count()
        for j in _set_bits(allowed):
            hit = tail & rows[j]
            count += size - hit.bit_count()
            if emit is not None and hit != tail:
                emit((*chosen, j), tail ^ hit)
    return count


def _phase2_sequences(k: int, max_children: int) -> list[IncreasingSequence]:
    """Admissible root-subtree order sequences for a TI tree of order k >= 3.

    Subtrees of the minimum-transmission root have fewer than k/2
    vertices each, hence the cap of ceil(k/2) - 1 on every part.
    """
    return list(generate_increasing(k - 1, (k - 1) // 2, max_children))


def _entries(entries: tuple[int, ...], first: int, n: int) -> tuple[int, ...]:
    return entries


def _build_subtree_pools(n: int, m_eff: int) -> WTIPool:
    """Phase 1: the WTI components of the root subtrees, by order.

    A root subtree of a TI tree of order k <= n has at most (n - 1) // 2
    vertices.  Each of its vertices has at most m_eff - 1 children: the
    subtree's root gains an edge to the new root, every other vertex has
    one to its parent.
    """
    return generate_wti_trees(max(1, (n - 1) // 2), max(1, m_eff - 1))


def _scan_order(tables: dict[int, KeyTable], k: int, sequences: Sequence[IncreasingSequence],
                codec: Codec | None, target: Callable[[Any], None] | None) -> Iterator[int]:
    """Yield the count of TI joins of order k of each sequence; with ``codec``, emit them to ``target`` first.

    The sequences are scanned in the given order and share the order-k
    pools, the tails of the orders that end them and the clash rows of
    each pair of parts, all local to the call: one order, or one worker's
    share of it.  A row is stored when its earlier part is the sequence's
    first, or when more than one prefix reaches that part.  Sequences
    come in lexicographic order, so those that share a first part follow
    one another and read its rows; a later part's row is read twice in
    one sequence only when more than one prefix reaches the part, and is
    rebuilt otherwise.  A pair's rows are dropped when a sequence's first
    part exceeds the pair's earlier part: every part of an increasing
    sequence is at least its first, and first parts never decrease in a
    lexicographic list or in a worker's share, a subsequence of one, so
    no later sequence reads them.  Storing every row raised the peak
    memory of a count, and narrower rules rebuilt enough rows to slow it
    (figures in ROADMAP item 9).  The rows are a pure cache: any list of
    sequences of order k, in any order, gives the same count for each,
    and out of order a dropped row is only rebuilt.

    With ``codec`` = (segment, finish, trees), each sequence's scan gets
    ``emit`` bound to it.  A visit's call joins the chosen trees once
    (their masks are disjoint, so the join is WTI; a join returning None
    means wrong masks: RuntimeError), encodes the join once as ``head =
    segment(parents, 0, k)`` and hands ``head + tails[x]`` for each set
    bit x of the mask, in pool order, to ``_deliver``.  ``tails[x]`` is
    the segment of last tree x, of order c, relabelled to start at k - c.
    """
    pools = {s: _order_pool(tables[s], k) for s in {s for seq in sequences for s in seq}}
    if codec is not None:
        segment, finish, trees = codec
        tails = {c: [segment((0, *map((k - c).__add__, t.parents[1:])), k - c, k) for t in trees[c]]
                 for c in {seq[-1] for seq in sequences}}

        def emit(seq: IncreasingSequence, chosen: tuple[int, ...], mask: int) -> None:
            joined = join_wti_trees([trees[s][x] for s, x in zip(seq, chosen)])
            if joined is None:
                raise RuntimeError(f"offset masks admitted a non-TI join of order {k}")
            head, ends = segment(joined.parents, 0, k), tails[seq[-1]]
            _deliver(target, finish, (head + ends[x] for x in _set_bits(mask)))
    pairs: dict[tuple[int, int], _ClashRows] = {}
    first = 0
    for seq in sequences:
        if seq[0] != first:
            first, pairs = seq[0], {pair: rows for pair, rows in pairs.items() if pair[0] >= seq[0]}
        clash = []
        prefixes = 1
        for p, s in enumerate(seq):
            clash.append([])
            for later in seq[p + 1 :]:
                rows = pairs.get((s, later))
                if rows is None:
                    rows = pairs[s, later] = _ClashRows(pools[s], pools[later])
                rows.keep = p == 0 or prefixes > 1
                clash[p].append(rows)
            prefixes *= pools[s].full.bit_count()
        yield _scan_sequence([pools[s] for s in seq], clash, None if codec is None else partial(emit, seq))


def _tasks(tables: dict[int, KeyTable], orders: list[tuple[int, list[IncreasingSequence]]], workers: int) -> list[Task]:
    """Cut each order's sequences into the tasks of phase 2, and give each task a worker.

    A sequence weighs the product of its parts' pool sizes, the number
    of candidates its scan ranges over.  Each order's list is cut into
    maximal contiguous chunks, none heavier than the heaviest single
    sequence of the run: a chunk ends only where its next sequence would
    push it over that weight.  That weight, and with it the output of
    the heaviest task, grows with the largest order.  Each task goes to the
    least-loaded worker so far, the first on a tie; in this list schedule
    no worker's load exceeds the mean load plus the heaviest task.
    """
    weights = {k: [prod(tables[s].size for s in seq) for seq in sequences] for k, sequences in orders}
    heaviest = max((w for ws in weights.values() for w in ws), default=0)
    loads = [0] * min(workers, sum(map(len, weights.values())))
    tasks: list[Task] = []
    for k, sequences in orders:
        load = heaviest + 1  # no chunk of order k yet
        for seq, weight in zip(sequences, weights[k]):
            load += weight
            if load > heaviest:
                tasks.append((k, [], loads.index(min(loads))))
                load = weight
            tasks[-1][1].append(seq)
            loads[tasks[-1][2]] += weight
    return tasks


def _scan_share(tables: dict[int, KeyTable], share: list[Task], codec: Codec | None,
                target: Callable[[Any], None] | None) -> Iterator[tuple[int, int]]:
    """The order and count of each task of ``share``, from one ``_scan_order`` call per
    order over its tasks' chunks; with ``codec``, a task's trees reach ``target`` first."""
    for k, group in groupby(share, itemgetter(0)):
        chunks = [chunk for _, chunk, _ in group]
        counts = _scan_order(tables, k, [seq for chunk in chunks for seq in chunk], codec, target)
        for chunk in chunks:
            yield k, sum(islice(counts, len(chunk)))


def _fork_worker(tables: dict[int, KeyTable], share: list[Task], codec: Codec | None, readers: list[BinaryIO]) -> int:
    """Fork a worker that writes one frame per task of ``share`` to a new
    pipe, whose read end joins ``readers``: the 8-byte length of the
    marshalled ``(count, blocks)``, then it.  Ctrl-C is the parent's to
    handle; the worker leaves only by ``os._exit``, 1 with a traceback."""
    r, w = os.pipe()
    readers.append(open(r, "rb"))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])  # and kept blocked in the worker
    try:
        pid = os.fork()
        if pid == 0:
            try:
                for reader in readers:
                    reader.close()
                out = open(w, "wb")  # closed by the exit, so a failure is reported before the parent sees it
                blocks: list[bytes] = []
                for _, count in _scan_share(tables, share, codec, blocks.append):
                    frame = marshal.dumps((count, blocks))
                    out.writelines((len(frame).to_bytes(8, "little"), frame))
                    out.flush()
                    blocks.clear()
                os._exit(0)
            except BaseException:
                sys.excepthook(*sys.exc_info())  # the traceback an uncaught exception prints
                sys.stderr.flush()
            finally:
                os._exit(1)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(w)
    return pid


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
    ``func`` receives bytes instead, and the calls are the same for any
    worker count: none is empty, and each carries the whole encodings
    ``encoder(parents)`` of one or more consecutive trees, so the calls
    concatenate to the encodings of every tree in emission order.
    The shipped encoders themselves, not wrappers of them, are applied by
    segments that are each encoded once; any other runs once per tree.
    The returned census is a dict that maps every order 1..n, in
    increasing order, to its number of emitted trees, zero included.
    ``m=None`` means unbounded degree.  Trees arrive by order, then by
    root-subtree order sequence, then by tuple of components.

    Phase 2 runs the tasks of ``_tasks`` in this process when there is
    one worker or one task, or no ``os.fork``.  Otherwise it forks once
    up to ``workers`` processes, no more than there are tasks (CPython
    threads would serialize on the interpreter lock), each with a static
    share of the tasks, and passes each task's blocks to ``func`` in task
    order.  This process holds one task's blocks at a time, so a slow
    reader holds back the workers; a task's blocks grow with n.  A worker
    that fails is a RuntimeError, and every exit reaps the workers, after
    killing them on an early one (an exception in ``func``, Ctrl-C).  As
    the workers are forked, a caller that runs other threads passes 1.
    """
    if n < 1:
        raise ValueError(f"order bound must be >= 1, got {n}")
    if m is not None and index(m) < 2:  # a non-integer m raises TypeError
        raise ValueError(f"degree bound must be >= 2, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m_eff = n - 1 if m is None else m
    census = dict.fromkeys(range(1, n + 1), 0)
    census[1] = 1
    # A shipped encoder, the very function, encodes by segment; any other per tree, and none leaves tuples.
    segment, finish = next((pair for key, pair in _SEGMENTS.items() if key is encoder), (_entries, encoder))
    if func is not None:
        _deliver(func, finish, [segment((0,), 0, 1)])  # the single vertex
    subtrees = _build_subtree_pools(n, m_eff)
    # Keyed here, before any worker starts, so no worker keys a pool again.
    tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
    codec = None if func is None else (segment, finish, subtrees)
    del subtrees  # only emission reads the trees: a count frees them for the clash rows
    orders = [(k, _phase2_sequences(k, m_eff)) for k in range(3, n + 1)]
    tasks = _tasks(tables, orders, workers if hasattr(os, "fork") else 1)
    workers = len({worker for _, _, worker in tasks})  # no more than there are tasks
    if workers <= 1:
        for k, count in _scan_share(tables, tasks, codec, func):
            census[k] += count
        return census

    readers: list[BinaryIO] = []
    pids: list[int] = []
    try:
        for worker in range(workers):
            pids.append(_fork_worker(tables, [task for task in tasks if task[2] == worker], codec, readers))
        # The next task's worker has had its earlier frames read, so it is writing this one: no deadlock.
        for k, _, worker in tasks:
            size = int.from_bytes(readers[worker].read(8), "little")
            frame = readers[worker].read(size)
            if not size or len(frame) < size:
                raise RuntimeError("a phase-2 worker ended before its last task")
            count, blocks = marshal.loads(frame)
            census[k] += count
            for block in blocks:
                func(block)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
        for reader in readers:
            reader.close()
    if failed:
        raise RuntimeError(f"{failed} of {workers} phase-2 workers failed")
    return census
