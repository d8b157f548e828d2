"""Tests for the TI tree driver: component pool, then the phase-2 scan."""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
import multiprocessing
import os
import random

import pytest

from reference_join import reference_is_ti_tree, reference_join, reference_pool
from reference_scan import _masked_collection, _scan_products, _sliced_pool
from support import get_max_degree, is_ti_tree, level_transmissions, validate_wti_tree, wti_from_parents
from titrees import (
    canonical_form,
    generate_ti_trees,
    generation,
    graph6_line,
    parent_list_line,
    sparse6_line,
    transmissions_bfs,
)
from titrees.enumeration import generate_increasing
from titrees.generation import (
    _build_subtree_pools,
    _key_table,
    _order_pool,
    _phase2_sequences,
    _scan_order,
    _set_bits,
)
from titrees.wti import SINGLE_VERTEX, join_wti_trees

KNOWN_TI_COUNTS_15 = {
    1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0, 9: 1, 10: 0,
    11: 6, 12: 0, 13: 24, 14: 1, 15: 82,
}


def reference_phase1(n: int, m_eff: int):
    """Phase 1 on the reference pool: (small TI trees, components by order)."""
    half = max(1, n // 2)
    pool = reference_pool(half, max(1, m_eff))
    small_ti = []
    subtrees: list[list] = [[] for _ in range(half + 1)]
    for k in range(1, half + 1):
        for tree in pool[k]:
            max_degree, root_children = get_max_degree(tree.parents)
            if max_degree > m_eff:
                continue
            if reference_is_ti_tree(tree):
                small_ti.append(tree)
            if root_children < m_eff:
                subtrees[k].append(tree)
    return small_ti, subtrees


def reference_generate(n: int, m: int | None):
    """Plain two-phase reference: join every tuple, then filter.

    Mirrors the contract of ``generate_ti_trees`` directly (cartesian
    products of pool collections, one join per tuple, TI filter on the
    result) without the offset-mask shortcut, so it double-checks that
    shortcut.  The pool,
    the joins and the TI test are the list-based ones of
    ``reference_join.py``.
    """
    m_eff = n - 1 if m is None else m
    small_ti, subtrees = reference_phase1(n, m_eff)
    census = {k: 0 for k in range(1, n + 1)}
    for tree in small_ti:
        census[tree.order] += 1
    emitted = [tree.parents for tree in small_ti]
    for k in range(max(1, n // 2) + 1, n + 1):
        beta = (k - 1) // 2
        if beta < 1:
            continue
        for seq in generate_increasing(k - 1, beta, m_eff):
            for combo in itertools.product(*(subtrees[s] for s in seq)):
                tree = reference_join(combo)
                if tree is not None and reference_is_ti_tree(tree):
                    census[k] += 1
                    emitted.append(tree.parents)
    return census, emitted


class TestGetMaxDegree:
    def test_spider(self, spider7):
        assert get_max_degree(spider7.parents) == (3, 3)

    def test_chain_of_four(self, chains):
        assert get_max_degree(chains[4].parents) == (2, 1)

    def test_single_vertex(self):
        assert get_max_degree((0,)) == (0, 0)


class TestIsTiTree:
    def test_spider_7_is_ti(self, spider7):
        assert is_ti_tree(spider7)

    def test_spider_8_is_not(self, spider8):
        # Root value 14 reappears on level 1.
        assert not is_ti_tree(spider8)

    def test_single_vertex_is_ti(self):
        assert is_ti_tree(SINGLE_VERTEX)

    def test_minimum_must_sit_at_root(self, chains):
        # The 3-chain rooted at an end has the minimum at its middle vertex.
        assert not is_ti_tree(chains[3])
        # The spider with legs 1, 2, 3 rooted at the end of its 2-leg has
        # distinct transmissions, the minimum 10 at the centre, vertex 2.
        tree = join_wti_trees([SINGLE_VERTEX, join_wti_trees([SINGLE_VERTEX, chains[3]])])
        assert tree.parents == (0, 0, 0, 2, 2, 4, 5)
        assert transmissions_bfs(tree.parents) == [13, 18, 10, 15, 11, 14, 19]
        assert not is_ti_tree(tree)


class TestCensus:
    def test_matches_known_counts_through_15(self):
        assert generate_ti_trees(15) == KNOWN_TI_COUNTS_15

    def test_trivial_tree_counts_as_ti(self):
        assert generate_ti_trees(1) == {1: 1}
        assert generate_ti_trees(2) == {1: 1, 2: 0}
        emitted = []
        generate_ti_trees(1, None, emitted.append)
        assert emitted == [(0,)]

    def test_degree_cap_two_leaves_only_the_trivial_tree(self):
        census = generate_ti_trees(7, 2)
        assert census == {k: (1 if k == 1 else 0) for k in range(1, 8)}

    def test_eleven_unbounded(self):
        census = generate_ti_trees(11)
        assert {k: v for k, v in census.items() if v} == {1: 1, 7: 1, 9: 1, 11: 6}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_ti_trees(0)
        with pytest.raises(ValueError):
            generate_ti_trees(8, 1)
        with pytest.raises(ValueError):
            generate_ti_trees(8, workers=0)
        with pytest.raises(ValueError):
            generate_ti_trees(8, None, print, workers=2)


class TestAgainstReferencePath:
    @pytest.mark.parametrize("n,m", [(10, None), (12, None), (13, None), (13, 3), (13, 4), (12, 2)])
    def test_mask_scan_equals_join_then_filter(self, n, m):
        census_ref, emitted_ref = reference_generate(n, m)
        emitted = []
        census = generate_ti_trees(n, m, emitted.append)
        assert census == census_ref
        assert emitted == emitted_ref  # same trees in the same order


def collect(scan, emit: bool):
    """``scan(func)``'s count, or with ``emit`` the parent tuples it emits, in order."""
    if not emit:
        return scan(None)
    emitted: list = []
    count = scan(emitted.append)
    assert count == len(emitted)
    return emitted


def scan_against_reference(n: int, m: int | None, emit: bool, rng: random.Random | None = None):
    """Run both phase-2 kernels on every order k <= n.

    Yields ``(k, sequences, alone, whole, ref)`` per order: counts, or
    with ``emit`` the emitted parent tuples in order.  ``alone`` holds
    the package's ``_scan_order`` on each sequence by itself and ``ref``
    the seed kernel in ``reference_scan.py`` on the pools of
    ``reference_phase1``, one entry per sequence.  ``whole`` is one
    ``_scan_order`` call on the order's whole list, as a serial run makes
    it, in which the sequences share their clash rows.  With ``rng`` each
    order's list is shuffled first.  Before the scans, checks that the
    two pools agree tree for tree, in order: the package caps children at
    m - 1 where the reference filters by degree.
    """
    m_eff = n - 1 if m is None else m
    subtrees = _build_subtree_pools(n, m_eff)
    _, ref_subtrees = reference_phase1(n, m_eff)
    assert len(subtrees) == (n - 1) // 2 + 1
    for s in range(1, len(subtrees)):
        assert [t.parents for t in subtrees[s]] == [t.parents for t in ref_subtrees[s]]
    tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
    for k in range(3, n + 1):
        sequences = _phase2_sequences(k, m_eff)
        if rng is not None:
            rng.shuffle(sequences)
        masked = {s: _masked_collection(ref_subtrees[s], k) for s in {s for seq in sequences for s in seq}}
        alone = [collect(lambda f: _scan_order(tables, k, [seq], f), emit) for seq in sequences]
        ref = [collect(lambda f: _scan_products(k, [seq], masked, f), emit) for seq in sequences]
        yield k, sequences, alone, collect(lambda f: _scan_order(tables, k, sequences, f), emit), ref


class TestBitSlicedScanAgainstReference:
    @pytest.mark.parametrize("m", [None, 2, 3, 4])
    def test_counts_per_sequence_through_26(self, m):
        total = 0
        for k, _, alone, whole, ref in scan_against_reference(26, m, emit=False):
            assert alone == ref, k
            assert whole == sum(ref), k
            total += whole
        if m != 2:
            assert total > 0

    @pytest.mark.parametrize("m", [None, 3])
    def test_emission_order_per_sequence_through_20(self, m):
        emitted = False
        for k, _, alone, whole, ref in scan_against_reference(20, m, emit=True):
            assert alone == ref, k
            assert whole == [parents for trees in ref for parents in trees], k
            emitted |= bool(whole)
        assert emitted

    @pytest.mark.parametrize("m", [None, 3])
    def test_shuffled_tasks_within_each_order(self, m):
        # The clash rows are a pure cache.  Sequences in another order
        # than a run's make the scan drop rows too early or store rows no
        # later sequence reads; that only costs recomputation.
        shuffled = False
        for k, sequences, _, whole, ref in scan_against_reference(26, m, emit=False, rng=random.Random(26)):
            assert whole == sum(ref), k
            shuffled |= sequences != _phase2_sequences(k, 25 if m is None else m)
        assert shuffled

    def test_a_whole_order_builds_the_rows_of_each_pair_once(self, monkeypatch):
        # Whichever sequences share a pair of parts, its clash rows are
        # built by the first of them and reused by the rest.
        built: collections.Counter = collections.Counter()

        class CountedRows(generation._ClashRows):
            def __init__(self, earlier, later):
                super().__init__(earlier, later)
                built[earlier.table.order, later.table.order] += 1

        monkeypatch.setattr(generation, "_ClashRows", CountedRows)
        n = 24
        subtrees = _build_subtree_pools(n, n - 1)
        tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
        shared = 0
        for k in range(3, n + 1):
            sequences = _phase2_sequences(k, n - 1)
            built.clear()
            _scan_order(tables, k, sequences, None)
            uses = collections.Counter(pair for seq in sequences for pair in itertools.combinations(seq, 2))
            assert set(built) <= set(uses), k
            assert max(built.values(), default=1) == 1, k
            shared += sum(uses[pair] > 1 for pair in built)
        assert shared > 0


class TestKeyTablesAgainstSlicing:
    @pytest.mark.parametrize("m", [None, 2, 3, 4])
    def test_columns_and_valid_trees_through_26(self, m):
        # Every component order s of a run to 26 at every phase-2 joined
        # order k > 2s up to 26.  There every offset is positive, so a
        # tree is invalid only when two of its vertices share an offset.
        n = 26
        subtrees = _build_subtree_pools(n, n - 1 if m is None else m)
        invalid_seen = False
        for s in range(1, len(subtrees)):
            table = _key_table(s, subtrees[s])
            for k in range(2 * s + 1, n + 1):
                ref = _sliced_pool(subtrees[s], k)
                new = _order_pool(table, k)
                assert all(b > 0 for b in new.offsets), (s, k)
                valid = list(_set_bits(new.full))
                assert [subtrees[s][j] for j in valid] == ref.trees, (s, k)
                invalid_seen |= len(valid) < len(subtrees[s])
                # The reference's columns, re-indexed from kept trees to
                # pool indices.
                columns = [0] * (k * k)
                for j, bits in zip(valid, ref.offsets):
                    assert sorted(new.offsets[q] for q in table.tree_keys[s * j : s * j + s]) == bits
                    for b in bits:
                        columns[b] |= 1 << j
                assert [column & new.full for column in new.columns] == columns, (s, k)
        # At m = 2 every component is a path from its root, whose offsets
        # grow along it, so only the other bounds have invalid trees.
        assert invalid_seen == (m != 2)


class TestKeyTablesBuiltOnce:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_build_per_component_order_in_the_parent(self, workers, monkeypatch, tmp_path):
        # Each build appends its process id to a file, which forked
        # workers would append to as well.
        n = 16
        expected = generate_ti_trees(n)
        log = tmp_path / "builds"
        real = generation._key_table

        def counted(c, trees):
            with log.open("a") as out:
                out.write(f"{os.getpid()} {c}\n")
            return real(c, trees)

        monkeypatch.setattr(generation, "_key_table", counted)
        assert generate_ti_trees(n, workers=workers) == expected
        parent = str(os.getpid())
        builds = [line.split() for line in log.read_text().splitlines()]
        assert builds == [[parent, str(c)] for c in range(1, (n - 1) // 2 + 1)]


class TestRegressionPins:
    def test_orders_31_and_32(self):
        # Regression pins, not published values: the bit-sliced kernel,
        # the seed reference kernel and a two-worker run all gave them.
        census = generate_ti_trees(32)
        assert census[31] == 16_926_170
        assert census[32] == 1_368_434

    def test_orders_33_to_36(self):
        # Regression pins, not published values: a serial run, a two-worker
        # run and the seed reference kernel all gave them.
        census = generate_ti_trees(36)
        assert [census[k] for k in range(33, 37)] == [83_965_665, 7_612_216, 409_768_230, 33_750_452]

    # Regression pins, not published values: the bit-sliced kernel and the
    # seed reference kernel (two-phase, degree-filtered pool) agree on them.
    DEGREE_CAPPED_30 = {
        3: {
            1: 1, 7: 1, 9: 1, 11: 5, 13: 16, 15: 53, 16: 7, 17: 201, 18: 28,
            19: 852, 20: 81, 21: 3_124, 22: 341, 23: 12_801, 24: 1_375,
            25: 50_679, 26: 4_884, 27: 219_332, 28: 24_917, 29: 894_748,
            30: 91_595,
        },
        4: {
            1: 1, 7: 1, 9: 1, 11: 6, 13: 24, 14: 1, 15: 82, 16: 9, 17: 321,
            18: 47, 19: 1_529, 20: 155, 21: 6_660, 22: 701, 23: 29_286,
            24: 2_790, 25: 134_316, 26: 12_334, 27: 651_877, 28: 62_636,
            29: 3_001_974, 30: 278_371,
        },
    }

    @pytest.mark.parametrize("m", [3, 4])
    def test_degree_capped_census_through_30(self, m):
        census = generate_ti_trees(30, m)
        assert {k: v for k, v in census.items() if v} == self.DEGREE_CAPPED_30[m]


class TestEmission:
    def test_trees_are_canonical_ti_forms(self):
        seen = []
        generate_ti_trees(14, None, seen.append)
        for parents in seen:
            assert type(parents) is tuple and parents[0] == 0
            tree = wti_from_parents(parents)
            assert is_ti_tree(tree)
            bfs = transmissions_bfs(parents)
            values = [t for level in level_transmissions(parents) for t in level]
            assert min(values) == bfs[0]
            assert sorted(values) == sorted(bfs)
            validate_wti_tree(tree)  # includes increasing child subtree orders

    def test_exactly_once_up_to_isomorphism(self):
        forms = []
        generate_ti_trees(14, None, lambda t: forms.append(canonical_form(t)))
        assert len(forms) == len(set(forms))

    def test_order_of_emission_is_nondecreasing(self):
        orders = []
        generate_ti_trees(15, None, lambda parents: orders.append(len(parents)))
        assert orders == sorted(orders)

    def test_two_runs_identical(self):
        first = []
        generate_ti_trees(13, None, lambda t: first.append(t))
        second = []
        generate_ti_trees(13, None, lambda t: second.append(t))
        assert first == second

    @pytest.mark.parametrize("n, m", [(24, None), (22, 3)])
    def test_every_emitted_tree_is_ti(self, n, m):
        # The scan proves TI by its offset masks alone and emits without
        # a second test, so this one re-checks every tree it emits, on
        # levels derived from the emitted parents alone.
        checked = collections.Counter()
        census = generate_ti_trees(n, m, lambda parents: checked.update([is_ti_tree(wti_from_parents(parents))]))
        assert checked == {True: sum(census.values())}

    def test_non_ti_join_is_an_error_not_an_assert(self, monkeypatch):
        # Only the phase-2 joins: phase 1 calls its own binding.
        monkeypatch.setattr(generation, "join_wti_trees", lambda children: None)
        with pytest.raises(RuntimeError):
            generate_ti_trees(9, None, lambda t: None)

    def test_respects_degree_bound(self):
        for m in (3, 4):
            trees = []
            generate_ti_trees(13, m, trees.append)
            assert trees, f"expected some TI trees at m={m}"
            for parents in trees:
                assert get_max_degree(parents)[0] <= m


class TestDegreeMonotonicity:
    def test_census_nondecreasing_in_m(self):
        n = 14
        previous = None
        for m in range(2, n):
            current = generate_ti_trees(n, m)
            if previous is not None:
                assert all(previous[k] <= current[k] for k in current)
            previous = current
        assert previous == generate_ti_trees(n)


class TestPhase2Sequences:
    def test_every_sequence_has_at_least_three_parts(self):
        # Strictly increasing parts below k/2 cannot reach k - 1 with two.
        for k in range(3, 40):
            for seq in _phase2_sequences(k, k - 1):
                assert len(seq) >= 3

    def test_parts_stay_below_half(self):
        for k in range(3, 40):
            for seq in _phase2_sequences(k, k - 1):
                assert sum(seq) == k - 1
                assert all(2 * s < k for s in seq)

    def test_orders_below_three_are_not_phase_2_orders(self):
        # The driver counts the single vertex itself and asks from k = 3.
        for k in (1, 2):
            with pytest.raises(ValueError):
                _phase2_sequences(k, 2)


REAL_POOL = concurrent.futures.ProcessPoolExecutor


class RecordingPool:
    """A process pool that records its tasks and counts results not yet read.

    It fails the run as soon as the parent has submitted more than two
    tasks per worker whose results it has not read.
    """

    def __init__(self, *args, max_workers, **kwargs):
        self.pool = REAL_POOL(*args, max_workers=max_workers, **kwargs)
        self.limit = 2 * max_workers
        self.tasks: list = []
        self.outstanding = self.peak = 0

    def submit(self, fn, task):
        self.outstanding += 1
        if self.outstanding > self.limit:
            raise AssertionError(f"{self.outstanding} results outstanding with a limit of {self.limit}")
        self.peak = max(self.peak, self.outstanding)
        self.tasks.append(task)
        return Outstanding(self, self.pool.submit(fn, task))

    def shutdown(self, **kwargs):
        self.pool.shutdown(**kwargs)


class Outstanding:
    """A task of a ``RecordingPool`` whose result has not been read yet."""

    def __init__(self, pool: RecordingPool, future: concurrent.futures.Future):
        self.pool, self.future = pool, future

    def result(self):
        self.pool.outstanding -= 1
        return self.future.result()


def awkward_line(parents) -> bytes:
    """An encoder whose output no separator frames: some encodings are
    empty, the others hold newlines of their own."""
    line = parent_list_line(parents)
    return b"" if len(line) % 3 == 0 else line.replace(b" ", b"\n") + b"\n"


def shape_line(parents) -> bytes:
    """An encoder that writes what it was given: its type, and 1 when it
    is a parent tuple (``parents[0] == 0``, ``parents[x] < x``)."""
    ok = parents[0] == 0 and all(parents[x] < x for x in range(1, len(parents)))
    return b"%s %d\n" % (type(parents).__name__.encode(), ok)


def sequence_weights(n: int, m_eff: int) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Each phase-2 sequence of each order with its weight, the product
    of its parts' component pool sizes."""
    sizes = [len(pool) for pool in _build_subtree_pools(n, m_eff)]
    return {
        k: [(seq, math.prod(sizes[s] for s in seq)) for seq in _phase2_sequences(k, m_eff)]
        for k in range(3, n + 1)
    }


@pytest.fixture
def recording_pools(monkeypatch):
    """The ``RecordingPool``s that runs start in the test, in order."""
    pools: list[RecordingPool] = []

    def start(*args, **kwargs):
        pools.append(RecordingPool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", start)
    return pools


class TestParallel:
    def test_census_matches_serial(self):
        assert generate_ti_trees(16, workers=2) == generate_ti_trees(16)

    @pytest.mark.parametrize("encoder", [graph6_line, sparse6_line, parent_list_line, awkward_line])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_encoded_lines_match_serial_byte_for_byte(self, encoder, workers):
        # At n = 18 orders 17 and 18 are cut into 4 and 5 tasks, so many
        # tasks carry trees; awkward_line's empty encodings and inner
        # newlines must come back exactly as the encoder made them.
        serial: list[bytes] = []
        generate_ti_trees(18, None, lambda t: serial.append(encoder(t)))
        parallel: list[bytes] = []
        generate_ti_trees(18, None, parallel.append, workers=workers, encoder=encoder)
        assert all(type(block) is bytes for block in parallel)
        assert b"".join(parallel) == b"".join(serial)
        if encoder is awkward_line:
            assert b"" in serial and any(b"\n" in line for line in serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_encoder_receives_parent_tuples(self, workers):
        lines: list[bytes] = []
        census = generate_ti_trees(18, None, lines.append, workers=workers, encoder=shape_line)
        assert b"".join(lines).splitlines() == [b"tuple 1"] * sum(census.values())

    def test_spawn_fallback_matches_serial(self, monkeypatch):
        # Where fork is missing, get_context("fork") raises ValueError and
        # the run takes the default context, spawn on those platforms.  A
        # spawned worker gets the key tables, their trees and the encoder
        # pickled through the pool's initargs.
        real = multiprocessing.get_context
        asked: list[str | None] = []

        def no_fork(method=None):
            asked.append(method)
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real("spawn" if method is None else method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        serial: list[bytes] = []
        census = generate_ti_trees(18, None, lambda t: serial.append(graph6_line(t)))
        spawned: list[bytes] = []
        assert generate_ti_trees(18, None, spawned.append, workers=2, encoder=graph6_line) == census
        assert asked == ["fork", None]
        assert b"".join(spawned) == b"".join(serial)

    def test_encoded_lines_with_one_worker_match_serial(self):
        # One worker runs in this process and passes on one call per tree.
        serial: list[bytes] = []
        generate_ti_trees(14, None, lambda t: serial.append(parent_list_line(t)))
        encoded: list[bytes] = []
        generate_ti_trees(14, None, encoded.append, workers=1, encoder=parent_list_line)
        assert encoded == serial

    def test_degree_bound_in_parallel(self):
        assert generate_ti_trees(15, 3, workers=2) == generate_ti_trees(15, 3)

    def test_no_more_workers_than_tasks(self, monkeypatch):
        # A fork-based pool starts every worker at the first task, so the
        # pool must never be asked for more workers than there are tasks.
        # At n = 13 the heaviest of the 13 sequences weighs 18, and
        # cutting each order at that weight makes 8 tasks.
        n = 13
        weights = sequence_weights(n, n - 1)
        heaviest = max(w for run in weights.values() for _, w in run)
        tasks = 0
        for run in weights.values():
            load = heaviest + 1
            for _, w in run:
                load += w
                if load > heaviest:
                    tasks, load = tasks + 1, w
        requested: list[int] = []

        def capped_pool(*args, max_workers, **kwargs):
            if max_workers > tasks:
                raise AssertionError(f"{max_workers} workers for {tasks} tasks")
            requested.append(max_workers)
            return REAL_POOL(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", capped_pool)
        assert generate_ti_trees(n, workers=64) == generate_ti_trees(n)
        assert heaviest == 18
        assert tasks == 8
        assert requested == [8]

    def test_results_outstanding_stay_within_two_per_worker(self, recording_pools):
        # A reader that stalls holds back the workers instead of letting
        # the lines of finished tasks pile up in this process.
        serial: list[bytes] = []
        generate_ti_trees(16, None, lambda t: serial.append(parent_list_line(t)))
        blocks: list[bytes] = []
        generate_ti_trees(16, None, blocks.append, workers=2, encoder=parent_list_line)
        assert b"".join(blocks) == b"".join(serial)
        [pool] = recording_pools
        assert len(pool.tasks) > pool.limit == 4
        assert pool.peak == pool.limit

    def test_each_task_reaches_func_in_at_most_one_call(self, recording_pools):
        # The single vertex is one call of its own; each task's encodings
        # come back as one block, passed on whole and only when non-empty.
        serial: list[bytes] = []
        census = generate_ti_trees(18, None, lambda t: serial.append(graph6_line(t)))
        blocks: list[bytes] = []
        generate_ti_trees(18, None, blocks.append, workers=2, encoder=graph6_line)
        [pool] = recording_pools
        assert blocks[0] == graph6_line((0,))
        assert len(blocks) <= len(pool.tasks) + 1 < sum(census.values())
        assert all(blocks)
        assert b"".join(blocks) == b"".join(serial)

    @pytest.mark.parametrize("m", [None, 3])
    def test_tasks_concatenate_to_the_run_sequences(self, recording_pools, m):
        n = 19
        generate_ti_trees(n, m, workers=2)
        [pool] = recording_pools
        m_eff = n - 1 if m is None else m
        expected = [(k, seq) for k in range(3, n + 1) for seq in _phase2_sequences(k, m_eff)]
        assert [(k, seq) for k, run in pool.tasks for seq in run] == expected

    @pytest.mark.parametrize("m", [None, 3])
    def test_each_task_is_a_maximal_chunk_no_heavier_than_the_heaviest_sequence(self, recording_pools, m):
        n = 19
        generate_ti_trees(n, m, workers=2)
        [pool] = recording_pools
        weights = sequence_weights(n, n - 1 if m is None else m)
        weight = {(k, seq): w for k, run in weights.items() for seq, w in run}
        heaviest = max(weight.values())
        loads = []
        for k, run in pool.tasks:
            assert run and all(sum(seq) == k - 1 for seq in run), (k, run)
            loads.append(sum(weight[k, seq] for seq in run))
            assert loads[-1] <= heaviest, (k, run)
        assert len(pool.tasks) < sum(len(run) for _, run in pool.tasks)
        for load, (k, _), (next_k, next_run) in zip(loads, pool.tasks, pool.tasks[1:]):
            assert k != next_k or load + weight[k, next_run[0]] > heaviest, (k, next_run)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_a_single_task_runs_in_this_process(self, monkeypatch, n):
        # Below order 3 there are no phase-2 sequences at all, so no task.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        lines: list[bytes] = []
        census = generate_ti_trees(n, None, lines.append, workers=8, encoder=parent_list_line)
        expected = {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0}
        assert census == {k: expected[k] for k in range(1, n + 1)}
        assert lines.count(parent_list_line((0,))) == 1
        assert len(lines) == sum(census.values())
