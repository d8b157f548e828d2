"""Tests for the TI tree driver: component pool, then the phase-2 scan."""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import marshal
import math
import os
import random
import sys
import types
import weakref

import pytest

from reference_join import reference_is_ti_tree, reference_join, reference_pool
from reference_scan import _masked_collection, _scan_products, _sliced_pool
from support import get_max_degree, is_ti_tree, level_transmissions, validate_wti_tree, wti_from_parents
from titrees import (
    canonical_form,
    formats,
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
    _entries,
    _key_table,
    _order_pool,
    _phase2_sequences,
    _scan_order,
    _set_bits,
    _tasks,
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


def as_tuples(func, subtrees):
    """The ``codec`` and ``target`` arguments of ``_scan_order`` that pass
    ``func`` parent tuples of joins over the component pools ``subtrees``."""
    return (None, None) if func is None else ((_entries, None, subtrees), func)


def scan_against_reference(n: int, m: int | None, emit: bool, rng: random.Random | None = None):
    """Run both phase-2 kernels on every order k <= n.

    Yields ``(k, sequences, alone, whole, ref)`` per order: counts, or
    with ``emit`` the emitted parent tuples in order.  ``alone`` holds
    the package's ``_scan_order`` on each sequence by itself and ``ref``
    the seed kernel in ``reference_scan.py`` on the pools of
    ``reference_phase1``, one entry per sequence.  ``whole`` is one
    ``_scan_order`` call on the order's whole list, as a serial run makes
    it, in which the sequences share their clash rows: the count it
    yields for each sequence, or the trees it emits.  With ``rng`` each
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
        alone = [
            collect(lambda f: sum(_scan_order(tables, k, [seq], *as_tuples(f, subtrees))), emit) for seq in sequences
        ]
        ref = [collect(lambda f: _scan_products(k, [seq], masked, f), emit) for seq in sequences]
        if emit:
            whole = collect(lambda f: sum(_scan_order(tables, k, sequences, *as_tuples(f, subtrees))), emit)
        else:
            whole = list(_scan_order(tables, k, sequences, None, None))
        yield k, sequences, alone, whole, ref


class TestBitSlicedScanAgainstReference:
    @pytest.mark.parametrize("m", [None, 2, 3, 4])
    def test_counts_per_sequence_through_26(self, m):
        total = 0
        for k, _, alone, whole, ref in scan_against_reference(26, m, emit=False):
            assert alone == ref, k
            assert whole == ref, k
            total += sum(whole)
        if m != 2:
            assert total > 0

    @pytest.mark.parametrize("m", [None, 3])
    def test_emission_order_per_sequence_through_22(self, m):
        # The reference joins every emitted tree whole; the package joins
        # each prefix once and appends relabelled tails to it.
        emitted = False
        for k, _, alone, whole, ref in scan_against_reference(22, m, emit=True):
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
            assert whole == ref, k
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
            sum(_scan_order(tables, k, sequences, None, None))
            uses = collections.Counter(pair for seq in sequences for pair in itertools.combinations(seq, 2))
            assert set(built) <= set(uses), k
            assert max(built.values(), default=1) == 1, k
            shared += sum(uses[pair] > 1 for pair in built)
        assert shared > 0

    def test_rows_are_stored_for_the_first_part_and_where_two_prefixes_reach(self, monkeypatch):
        # The retention rule changes no count, but it sets peak memory and
        # how many rows are rebuilt.  A row is stored when its earlier part
        # is the sequence's first, or when more than one choice of the
        # earlier parts' valid trees (a prefix) reaches that part.  Stored
        # rows live for one _scan_order call: none is computed again in
        # it, and none outlives it.  Checked at every order of a count to 24.
        live: list[weakref.ref] = []  # dicts are unhashable, so no WeakSet
        scanning: dict[int, tuple[int, int]] = {}  # id(rows) -> (part, prefixes) in the scanned sequence
        stores: set[tuple[int, int]] = set()  # (part, prefixes) of every stored row
        stored: set[tuple[tuple[int, int], int]] = set()  # (pair, j) of the rows the call stored

        class WatchedRows(generation._ClashRows):
            def __init__(self, earlier, later):
                super().__init__(earlier, later)
                self.pair = earlier.table.order, later.table.order
                live.append(weakref.ref(self))

            def __missing__(self, j):
                assert (self.pair, j) not in stored, (self.pair, j)
                return super().__missing__(j)

            def __setitem__(self, j, row):
                stores.add(scanning[id(self)])
                stored.add((self.pair, j))
                super().__setitem__(j, row)

        real_scan = generation._scan_sequence
        firsts: list[int] = []  # the first part of each sequence scanned in the call

        def watched_scan(pools, clash, emit):
            # When the first part changes, no row of a pair whose earlier
            # part is below it may still be alive.
            first = pools[0].table.order
            if firsts and firsts[-1] != first:
                gc.collect()
                assert all((rows := ref()) is None or rows.pair[0] >= first for ref in live), first
            firsts.append(first)
            scanning.clear()
            prefixes = 1
            for p, (pool, part) in enumerate(zip(pools, clash)):
                scanning.update((id(rows), (p, prefixes)) for rows in part)
                prefixes *= pool.full.bit_count()
            return real_scan(pools, clash, emit)

        n = 24
        census = generate_ti_trees(n)
        monkeypatch.setattr(generation, "_ClashRows", WatchedRows)
        monkeypatch.setattr(generation, "_scan_sequence", watched_scan)
        subtrees = _build_subtree_pools(n, n - 1)
        tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
        gc.freeze()  # so that each collection walks only what the scan made
        try:
            for k in range(3, n + 1):
                live.clear()
                stored.clear()
                firsts.clear()
                assert sum(_scan_order(tables, k, _phase2_sequences(k, n - 1), None, None)) == census[k], k
                gc.collect()  # a scan's reach closure is a reference cycle
                assert all(ref() is None for ref in live), k
        finally:
            gc.unfreeze()
        assert all(p == 0 or prefixes > 1 for p, prefixes in stores)
        assert any(p == 0 for p, _ in stores) and any(prefixes > 1 for _, prefixes in stores)


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
                # The path rooted at an end is in every pool, and its
                # offsets grow with depth, so no pool's ``full`` is 0.
                path = next(j for j, tree in enumerate(subtrees[s]) if tree.parents[1:] == tuple(range(s - 1)))
                assert new.full >> path & 1, (s, k)
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

    def test_a_prefix_is_joined_once_for_all_trees_of_its_last_coordinate(self, monkeypatch):
        # A graph6 run makes one ``func`` call per visit, and one for the
        # single vertex, which is not joined.  One join per call pins that
        # a prefix is joined once for all trees of its last coordinate,
        # and not at all when no last tree is allowed.
        joins = collections.Counter()

        def counted(children):
            joins["join"] += 1
            return join_wti_trees(children)

        monkeypatch.setattr(generation, "join_wti_trees", counted)
        for m in (None, 3):
            joins.clear()
            calls: list[bytes] = []
            census = generate_ti_trees(24, m, calls.append, encoder=graph6_line)
            assert 0 < joins["join"] == len(calls) - 1 < sum(census.values()) - 1, m

    @pytest.mark.parametrize("m", [None, 3])
    def test_each_sequence_emits_exactly_the_trees_its_scan_counts(self, m, monkeypatch):
        # The scan counts a visit's trees and hands their mask to the
        # sequence's emitter; the two must agree sequence by sequence.
        # ``emit`` may keep what it gets: each kept ``chosen`` must still
        # equal the copy taken during its call after the whole run.
        real_scan = generation._scan_sequence
        scans: list[tuple[int, int]] = []  # (count, trees passed to emit)
        kept: list[tuple[int, object, tuple[int, ...]]] = []  # (parts less 1, chosen, its copy)

        def watched_scan(pools, clash, emit):
            emitted = 0

            def counted(chosen, mask):
                nonlocal emitted
                emitted += mask.bit_count()
                kept.append((len(pools) - 1, chosen, tuple(chosen)))
                emit(chosen, mask)

            count = real_scan(pools, clash, counted)
            scans.append((count, emitted))
            return count

        monkeypatch.setattr(generation, "_scan_sequence", watched_scan)
        n = 20
        trees: list[tuple[int, ...]] = []
        census = generate_ti_trees(n, m, trees.append)
        assert len(scans) == sum(len(_phase2_sequences(k, n - 1 if m is None else m)) for k in range(3, n + 1))
        assert all(count == emitted for count, emitted in scans)
        assert sum(count for count, _ in scans) == len(trees) - 1 == sum(census.values()) - 1 > 0
        assert kept and all(type(chosen) is tuple and len(chosen) == parts and chosen == copy
                            for parts, chosen, copy in kept)

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
def run_tasks(monkeypatch):
    """The tasks of each run started in the test, in order: what ``_tasks``
    returned, each task an order, its chunk of sequences and its worker."""
    runs: list = []

    def recording(*args):
        runs.append(_tasks(*args))
        return runs[-1]

    monkeypatch.setattr(generation, "_tasks", recording)
    return runs


@pytest.fixture
def scan_log(monkeypatch, tmp_path):
    """Every ``_scan_order`` call of the test, in whichever process it ran:
    a function that returns ``(pid, k, codec is None)`` for each, in the
    order each process made them."""
    log = tmp_path / "scans"
    real = generation._scan_order

    def logged(tables, k, sequences, codec, target):
        with log.open("a") as out:
            out.write(f"{os.getpid()} {k} {int(codec is None)}\n")
        return real(tables, k, sequences, codec, target)

    monkeypatch.setattr(generation, "_scan_order", logged)
    return lambda: [(int(pid), int(k), none == "1") for pid, k, none in map(str.split, log.read_text().splitlines())]


def no_children_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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

    def test_a_platform_without_fork_runs_serially(self, monkeypatch, scan_log):
        # Where os.fork is missing, a run asked for workers scans in this
        # process, one _scan_order call per order, and gives the same calls.
        serial: list[bytes] = []
        census = generate_ti_trees(18, None, serial.append, encoder=graph6_line)
        before = len(scan_log())
        monkeypatch.delattr(os, "fork")
        blocks: list[bytes] = []
        assert generate_ti_trees(18, None, blocks.append, workers=2, encoder=graph6_line) == census
        assert blocks == serial
        scans = scan_log()
        assert scans[before:] == scans[:before]
        assert [pid for pid, _, _ in scans] == [os.getpid()] * len(scans)
        assert [k for _, k, _ in scans[:before]] == sorted({k for _, k, _ in scans})

    def test_encoded_lines_with_one_worker_match_serial(self):
        # One worker runs in this process and passes on one call per
        # visit of a last coordinate, each holding whole lines.
        serial: list[bytes] = []
        census = generate_ti_trees(14, None, lambda t: serial.append(parent_list_line(t)))
        encoded: list[bytes] = []
        generate_ti_trees(14, None, encoded.append, workers=1, encoder=parent_list_line)
        assert b"".join(encoded) == b"".join(serial)
        assert encoded[0] == parent_list_line((0,))
        assert all(type(block) is bytes and block.endswith(b"\n") for block in encoded)
        assert 1 < len(encoded) < sum(census.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_empty_encoding_of_the_single_vertex_is_not_a_call(self, workers):
        # The single vertex is delivered before the scan, through the
        # same empty-block guard as every visit.
        def encoder(parents):
            return b"" if parents == (0,) else graph6_line(parents)

        calls: list[bytes] = []
        generate_ti_trees(14, None, calls.append, workers=workers, encoder=encoder)
        assert calls and all(type(block) is bytes and block for block in calls)
        assert b"".join(calls) == b"".join(map(encoder, ti_trees_up_to(14)))

    @pytest.mark.parametrize("encoder", [None, graph6_line, sparse6_line, parent_list_line, awkward_line])
    @pytest.mark.parametrize("m", [None, 3])
    def test_same_calls_at_every_worker_count(self, encoder, m, scan_log):
        # Whichever process scanned a tree, an encoded run makes one call
        # per visit of a last coordinate: the single vertex is a call of
        # its own, no call is empty, and each holds the whole lines of one
        # or more trees.  A run without an encoder makes one call per tree,
        # with its parent tuple.
        calls, censuses = {}, {}
        for workers in (1, 2, 3):
            calls[workers] = []
            censuses[workers] = generate_ti_trees(18, m, calls[workers].append, workers=workers, encoder=encoder)
        blocks, census = calls[1], censuses[1]
        assert calls[2] == blocks and calls[3] == blocks
        assert censuses[2] == census and censuses[3] == census
        assert {pid for pid, _, _ in scan_log()} - {os.getpid()}
        if encoder is None:
            assert all(type(parents) is tuple for parents in blocks)
            assert len(blocks) == sum(census.values())
            return
        assert all(type(block) is bytes and block for block in blocks)
        assert b"".join(blocks) == b"".join(map(encoder, ti_trees_up_to(18, m)))
        assert 1 < len(blocks) < sum(census.values())
        if encoder is not awkward_line:
            assert blocks[0] == encoder((0,))
            assert all(block.endswith(b"\n") for block in blocks)

    def test_degree_bound_in_parallel(self):
        assert generate_ti_trees(15, 3, workers=2) == generate_ti_trees(15, 3)

    def test_no_more_workers_than_tasks(self, monkeypatch, run_tasks):
        # Each worker is forked once, and never more of them than there are
        # tasks.  At n = 13 the heaviest of the 13 sequences weighs 18, and
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
        real = os.fork
        forks: list[int] = []

        def counted():
            forks.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", counted)
        assert generate_ti_trees(n, workers=64) == generate_ti_trees(n)
        assert heaviest == 18
        assert tasks == 8
        assert forks == [os.getpid()] * tasks
        assert sorted({worker for _, _, worker in run_tasks[0]}) == list(range(tasks))
        assert no_children_left()

    def test_a_worker_count_past_the_sequences_sizes_nothing(self):
        # No more workers than sequences can ever get a task, so asking for
        # sys.maxsize of them allocates no load per worker asked for and
        # gives every task the worker it gets when each task has its own.
        n = 20
        subtrees = _build_subtree_pools(n, n - 1)
        tables = {s: _key_table(s, subtrees[s]) for s in range(1, len(subtrees))}
        orders = [(k, _phase2_sequences(k, n - 1)) for k in range(3, n + 1)]
        tasks = _tasks(tables, orders, sys.maxsize)
        assert tasks == _tasks(tables, orders, len(tasks))
        assert [worker for _, _, worker in tasks] == list(range(len(tasks)))

    def test_the_parent_holds_one_task_frame_at_a_time(self, monkeypatch, run_tasks):
        # A reader that stalls holds back the workers instead of letting the
        # lines of finished tasks pile up in this process: it reads a task's
        # frame only once every block of the frames before it reached func.
        serial: list[bytes] = []
        generate_ti_trees(16, None, lambda t: serial.append(parent_list_line(t)))
        blocks: list[bytes] = []
        frames: list[list[bytes]] = []

        def loads(frame):
            assert blocks[1:] == [block for task in frames for block in task]
            count, task = marshal.loads(frame)
            frames.append(task)
            return count, task

        monkeypatch.setattr(generation, "marshal", types.SimpleNamespace(loads=loads, dumps=marshal.dumps))
        generate_ti_trees(16, None, blocks.append, workers=2, encoder=parent_list_line)
        assert b"".join(blocks) == b"".join(serial)
        tasks = run_tasks[-1]
        assert len(frames) == len(tasks) > 4
        assert blocks[1:] == [block for task in frames for block in task]

    def test_each_visit_reaches_func_in_one_call(self, run_tasks):
        # A task's blocks come back as a list, one per visit, and are
        # passed on in task order: the calls are those of a serial run,
        # and there are more of them than tasks.
        serial: list[bytes] = []
        census = generate_ti_trees(18, None, serial.append, encoder=graph6_line)
        blocks: list[bytes] = []
        generate_ti_trees(18, None, blocks.append, workers=2, encoder=graph6_line)
        tasks = run_tasks[1]
        assert blocks == serial
        assert blocks[0] == graph6_line((0,))
        assert all(blocks)
        assert len(tasks) + 1 < len(blocks) < sum(census.values())

    @pytest.mark.parametrize("m", [None, 3])
    def test_tasks_concatenate_to_the_run_sequences(self, run_tasks, m):
        n = 19
        generate_ti_trees(n, m, workers=2)
        [tasks] = run_tasks
        m_eff = n - 1 if m is None else m
        expected = [(k, seq) for k in range(3, n + 1) for seq in _phase2_sequences(k, m_eff)]
        assert [(k, seq) for k, run, _ in tasks for seq in run] == expected

    @pytest.mark.parametrize("m", [None, 3])
    def test_each_task_is_a_maximal_chunk_no_heavier_than_the_heaviest_sequence(self, run_tasks, m):
        n = 19
        generate_ti_trees(n, m, workers=2)
        [tasks] = run_tasks
        weights = sequence_weights(n, n - 1 if m is None else m)
        weight = {(k, seq): w for k, run in weights.items() for seq, w in run}
        heaviest = max(weight.values())
        loads = []
        for k, run, _ in tasks:
            assert run and all(sum(seq) == k - 1 for seq in run), (k, run)
            loads.append(sum(weight[k, seq] for seq in run))
            assert loads[-1] <= heaviest, (k, run)
        assert len(tasks) < sum(len(run) for _, run, _ in tasks)
        for load, (k, _, _), (next_k, next_run, _) in zip(loads, tasks, tasks[1:]):
            assert k != next_k or load + weight[k, next_run[0]] > heaviest, (k, next_run)

    @pytest.mark.parametrize("m", [None, 3])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_worker_carries_more_than_the_mean_load_plus_the_heaviest_task(self, run_tasks, m, workers):
        # Graham's bound for a list schedule: each task goes to the worker
        # that is least loaded when its turn comes, so the worker that ends
        # heaviest was no heavier than the mean before its last task.
        n = 22
        assert generate_ti_trees(n, m, workers=workers) == generate_ti_trees(n, m)
        [tasks, serial] = run_tasks
        assert {worker for _, _, worker in serial} == {0}
        weight = {(k, seq): w for k, run in sequence_weights(n, n - 1 if m is None else m).items() for seq, w in run}
        task_loads = [sum(weight[k, seq] for seq in run) for k, run, _ in tasks]
        loads = [0] * workers
        for load, (_, _, worker) in zip(task_loads, tasks):
            assert loads[worker] == min(loads), worker
            loads[worker] += load
        assert max(loads) <= sum(loads) / workers + max(task_loads)
        assert min(loads) > 0

    def test_each_worker_scans_each_of_its_orders_once(self, scan_log):
        # A worker scans all its tasks of an order in one _scan_order call,
        # so its chunks of the order share their pools and clash rows.
        census = generate_ti_trees(19, None, workers=2)
        scans = [(pid, k) for pid, k, _ in scan_log()]
        assert census == generate_ti_trees(19)
        assert len(scans) == len(set(scans))
        workers = {pid for pid, _ in scans}
        assert len(workers) == 2 and os.getpid() not in workers
        assert {k for _, k, _ in scan_log()[len(scans) :]} == {k for _, k in scans}

    def test_a_failing_worker_is_an_error_and_leaves_no_process(self, monkeypatch, capfd):
        # A worker prints its traceback and exits nonzero; the parent reads
        # a short frame, and raises once it has killed and reaped them all.
        def broken(pools, clash, emit):
            raise ZeroDivisionError("broken scan")

        monkeypatch.setattr(generation, "_scan_sequence", broken)
        with pytest.raises(RuntimeError):
            generate_ti_trees(18, None, lambda block: None, workers=2, encoder=graph6_line)
        assert no_children_left()
        assert "ZeroDivisionError: broken scan" in capfd.readouterr().err

    def test_a_worker_that_fails_after_its_last_frame_is_an_error(self, monkeypatch):
        # Every frame arrives whole, so only the exit status tells the
        # parent that the workers failed.
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(1))
        lines: list[bytes] = []
        with pytest.raises(RuntimeError, match="2 of 2 phase-2 workers failed"):
            generate_ti_trees(16, None, lines.append, workers=2, encoder=graph6_line)
        assert no_children_left()
        serial: list[bytes] = []
        generate_ti_trees(16, None, serial.append, encoder=graph6_line)
        assert b"".join(lines) == b"".join(serial)

    def test_an_exception_in_func_kills_and_reaps_the_workers(self):
        # The single vertex is passed on before any worker starts; the
        # next call carries the first task's first block, while the
        # workers still have most of the run ahead of them.
        calls: list[bytes] = []

        def stop(block):
            calls.append(block)
            if len(calls) > 1:
                raise StopAtFunc

        with pytest.raises(StopAtFunc):
            generate_ti_trees(22, None, stop, workers=2, encoder=graph6_line)
        assert no_children_left()

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_a_single_task_runs_in_this_process(self, monkeypatch, n):
        # Below order 3 there are no phase-2 sequences at all, so no task.
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        lines: list[bytes] = []
        census = generate_ti_trees(n, None, lines.append, workers=8, encoder=parent_list_line)
        expected = {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0}
        assert census == {k: expected[k] for k in range(1, n + 1)}
        assert lines.count(parent_list_line((0,))) == 1
        assert len(lines) == sum(census.values())


def ti_trees_up_to(n: int, m: int | None = None) -> list[tuple[int, ...]]:
    trees: list = []
    generate_ti_trees(n, m, trees.append)
    return trees


class StopAtFunc(Exception):
    """Raised by a ``func`` that stops the run it is passed to."""


class TestCodecs:
    def test_a_wrapped_shipped_encoder_is_called_once_per_tree(self):
        # Shipped encoders are recognised by identity, not by name or
        # attributes: a functools.wraps wrapper, such as a tracer's, takes
        # the per-tree path and must see every tree, while ``func`` gets
        # the same calls as with the shipped encoder.
        calls: list = []

        @functools.wraps(graph6_line)
        def wrapped(parents):
            calls.append(parents)
            return graph6_line(parents)

        assert wrapped.__name__ == "graph6_line" and wrapped not in formats._SEGMENTS
        lines: list[bytes] = []
        census = generate_ti_trees(18, None, lines.append, encoder=wrapped)
        shipped: list[bytes] = []
        generate_ti_trees(18, None, shipped.append, encoder=graph6_line)
        assert len(calls) == sum(census.values()) > len(lines)
        assert all(type(parents) is tuple for parents in calls)
        assert calls == ti_trees_up_to(18)
        assert lines == shipped

    def test_a_shipped_encoder_encodes_each_prefix_and_tail_once(self, monkeypatch):
        # A serial graph6 run never calls the per-tree encoder: it encodes
        # segments, and each tree is one addition of two of them.  Heads
        # (from vertex 0) are the single vertex and one per visit, so one
        # per call of ``func``.  Tails are encoded once per order k for
        # each component order that ends some sequence of order k, and for
        # no other.
        segment, finish = formats._SEGMENTS[graph6_line]
        segments = collections.Counter()

        def counted(entries, first, n):
            segments[first == 0] += 1
            return segment(entries, first, n)

        monkeypatch.setitem(formats._SEGMENTS, graph6_line, (counted, finish))
        lines: list[bytes] = []
        generate_ti_trees(22, None, lines.append, encoder=graph6_line)
        assert b"".join(lines) == b"".join(map(graph6_line, ti_trees_up_to(22)))
        ends = [{seq[-1] for seq in _phase2_sequences(k, 21)} for k in range(3, 23)]
        subtrees = _build_subtree_pools(22, 21)
        assert segments[True] == len(lines)
        assert segments[False] == sum(len(subtrees[c]) for orders in ends for c in orders)

    def test_a_count_hands_its_workers_no_tree(self, scan_log):
        # A count reads only the key tables: its forked workers scan with no
        # codec, and so with no pool tree.
        census = generate_ti_trees(18, None, workers=2)
        scans = scan_log()
        assert census == generate_ti_trees(18)
        assert scans and all(pid != os.getpid() and none for pid, _, none in scans)

    def test_tuple_blocks_cross_as_marshal_frames(self, monkeypatch):
        # A run without an encoder has a segment and no finish: its
        # segments are tuples, the sum of a tree's segments is its parent
        # tuple, and a worker's frame of such blocks loads back unchanged.
        seen: list = []
        real = generation._scan_order

        def recording(tables, k, sequences, codec, target):
            seen.append(codec[0])
            return real(tables, k, sequences, codec, target)

        monkeypatch.setattr(generation, "_scan_order", recording)
        trees: list = []
        generate_ti_trees(11, None, trees.append)
        assert seen and all(segment is _entries for segment in seen)
        assert marshal.loads(marshal.dumps((len(trees), trees))) == (len(trees), trees)
        segment = seen[0]
        for parents in trees:
            assert type(parents) is tuple
            assert segment(parents[:2], 0, len(parents)) + segment(parents[2:], 2, len(parents)) == parents
