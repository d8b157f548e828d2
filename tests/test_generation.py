"""Tests for the two-phase TI tree driver."""

from __future__ import annotations

import itertools

import pytest

from conftest import adjacency_of
from reference_scan import _masked_collection, _scan_products
from titrees import (
    SINGLE_VERTEX,
    canonical_form,
    generate_increasing,
    generate_ti_trees,
    generate_wti_trees,
    get_max_degree,
    is_ti_tree,
    join_wti_trees,
    validate_wti_tree,
)
from titrees.formats import parent_list_line
from titrees.generation import (
    TICensus,
    _build_subtree_pools,
    _phase2_sequences,
    _scan_sequences,
    _sliced_pool,
)

KNOWN_TI_COUNTS_15 = {
    1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0, 9: 1, 10: 0,
    11: 6, 12: 0, 13: 24, 14: 1, 15: 82,
}


def reference_generate(n: int, m: int | None):
    """Plain two-phase reference: join every tuple, then filter.

    Mirrors the driver's contract directly (cartesian products of pool
    collections, one join per tuple, TI filter on the result) without the
    offset-mask shortcut, so it double-checks that shortcut.
    """
    m_eff = n - 1 if m is None else m
    half = max(1, n // 2)
    pool = generate_wti_trees(half, max(1, m_eff))
    census = {k: 0 for k in range(1, n + 1)}
    emitted = []
    subtrees: list[list] = [[] for _ in range(half + 1)]
    for k in range(1, half + 1):
        for tree in pool[k]:
            max_degree, root_children = get_max_degree(tree)
            if max_degree > m_eff:
                continue
            if is_ti_tree(tree):
                census[k] += 1
                emitted.append(tree.parents)
            if root_children < m_eff:
                subtrees[k].append(tree)
    for k in range(half + 1, n + 1):
        beta = (k - 1) // 2
        if beta < 1:
            continue
        sequences: list[tuple[int, ...]] = []
        generate_increasing(k - 1, beta, m_eff, sequences.append)
        for seq in sequences:
            for combo in itertools.product(*(subtrees[s] for s in seq)):
                tree = join_wti_trees(combo)
                if tree is not None and is_ti_tree(tree):
                    census[k] += 1
                    emitted.append(tree.parents)
    return census, emitted


class TestGetMaxDegree:
    def test_spider(self, spider7):
        assert get_max_degree(spider7) == (3, 3)

    def test_chain_of_four(self, chains):
        assert get_max_degree(chains[4]) == (2, 1)

    def test_single_vertex(self):
        assert get_max_degree(SINGLE_VERTEX) == (0, 0)


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


class TestCensus:
    def test_matches_known_counts_through_15(self):
        assert generate_ti_trees(15).to_dict() == KNOWN_TI_COUNTS_15

    def test_trivial_tree_counts_as_ti(self):
        assert generate_ti_trees(1).to_dict() == {1: 1}
        assert generate_ti_trees(2).to_dict() == {1: 1, 2: 0}
        emitted = []
        generate_ti_trees(1, None, emitted.append)
        assert [t.order for t in emitted] == [1]

    def test_degree_cap_two_leaves_only_the_trivial_tree(self):
        census = generate_ti_trees(7, 2)
        assert census.to_dict() == {k: (1 if k == 1 else 0) for k in range(1, 8)}

    def test_eleven_unbounded(self):
        census = generate_ti_trees(11)
        assert {k: v for k, v in census.items() if v} == {1: 1, 7: 1, 9: 1, 11: 6}

    def test_census_helpers(self):
        census = generate_ti_trees(9)
        assert census.n_max == 9
        assert census[7] == 1
        assert census.total() == 3

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
        census = generate_ti_trees(n, m, lambda t: emitted.append(t.parents))
        assert census.to_dict() == census_ref
        assert emitted == emitted_ref  # same trees in the same order


def scan_per_sequence(n: int, m: int | None, emit: bool):
    """Run both phase-2 kernels on every (k, sequence) with k <= n.

    Yields ``((k, seq), new, ref)`` where ``new`` comes from the
    bit-sliced kernel and ``ref`` from the seed kernel in
    ``reference_scan.py``: counts, or the emitted parent tuples in order.
    """
    m_eff = n - 1 if m is None else m
    subtrees = _build_subtree_pools(n, m_eff, TICensus.zeros(n), None)
    for k in range(1, n + 1):
        sequences = _phase2_sequences(k, m_eff)
        parts = {s for seq in sequences for s in seq}
        sliced = {s: _sliced_pool(subtrees[s], k) for s in parts}
        masked = {s: _masked_collection(subtrees[s], k) for s in parts}
        for seq in sequences:
            if emit:
                new: list = []
                ref: list = []
                _scan_sequences(k, [seq], sliced, lambda t: new.append(t.parents))
                _scan_products(k, [seq], masked, lambda t: ref.append(t.parents))
                yield (k, seq), new, ref
            else:
                yield (
                    (k, seq),
                    _scan_sequences(k, [seq], sliced, None),
                    _scan_products(k, [seq], masked, None),
                )


class TestBitSlicedScanAgainstReference:
    @pytest.mark.parametrize("m", [None, 2, 3, 4])
    def test_counts_per_sequence_through_26(self, m):
        results = list(scan_per_sequence(26, m, emit=False))
        assert {key: new for key, new, _ in results} == {key: ref for key, _, ref in results}
        if m != 2:
            assert sum(new for _, new, _ in results) > 0

    @pytest.mark.parametrize("m", [None, 3])
    def test_emission_order_per_sequence_through_20(self, m):
        results = list(scan_per_sequence(20, m, emit=True))
        assert {key: new for key, new, _ in results} == {key: ref for key, _, ref in results}
        assert any(new for _, new, _ in results)


class TestRegressionPins:
    def test_orders_31_and_32(self):
        # Regression pins, not published values: the bit-sliced kernel,
        # the seed reference kernel and a two-worker run all gave them.
        census = generate_ti_trees(32)
        assert census[31] == 16_926_170
        assert census[32] == 1_368_434


class TestEmission:
    def test_trees_are_canonical_ti_forms(self):
        seen = []
        generate_ti_trees(14, None, seen.append)
        for tree in seen:
            assert is_ti_tree(tree)
            values = [t for level in tree.level_transmissions for t in level]
            assert min(values) == tree.root_transmission
            validate_wti_tree(tree)  # includes increasing child subtree orders

    def test_exactly_once_up_to_isomorphism(self):
        forms = []
        generate_ti_trees(14, None, lambda t: forms.append(canonical_form(adjacency_of(t))))
        assert len(forms) == len(set(forms))

    def test_order_of_emission_is_nondecreasing(self):
        orders = []
        generate_ti_trees(15, None, lambda t: orders.append(t.order))
        assert orders == sorted(orders)

    def test_two_runs_identical(self):
        first = []
        generate_ti_trees(13, None, lambda t: first.append(t))
        second = []
        generate_ti_trees(13, None, lambda t: second.append(t))
        assert first == second

    def test_non_ti_join_is_an_error_not_an_assert(self, monkeypatch):
        monkeypatch.setattr("titrees.generation.is_ti_tree", lambda tree: False)
        with pytest.raises(RuntimeError):
            generate_ti_trees(9, None, lambda t: None)

    def test_respects_degree_bound(self):
        for m in (3, 4):
            trees = []
            generate_ti_trees(13, m, trees.append)
            assert trees, f"expected some TI trees at m={m}"
            for tree in trees:
                assert get_max_degree(tree)[0] <= m


class TestDegreeMonotonicity:
    def test_census_nondecreasing_in_m(self):
        n = 14
        previous = None
        for m in range(2, n):
            current = generate_ti_trees(n, m).to_dict()
            if previous is not None:
                assert all(previous[k] <= current[k] for k in current)
            previous = current
        assert previous == generate_ti_trees(n).to_dict()


class TestPhase2Sequences:
    def test_every_sequence_has_at_least_three_parts(self):
        # Strictly increasing parts below k/2 cannot reach k - 1 with two.
        for k in range(2, 40):
            for seq in _phase2_sequences(k, k - 1):
                assert len(seq) >= 3

    def test_parts_stay_below_half(self):
        for k in range(2, 40):
            for seq in _phase2_sequences(k, k - 1):
                assert sum(seq) == k - 1
                assert all(2 * s < k for s in seq)


class TestParallel:
    def test_census_matches_serial(self):
        assert (
            generate_ti_trees(16, workers=2).to_dict()
            == generate_ti_trees(16).to_dict()
        )

    def test_encoded_lines_match_serial_byte_for_byte(self):
        serial: list[bytes] = []
        generate_ti_trees(14, None, lambda t: serial.append(parent_list_line(t)))
        parallel: list[bytes] = []
        generate_ti_trees(14, None, parallel.append, workers=2, encoder=parent_list_line)
        assert parallel == serial

    def test_encoded_lines_with_one_worker_match_serial(self):
        serial: list[bytes] = []
        generate_ti_trees(14, None, lambda t: serial.append(parent_list_line(t)))
        encoded: list[bytes] = []
        generate_ti_trees(14, None, encoded.append, workers=1, encoder=parent_list_line)
        assert encoded == serial

    def test_degree_bound_in_parallel(self):
        assert (
            generate_ti_trees(15, 3, workers=2).to_dict()
            == generate_ti_trees(15, 3).to_dict()
        )
