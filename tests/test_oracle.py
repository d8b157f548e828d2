"""Tests for the brute-force verifier itself."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import enumerate_rooted_trees, parents_from_edges, prufer_to_edges
from titrees import canonical_form, enumerate_free_trees, is_ti_graph, transmissions_bfs
from titrees.oracle import MAX_ENUMERATION_ORDER

FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741]
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def collect_free_trees(n):
    trees = []
    enumerate_free_trees(n, trees.append)
    return trees


class TestEnumeration:
    def test_free_tree_counts(self):
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert len(collect_free_trees(n)) == expected, f"order {n}"

    def test_rooted_tree_counts(self):
        for n, expected in enumerate(ROOTED_TREE_COUNTS, start=1):
            trees = []
            enumerate_rooted_trees(n, trees.append)
            assert len(trees) == expected, f"order {n}"

    def test_emitted_trees_are_trees(self):
        for parents in collect_free_trees(9):
            assert type(parents) is tuple and len(parents) == 9
            assert parents[0] == 0
            assert all(0 <= parents[x] < x for x in range(1, 9))

    def test_pairwise_nonisomorphic(self):
        for n in range(1, 11):
            forms = [canonical_form(t) for t in collect_free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_guard_rejects_large_orders(self):
        with pytest.raises(ValueError):
            enumerate_free_trees(MAX_ENUMERATION_ORDER + 1, lambda t: None)
        with pytest.raises(ValueError):
            enumerate_free_trees(0, lambda t: None)
        with pytest.raises(ValueError):
            enumerate_rooted_trees(0, lambda t: None)


class TestPruferPath:
    def test_agrees_with_level_sequence_path(self):
        # Decoding every Prufer sequence and deduplicating by canonical
        # form must reproduce exactly the free trees, for n <= 7 here
        # (the acceptance suite pushes this to 8).
        for n in range(3, 8):
            via_levels = {canonical_form(t) for t in collect_free_trees(n)}
            via_prufer = set()
            for code in itertools.product(range(n), repeat=n - 2):
                via_prufer.add(canonical_form(parents_from_edges(n, prufer_to_edges(code))))
            assert via_prufer == via_levels

    def test_small_decodes(self):
        assert sorted(prufer_to_edges(())) == [(0, 1)]
        assert sorted(prufer_to_edges((3, 3))) == [(0, 3), (1, 3), (2, 3)]


class TestTransmissions:
    def test_chain_of_three(self):
        assert transmissions_bfs((0, 0, 1)) == [3, 2, 3]
        assert transmissions_bfs((0, 0, 0)) == [2, 3, 3]

    def test_single_vertex(self):
        assert transmissions_bfs((0,)) == [0]

    def test_spider_7(self):
        spider = (0, 0, 0, 2, 0, 4, 5)
        assert sorted(transmissions_bfs(spider)) == [10, 11, 13, 14, 15, 18, 19]
        assert is_ti_graph(spider)

    def test_non_ti_examples(self):
        assert not is_ti_graph((0, 0, 1))
        assert not is_ti_graph((0, 0))


class TestCanonicalForm:
    def test_relabelings_agree(self):
        # The path on four vertices, rooted at an end and at an inner vertex.
        assert canonical_form((0, 0, 1, 2)) == canonical_form((0, 0, 0, 2))

    def test_distinguishes_chain_from_star(self):
        assert canonical_form((0, 0, 1, 2)) != canonical_form((0, 0, 0, 0))

    def test_six_ti_trees_of_order_eleven(self):
        forms = {
            canonical_form(t) for t in collect_free_trees(11) if is_ti_graph(t)
        }
        assert len(forms) == 6

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=10))
    def test_invariant_under_random_relabeling(self, data, n):
        # Build a random labeled tree, then relabel it with a random
        # permutation; the canonical form must not change.
        if n == 2:
            edges = [(0, 1)]
        else:
            code = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=n - 2,
                    max_size=n - 2,
                )
            )
            edges = prufer_to_edges(code)
        perm = data.draw(st.permutations(range(n)))
        original = parents_from_edges(n, edges)
        relabeled = parents_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(original) == canonical_form(relabeled)


class TestParentTupleValidation:
    @pytest.mark.parametrize("check", [transmissions_bfs, is_ti_graph, canonical_form])
    @pytest.mark.parametrize("parents", [(), (1,), (0, 1), (0, -1), (0, 0, 3)], ids=repr)
    def test_rejects_malformed_tuples(self, check, parents):
        with pytest.raises(ValueError):
            check(parents)
