"""Tests for the brute-force verifier itself."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle
from support import chain_edges, enumerate_rooted_trees, parents_from_edges, prufer_to_edges, star_edges
from titrees import canonical_form, enumerate_free_trees, is_ti_graph, oracle, transmissions_bfs
from titrees.oracle import MAX_ENUMERATION_ORDER

FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741]
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


PATH_20 = parents_from_edges(20, chain_edges(20))
STAR_20 = parents_from_edges(20, star_edges(20))


def collect_free_trees(n):
    return list(enumerate_free_trees(n))


def differential_trees():
    """Every labelled tree of orders 3-7 and every free tree through 12."""
    trees = [
        parents_from_edges(n, prufer_to_edges(code))
        for n in range(3, 8)
        for code in itertools.product(range(n), repeat=n - 2)
    ]
    for n in range(1, 13):
        trees += collect_free_trees(n)
    return trees


@pytest.fixture
def searches(monkeypatch):
    """The source of every breadth-first search the oracle runs."""
    calls = []
    distances = oracle._distances

    def counted(adjacency, source):
        calls.append(source)
        return distances(adjacency, source)

    monkeypatch.setattr(oracle, "_distances", counted)
    return calls


class TestEnumeration:
    def test_free_tree_counts(self):
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert len(collect_free_trees(n)) == expected, f"order {n}"

    def test_rooted_tree_counts(self):
        for n, expected in enumerate(ROOTED_TREE_COUNTS, start=1):
            assert sum(1 for _ in enumerate_rooted_trees(n)) == expected, f"order {n}"

    def test_emitted_trees_are_trees(self):
        for parents in collect_free_trees(9):
            assert type(parents) is tuple and len(parents) == 9
            assert parents[0] == 0
            assert all(0 <= parents[x] < x for x in range(1, 9))

    def test_emission_stream_through_14(self):
        # Every tuple, in emission order: a reordered stream, or a tree
        # emitted under other labels, changes the digest where counts,
        # Prufer sets and pairwise non-isomorphism would not.
        trees = [t for n in range(1, 15) for t in collect_free_trees(n)]
        assert len(trees) == sum(FREE_TREE_COUNTS[:14])
        digest = hashlib.sha256(repr(trees).encode()).hexdigest()
        assert digest == "31f495c246431e952e01bd378152626ed6380a3a3b11ebc9b8100668825cfef4"

    def test_pairwise_nonisomorphic(self):
        for n in range(1, 11):
            forms = [canonical_form(t) for t in collect_free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_the_first_tree_comes_without_the_rest(self):
        # The path is the first free tree of every order; at the largest
        # order it comes without walking the other 5,623,755.
        parents = next(enumerate_free_trees(MAX_ENUMERATION_ORDER))
        assert len(parents) == MAX_ENUMERATION_ORDER
        assert parents[0] == 0 and all(0 <= parents[x] < x for x in range(1, len(parents)))
        degrees = Counter(parents[1:]) + Counter(range(1, len(parents)))
        assert max(degrees.values()) == 2

    def test_guard_rejects_large_orders(self):
        # The order is checked when the iterator is first advanced.
        with pytest.raises(ValueError):
            next(enumerate_free_trees(MAX_ENUMERATION_ORDER + 1))
        with pytest.raises(ValueError):
            next(enumerate_free_trees(0))
        with pytest.raises(ValueError):
            next(enumerate_rooted_trees(0))


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

    def test_same_answers_as_the_reference(self):
        for t in differential_trees():
            assert is_ti_graph(t) == reference_oracle.is_ti_graph(t), t

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=30))
    def test_same_answer_as_all_transmissions(self, data, n):
        # Draw how far back x's parent is, not the parent itself: that
        # shrinks towards the path, not the star, so trees without twin
        # leaves, and some TI trees among them, come up.
        parents = (0,) + tuple(x - data.draw(st.integers(1, x)) for x in range(1, n))
        assert is_ti_graph(parents) == (len(set(transmissions_bfs(parents))) == n)

    def test_the_ends_of_a_path_clash_first(self, searches):
        assert not is_ti_graph(PATH_20)
        assert len(searches) == 2

    @pytest.mark.parametrize(
        "parents",
        [STAR_20, (0,) + tuple(range(18)) + (17,)],  # a path with vertex 19 beside 18
        ids=["star", "twins-far-from-0"],
    )
    def test_twin_leaves_need_no_search(self, searches, parents):
        assert not is_ti_graph(parents)
        assert searches == []


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

    def test_same_classes_as_the_reference(self):
        # The byte strings differ from the transmission-rooted reference;
        # the partition into isomorphism classes may not.
        trees = differential_trees()
        pairs = {(canonical_form(t), reference_oracle.canonical_form(t)) for t in trees}
        assert len({new for new, _ in pairs}) == len({ref for _, ref in pairs}) == len(pairs)

    @pytest.mark.parametrize(
        "parents",
        [
            (0,),
            PATH_20,
            STAR_20,
            (0, 0, 0, 2, 0, 4, 5) + tuple(range(6, 19)),  # legs of 1, 2 and 16
        ],
        ids=["single", "path", "star", "spider"],
    )
    def test_no_searches(self, searches, parents):
        canonical_form(parents)
        assert searches == []

    @pytest.mark.parametrize(
        "edges",
        [
            chain_edges(10_000),
            chain_edges(5_000) + [(4_999, v) for v in range(5_000, 10_000)],
            list(enumerate(map(random.Random(1).randrange, range(1, 10_000)), start=1)),
        ],
        ids=["path", "broom", "random"],
    )
    def test_large_trees_relabelled(self, edges):
        # The path and the broom are deeper than the default recursion
        # limit; the random tree peels many same-height subtrees of
        # different shapes in one layer, so their order must be sorted.
        # The edges are shuffled too, or siblings keep their order.
        rng = random.Random(0)
        perm = list(range(10_000))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(relabeled)
        assert canonical_form(parents_from_edges(10_000, edges)) == canonical_form(
            parents_from_edges(10_000, relabeled)
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=30))
    def test_invariant_under_random_relabeling(self, data, n):
        # Build a random labeled tree, then relabel it with a random
        # permutation and shuffle its edges, or siblings keep their
        # order; the canonical form must not change.
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
        relabeled = data.draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))
        assert canonical_form(original) == canonical_form(parents_from_edges(n, relabeled))


class TestParentTupleValidation:
    @pytest.mark.parametrize("check", [transmissions_bfs, is_ti_graph, canonical_form])
    @pytest.mark.parametrize("parents", [(), (1,), (0, 1), (0, -1), (0, 0, 3)], ids=repr)
    def test_rejects_malformed_tuples(self, check, parents):
        with pytest.raises(ValueError):
            check(parents)
