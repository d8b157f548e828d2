"""Tests for the sequence generators and the WTI pool builder."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ordered_encoding
from support import (
    enumerate_rooted_trees,
    levels_from_parents,
    subtree_sizes_from_parents,
    validate_wti_tree,
)
from titrees import transmissions_bfs
from titrees.enumeration import generate_increasing, generate_wti_trees


def increasing_sequences(alpha: int, beta: int, gamma: int) -> list[tuple[int, ...]]:
    return list(generate_increasing(alpha, beta, gamma))


def brute_force_sequences(alpha: int, beta: int, gamma: int) -> list[tuple[int, ...]]:
    """All qualifying subsets of {1..alpha}, by direct combination filtering."""
    hits = [
        combo
        for q in range(1, gamma + 1)
        for combo in itertools.combinations(range(1, alpha + 1), q)
        if sum(combo) == alpha and combo[-1] <= beta
    ]
    return sorted(hits)


class TestGenerateIncreasing:
    def test_forced_triangle(self):
        assert increasing_sequences(6, 3, 3) == [(1, 2, 3)]

    def test_trivial(self):
        assert increasing_sequences(1, 1, 1) == [(1,)]

    def test_three_ways_to_five(self):
        assert increasing_sequences(5, 5, 2) == [(1, 4), (2, 3), (5,)]

    def test_emits_nothing_when_impossible(self):
        assert increasing_sequences(2, 1, 3) == []

    def test_rejects_nonpositive_arguments(self):
        for args in [(0, 3, 3), (3, 0, 3), (3, 3, 0)]:
            with pytest.raises(ValueError):
                list(generate_increasing(*args))

    def test_exhaustive_small_grid(self):
        for alpha in range(1, 15):
            for beta in range(1, 15):
                for gamma in range(1, 9):
                    got = increasing_sequences(alpha, beta, gamma)
                    assert got == brute_force_sequences(alpha, beta, gamma)
                    assert got == sorted(got)  # lexicographic emission order

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.integers(min_value=1, max_value=25),
        beta=st.integers(min_value=1, max_value=25),
        gamma=st.integers(min_value=1, max_value=8),
    )
    def test_matches_brute_force(self, alpha, beta, gamma):
        assert increasing_sequences(alpha, beta, gamma) == brute_force_sequences(
            alpha, beta, gamma
        )


class TestGenerateWtiTrees:
    def test_order_one(self):
        pool = generate_wti_trees(1, 5)
        assert len(pool[1]) == 1
        assert pool[1][0].order == 1

    def test_orders_up_to_three(self):
        pool = generate_wti_trees(3, 2)
        assert [len(pool[k]) for k in range(1, 4)] == [1, 1, 1]

    def test_order_four_contents(self):
        pool = generate_wti_trees(4, 3)
        assert len(pool[4]) == 2
        parent_arrays = {t.parents for t in pool[4]}
        # The 4-chain and the root with child subtrees of orders 1 and 2.
        assert parent_arrays == {(0, 0, 1, 2), (0, 0, 0, 2)}

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            generate_wti_trees(0, 3)
        with pytest.raises(ValueError):
            generate_wti_trees(3, 0)

    def test_children_bound_respected(self):
        pool = generate_wti_trees(8, 2)
        for k in range(1, 9):
            for tree in pool[k]:
                child_count = [0] * tree.order
                for x in range(1, tree.order):
                    child_count[tree.parents[x]] += 1
                assert max(child_count) <= 2

    def test_every_pool_tree_is_valid(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                validate_wti_tree(tree)
                assert tree.order == k

    def test_no_duplicate_trees_within_a_collection(self, pool12):
        for k in range(1, 13):
            assert len({t.parents for t in pool12[k]}) == len(pool12[k])

    def test_failed_join_counter(self):
        # The counter must equal the number of attempted tuples that did
        # not make it into the pool.
        stats: dict = {}
        pool = generate_wti_trees(10, 10, stats)
        attempts = 0
        for k in range(2, 11):
            for seq in generate_increasing(k - 1, k - 1, 10):
                product = 1
                for s in seq:
                    product *= len(pool[s])
                attempts += product
        successes = sum(len(pool[k]) for k in range(2, 11))
        assert stats["failed_joins"] == attempts - successes

    def test_pool_of_order_15_pinned(self):
        # Regression pins taken from the seed's list-based join kernel: the
        # bitset join must build the same pool sizes and fail the same
        # number of joins.
        stats: dict = {}
        pool = generate_wti_trees(15, 14, stats)
        assert [len(trees) for trees in pool[12:]] == [501, 1099, 2441, 5460]
        assert sum(len(trees) for trees in pool) == 9_933
        assert stats["failed_joins"] == 270

    def test_pool_complete_against_rooted_enumeration(self, pool12):
        """The pool must hold exactly the unbalanced rooted trees whose
        levels have distinct BFS transmissions, for every order <= 12."""
        for k in range(1, 13):
            expected = set()
            for parents in enumerate_rooted_trees(k):
                depth = levels_from_parents(parents)
                size = subtree_sizes_from_parents(parents)
                children: list[list[int]] = [[] for _ in range(k)]
                for v in range(1, k):
                    children[parents[v]].append(v)
                # Children of every vertex need pairwise distinct subtree
                # orders for the tree to have an unbalanced arrangement.
                if any(len({size[c] for c in kids}) != len(kids) for kids in children):
                    continue
                tr = transmissions_bfs(parents)
                by_level: dict[int, list[int]] = {}
                for v in range(k):
                    by_level.setdefault(depth[v], []).append(tr[v])
                if any(len(set(vals)) != len(vals) for vals in by_level.values()):
                    continue

                def encode(v: int) -> bytes:
                    subs = sorted(children[v], key=lambda c: size[c])
                    return b"(" + b"".join(encode(c) for c in subs) + b")"

                expected.add(encode(0))

            got = {ordered_encoding(t.parents) for t in pool12[k]}
            assert got == expected, f"pool mismatch at order {k}"
