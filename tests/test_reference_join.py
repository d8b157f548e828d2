"""Differential tests: the bitset kernels against the list-based reference.

``titrees.wti.join_wti_trees`` and ``support.is_ti_tree`` work on one
int bitset of doubled path sums per level, and
``reference_scan._offset_mask`` on one of transmissions per level;
``reference_join.py`` keeps the seed kernels, which work value by value
on per-level lists of transmissions.  Both pools are grown side by side
here, join by join, so every attempted join of the pool through order
13 is compared, and so is every join phase 2 attempts at orders 14-17.
"""

from __future__ import annotations

import itertools

import pytest

from reference_join import (
    LIST_SINGLE_VERTEX,
    reference_is_ti_tree,
    reference_join,
    reference_offset_mask,
)
from reference_scan import _offset_mask
from support import is_ti_tree, level_sets
from titrees.enumeration import generate_increasing, generate_wti_trees
from titrees.generation import _phase2_sequences
from titrees.wti import SINGLE_VERTEX, join_wti_trees

MAX_POOL_ORDER = 13


def path_sums_of(ref) -> list[set[int]]:
    """The doubled path sums of each level of a reference tree.

    A vertex at depth d with transmission t has n * d - (t - T(root)).
    """
    n, root = ref.order, ref.root_transmission
    return [{n * d - (t - root) for t in values} for d, values in enumerate(ref.level_transmissions)]


@pytest.fixture(scope="module")
def paired_pool():
    """Entry k lists (bitset tree, reference tree) pairs, built side by side.

    Every join that ``generate_wti_trees`` attempts up to ``MAX_POOL_ORDER``
    runs through both kernels; ``attempts`` counts them.
    """
    pool: list[list[tuple]] = [[] for _ in range(MAX_POOL_ORDER + 1)]
    pool[1].append((SINGLE_VERTEX, LIST_SINGLE_VERTEX))
    attempts = mismatches = 0
    for k in range(2, MAX_POOL_ORDER + 1):
        for seq in generate_increasing(k - 1, k - 1, MAX_POOL_ORDER):
            for pairs in itertools.product(*(pool[s] for s in seq)):
                attempts += 1
                new = join_wti_trees([tree for tree, _ in pairs])
                ref = reference_join([tree for _, tree in pairs])
                if (new is None) != (ref is None):
                    mismatches += 1
                elif new is not None:
                    if new.parents != ref.parents or level_sets(new) != path_sums_of(ref):
                        mismatches += 1
                    pool[k].append((new, ref))
    return pool, attempts, mismatches


class TestJoinAgainstReference:
    def test_every_attempted_join_agrees(self, paired_pool):
        pool, attempts, mismatches = paired_pool
        assert mismatches == 0
        # Both outcomes occur: trees were built and joins were rejected.
        built = sum(len(trees) for trees in pool) - 1  # less the single vertex
        assert 0 < built < attempts

    def test_pool_equals_generate_wti_trees(self, paired_pool):
        pool, _, _ = paired_pool
        expected = generate_wti_trees(MAX_POOL_ORDER, MAX_POOL_ORDER)
        for k in range(1, MAX_POOL_ORDER + 1):
            assert [tree for tree, _ in pool[k]] == expected[k]

    def test_ti_test_agrees_and_finds_both_answers(self, paired_pool):
        pool, _, _ = paired_pool
        answers = [
            (is_ti_tree(new), reference_is_ti_tree(ref)) for trees in pool for new, ref in trees
        ]
        assert all(a == b for a, b in answers)
        assert {a for a, _ in answers} == {True, False}
        # Every join that phase 2 attempts at orders 14 to 17, both
        # parities, where every part c has n > 2c.
        for k in range(14, 18):
            answers = []
            for seq in _phase2_sequences(k, k - 1):
                for pairs in itertools.product(*(pool[s] for s in seq)):
                    new = join_wti_trees([tree for tree, _ in pairs])
                    ref = reference_join([tree for _, tree in pairs])
                    assert (new is None) == (ref is None)
                    if new is not None:
                        answers.append((is_ti_tree(new), reference_is_ti_tree(ref)))
            assert all(a == b for a, b in answers), k
            assert {a for a, _ in answers} == {True, False}, k


class TestOffsetMaskAgainstReference:
    def test_every_pool_tree_through_order_12_and_joined_order_26(self, paired_pool):
        # Phase 2 only asks for joined orders k > 2c, where every offset
        # is positive (each step from the root toward a vertex crosses an
        # edge into fewer than k/2 vertices), so only the popcount test
        # rejects a tree there.  Orders c + 1..2c reach the test for
        # offsets <= 0, the one place a negative shift can lose a bit: the
        # tree's own root has offset k - 2c <= 0, so no mask survives.
        pool, _, _ = paired_pool
        outcomes = set()
        for c in range(1, 13):
            for new, ref in pool[c]:
                for k in range(c + 1, 27):
                    mask = _offset_mask(new, k)
                    assert mask == reference_offset_mask(ref, k), (new.parents, k)
                    outcomes.add((2 * c < k, mask is None))
        assert outcomes == {(True, True), (True, False), (False, True)}
