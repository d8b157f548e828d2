"""Tests for the WTI tree record and the path-sum join.

Transmissions marked as BFS-checked were computed with the brute-force
oracle (plain breadth-first distance sums) and frozen here.  A vertex
at depth d of a tree of order n with doubled path sum q has transmission
T(root) + n * d - q.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import titrees
from support import (
    level_path_sums,
    level_sets,
    level_transmissions,
    levels_from_parents,
    subtree_sizes_from_parents,
    validate_wti_tree,
)
from titrees import transmissions_bfs
from titrees.wti import SINGLE_VERTEX, join_wti_trees


def bfs_transmissions(tree):
    return transmissions_bfs(tree.parents)


class TestRootTransmissionOfJoin:
    """The root of a join: path sum 0, and by BFS the children's root
    transmissions plus n - 1."""

    def test_single_vertex(self):
        assert SINGLE_VERTEX.levels == (1 << 0,)
        assert not hasattr(SINGLE_VERTEX, "root_transmission")

    def test_spider_7(self, spider7):
        # BFS-checked: root of the 7-vertex spider with legs 1, 2, 3, whose
        # children have root transmissions 0, 1 and 3.
        assert spider7.levels[0] == 1 << 0
        assert bfs_transmissions(spider7)[0] == 10

    def test_path_5(self, chains):
        # BFS-checked: end of the 5-vertex path; the child is the
        # 4-vertex path rooted at an end, whose root transmission is 6.
        assert bfs_transmissions(chains[4])[0] == 6
        assert chains[5].levels[0] == 1 << 0
        assert bfs_transmissions(chains[5])[0] == 10
        # Level d of the path from its end: 2 * (4 + 3 + ... + (5 - d)).
        assert chains[5].levels == (1, 1 << 8, 1 << 14, 1 << 18, 1 << 20)


class TestChildTransmissionStep:
    """Level 1 of a join: 2c for a child of order c, transmission T(root) + n - 2c."""

    def test_leaf_child_of_spider(self, spider7):
        assert 2 in level_sets(spider7)[1]
        assert bfs_transmissions(spider7)[1] == 10 + 7 - 2  # BFS-checked: 15

    def test_leg3_anchor_of_spider(self, spider7):
        assert 6 in level_sets(spider7)[1]
        assert bfs_transmissions(spider7)[4] == 10 + 7 - 6  # BFS-checked: 11

    def test_two_vertex_tree(self, chains):
        # Both vertices of the 2-vertex tree have transmission 1: stepping
        # from the root to its only child crosses into c = 1 vertex of
        # n = 2, which changes nothing, as n * 1 - 2 = 0.
        assert chains[2].levels == (1 << 0, 1 << 2)
        assert bfs_transmissions(chains[2]) == [1, 1]


class TestLiftLevel:
    """Deeper levels: every level of a child of order c shifts by 2c, a bitset shift."""

    def test_far_leaf_of_leg2(self, spider7):
        # 2 * (2 + 1); BFS-checked transmission 10 + 2 * 7 - 6 = 18.
        assert 6 in level_sets(spider7)[2]
        assert bfs_transmissions(spider7)[3] == 18

    def test_leg3_interior_and_tip(self, spider7):
        # 2 * (3 + 2) and 2 * (3 + 2 + 1); BFS-checked transmissions 14 and 19.
        assert 10 in level_sets(spider7)[2]
        assert level_sets(spider7)[3] == {12}
        assert bfs_transmissions(spider7)[5:] == [14, 19]

    def test_identity_shift(self, pool12):
        # Under a lone parent, as under any other, a child's levels all
        # move by 2c, whatever the tree.
        for k in range(1, 12):
            for tree in pool12[k]:
                joined = join_wti_trees([tree])
                assert joined.levels[1:] == tuple(bits << 2 * k for bits in tree.levels)

    def test_preserves_order(self, spider7):
        # The children's vertices keep their join order: the derived
        # level-1 values list the legs of lengths 1, 2 and 3 in turn.
        assert level_path_sums(spider7.parents)[1] == (2, 4, 6)
        assert level_transmissions(spider7.parents)[1] == (15, 13, 11)
        assert spider7.parents == (0, 0, 0, 2, 0, 4, 5)


class TestJoinWtiTrees:
    def test_two_vertex_tree(self):
        tree = join_wti_trees([SINGLE_VERTEX])
        assert tree is not None
        assert tree.order == 2
        assert tree.levels == (1 << 0, 1 << 2)
        assert level_transmissions(tree.parents) == ((1,), (1,))
        assert tree.parents == (0, 0)

    def test_spider_7(self, spider7):
        # BFS-checked level lists of the legs-1,2,3 spider.
        assert spider7 is not None
        assert spider7.order == 7
        assert len(spider7.levels) - 1 == 3
        assert level_sets(spider7) == [{0}, {2, 4, 6}, {6, 10}, {12}]
        assert level_transmissions(spider7.parents) == ((10,), (15, 13, 11), (18, 14), (19,))
        assert bfs_transmissions(spider7) == [10, 15, 13, 18, 11, 14, 19]
        assert spider7.parents == (0, 0, 0, 2, 0, 4, 5)

    def test_cross_level_duplicates_allowed(self, spider8):
        # The legs-1,2,4 spider repeats 14 across levels 0 and 1 (the
        # root, and the leg-4 anchor with 14 + 8 - 2 * 4); within each
        # single level the values stay distinct, so the join succeeds.
        assert spider8 is not None
        assert spider8.levels[0] == 1 << 0
        assert level_sets(spider8)[1] == {2, 4, 8}
        assert level_transmissions(spider8.parents)[:2] == ((14,), (20, 18, 14))
        assert bfs_transmissions(spider8)[0] == 14

    def test_within_level_duplicate_fails(self, chains):
        # BFS-checked: both level-2 vertices closest to the join point end
        # up with transmission 20, so no WTI tree exists for this tuple:
        # both have doubled path sum 10, 2 * (3 + 2) in the 3-chain and
        # 2 * (4 + 1) under the leaf of t4.
        t4 = join_wti_trees([SINGLE_VERTEX, chains[2]])
        assert level_sets(chains[3]) == [{0}, {4}, {6}]
        assert level_sets(t4) == [{0}, {2, 4}, {6}]
        assert join_wti_trees([chains[3], t4]) is None

    def test_failure_carries_no_tree(self, chains):
        t4 = join_wti_trees([SINGLE_VERTEX, chains[2]])
        assert join_wti_trees([chains[3], t4]) is None  # None, not a partial record

    def test_rejects_nonincreasing_orders(self, chains):
        with pytest.raises(ValueError):
            join_wti_trees([chains[3], chains[2]])
        with pytest.raises(ValueError):
            join_wti_trees([chains[2], chains[2]])

    def test_order_check_survives_optimize_flag(self):
        # python -O strips asserts; the precondition must still raise.
        code = (
            "from titrees.wti import SINGLE_VERTEX, join_wti_trees\n"
            "try:\n"
            "    join_wti_trees([SINGLE_VERTEX, SINGLE_VERTEX])\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(titrees.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60).returncode == 0

    def test_depth_and_order_formulas(self, pool12):
        for k in (5, 8, 11):
            for tree in pool12[k][:20]:
                assert sum(bits.bit_count() for bits in tree.levels) == tree.order
                assert len(tree.levels) == max(levels_from_parents(tree.parents)) + 1


class TestPoolAgainstBfsOracle:
    """Exhaustive cross-checks of the stored arithmetic on all pool trees."""

    def test_stored_levels_equal_bfs_levels(self, pool12):
        # Rebuild each tree from its parent array alone and recompute all
        # transmissions by BFS; the per-level lists that the edge-step
        # identity derives must match exactly (ascending label order).
        for k in range(1, 13):
            for tree in pool12[k]:
                bfs = transmissions_bfs(tree.parents)
                level = levels_from_parents(tree.parents)
                grouped = [
                    tuple(bfs[v] for v in range(tree.order) if level[v] == i)
                    for i in range(len(tree.levels))
                ]
                assert tuple(grouped) == level_transmissions(tree.parents)

    def test_level_bitsets_equal_bfs_levels(self, pool12):
        # Each stored level-d bitset is the set of n * d - (T(v) - T(root))
        # over the vertices v on that level, by BFS, and the set of the
        # doubled path sums derived from the parent array.
        for k in range(1, 13):
            for tree in pool12[k]:
                bfs = transmissions_bfs(tree.parents)
                level = levels_from_parents(tree.parents)
                expected = [set() for _ in tree.levels]
                for v in range(tree.order):
                    expected[level[v]].add(k * level[v] - (bfs[v] - bfs[0]))
                assert level_sets(tree) == expected
                assert level_sets(tree) == [set(values) for values in level_path_sums(tree.parents)]

    def test_edge_step_identity(self, pool12):
        # For every edge, the BFS transmissions of child and parent differ
        # by (order - 2 * child subtree size).
        for k in range(1, 11):
            for tree in pool12[k]:
                bfs = transmissions_bfs(tree.parents)
                size = subtree_sizes_from_parents(tree.parents)
                for x in range(1, tree.order):
                    assert bfs[x] - bfs[tree.parents[x]] == tree.order - 2 * size[x]

    def test_parent_labels_topological(self, pool12):
        for k in range(2, 13):
            for tree in pool12[k]:
                assert all(tree.parents[x] < x for x in range(1, tree.order))

    def test_level_cardinalities_match_parents(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                level = levels_from_parents(tree.parents)
                for i, bits in enumerate(tree.levels):
                    assert level.count(i) == bits.bit_count()

    def test_validate_accepts_all_pool_trees(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                validate_wti_tree(tree)


class TestValidateRejectsCorruption:
    def test_duplicate_in_level(self, spider7):
        # A repeated value leaves its level with fewer bits than vertices.
        broken = spider7.__class__(
            order=spider7.order,
            parents=spider7.parents,
            levels=(1 << 0, 1 << 2 | 1 << 6, 1 << 6 | 1 << 10, 1 << 12),
        )
        with pytest.raises(ValueError):
            validate_wti_tree(broken)

    def test_parent_after_child(self, spider7):
        broken = spider7.__class__(
            order=spider7.order,
            parents=(0, 2, 0, 2, 0, 4, 5),
            levels=spider7.levels,
        )
        with pytest.raises(ValueError):
            validate_wti_tree(broken)

    def test_transmission_out_of_bounds(self):
        # The level-1 vertex of a 2-vertex tree has doubled path sum 2.
        broken = SINGLE_VERTEX.__class__(order=2, parents=(0, 0), levels=(1 << 0, 1 << 9))
        with pytest.raises(ValueError, match="outside 2..2"):
            validate_wti_tree(broken)

    def test_path_sums_differ_from_parents(self, spider7):
        # In range and with one bit per vertex, but not the spider's sums.
        broken = spider7.__class__(
            order=spider7.order,
            parents=spider7.parents,
            levels=(1 << 0, 1 << 2 | 1 << 4 | 1 << 6, 1 << 6 | 1 << 8, 1 << 12),
        )
        with pytest.raises(ValueError, match="differ"):
            validate_wti_tree(broken)
