"""Tests for the WTI tree record and the incremental join arithmetic.

Expected values marked as BFS-checked were computed with the brute-force
oracle (plain breadth-first distance sums) and frozen here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import titrees
from conftest import adjacency_of, levels_from_parents, subtree_sizes_from_parents
from support import level_sets, level_transmissions, validate_wti_tree
from titrees import join_wti_trees, transmissions_bfs
from titrees.wti import SINGLE_VERTEX


class TestRootTransmissionOfJoin:
    """The root bit of a join: the children's root transmissions plus n - 1."""

    def test_single_vertex(self):
        assert SINGLE_VERTEX.levels[0] == 1 << 0
        assert SINGLE_VERTEX.root_transmission == 0

    def test_spider_7(self, spider7):
        # BFS-checked: root of the 7-vertex spider with legs 1, 2, 3, whose
        # children have root transmissions 0, 1 and 3.
        assert spider7.levels[0] == 1 << 10
        assert spider7.root_transmission == 10

    def test_path_5(self, chains):
        # BFS-checked: end of the 5-vertex path; the child is the
        # 4-vertex path rooted at an end, whose root transmission is 6.
        assert chains[4].root_transmission == 6
        assert chains[5].levels[0] == 1 << 10


class TestChildTransmissionStep:
    """Level 1 of a join: the root's value plus n - 2c for a child of order c."""

    def test_leaf_child_of_spider(self, spider7):
        assert 15 in level_sets(spider7)[1]  # BFS-checked: 10 + 7 - 2 * 1

    def test_leg3_anchor_of_spider(self, spider7):
        assert 11 in level_sets(spider7)[1]  # BFS-checked: 10 + 7 - 2 * 3

    def test_two_vertex_tree(self, chains):
        # Both vertices of the 2-vertex tree have transmission 1: stepping
        # from the root (transmission 1) to its only child changes nothing.
        assert chains[2].levels == (1 << 1, 1 << 1)


class TestLiftLevel:
    """Deeper levels: level l of a child shifts by one amount, a bitset shift."""

    def test_far_leaf_of_leg2(self, spider7):
        assert 18 in level_sets(spider7)[2]  # BFS-checked

    def test_leg3_interior_and_tip(self, spider7):
        assert 14 in level_sets(spider7)[2]  # BFS-checked
        assert level_sets(spider7)[3] == {19}  # BFS-checked

    def test_identity_shift(self, pool12):
        # Under a lone parent (n = c + 1) a child's level l moves by
        # R + n - 2c - rt + (n - c) * l = l + 1, whatever the tree.
        for k in range(1, 11):
            for tree in pool12[k]:
                joined = join_wti_trees([tree])
                assert joined.levels[1:] == tuple(bits << (l + 1) for l, bits in enumerate(tree.levels))

    def test_preserves_order(self, spider7):
        # The children's vertices keep their join order: the derived
        # level-1 values list the legs of lengths 1, 2 and 3 in turn.
        assert level_transmissions(spider7)[1] == (15, 13, 11)
        assert spider7.parents == (0, 0, 0, 2, 0, 4, 5)


class TestJoinWtiTrees:
    def test_two_vertex_tree(self):
        tree = join_wti_trees([SINGLE_VERTEX])
        assert tree is not None
        assert tree.order == 2
        assert tree.levels == (1 << 1, 1 << 1)
        assert level_transmissions(tree) == ((1,), (1,))
        assert tree.parents == (0, 0)

    def test_spider_7(self, spider7):
        # BFS-checked level lists of the legs-1,2,3 spider.
        assert spider7 is not None
        assert spider7.order == 7
        assert len(spider7.levels) - 1 == 3
        assert level_sets(spider7) == [{10}, {15, 13, 11}, {18, 14}, {19}]
        assert level_transmissions(spider7) == ((10,), (15, 13, 11), (18, 14), (19,))
        assert spider7.parents == (0, 0, 0, 2, 0, 4, 5)

    def test_cross_level_duplicates_allowed(self, spider8):
        # The legs-1,2,4 spider repeats 14 across levels 0 and 1; within
        # each single level the values stay distinct, so the join succeeds.
        assert spider8 is not None
        assert spider8.levels[0] == 1 << 14
        assert level_sets(spider8)[1] == {20, 18, 14}
        assert level_transmissions(spider8)[1] == (20, 18, 14)

    def test_within_level_duplicate_fails(self, chains):
        # BFS-checked: both level-2 vertices closest to the join point end
        # up with transmission 20, so no WTI tree exists for this tuple.
        t4 = join_wti_trees([SINGLE_VERTEX, chains[2]])
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
                assert len(tree.levels) == max(levels_from_parents(tree)) + 1


class TestPoolAgainstBfsOracle:
    """Exhaustive cross-checks of the stored arithmetic on all pool trees."""

    def test_stored_levels_equal_bfs_levels(self, pool12):
        # Rebuild each tree from its parent array alone and recompute all
        # transmissions by BFS; the per-level lists that the edge-step
        # identity derives must match exactly (ascending label order).
        for k in range(1, 13):
            for tree in pool12[k]:
                bfs = transmissions_bfs(adjacency_of(tree))
                level = levels_from_parents(tree)
                grouped = [
                    tuple(bfs[v] for v in range(tree.order) if level[v] == i)
                    for i in range(len(tree.levels))
                ]
                assert tuple(grouped) == level_transmissions(tree)

    def test_level_bitsets_equal_bfs_levels(self, pool12):
        # Each stored level bitset is the set of BFS transmissions of the
        # vertices on that level.
        for k in range(1, 13):
            for tree in pool12[k]:
                bfs = transmissions_bfs(adjacency_of(tree))
                level = levels_from_parents(tree)
                expected = [set() for _ in tree.levels]
                for v in range(tree.order):
                    expected[level[v]].add(bfs[v])
                assert level_sets(tree) == expected

    def test_edge_step_identity(self, pool12):
        # For every edge, the BFS transmissions of child and parent differ
        # by (order - 2 * child subtree size).
        for k in range(1, 11):
            for tree in pool12[k]:
                bfs = transmissions_bfs(adjacency_of(tree))
                size = subtree_sizes_from_parents(tree)
                for x in range(1, tree.order):
                    assert bfs[x] - bfs[tree.parents[x]] == tree.order - 2 * size[x]

    def test_parent_labels_topological(self, pool12):
        for k in range(2, 13):
            for tree in pool12[k]:
                assert all(tree.parents[x] < x for x in range(1, tree.order))

    def test_level_cardinalities_match_parents(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                level = levels_from_parents(tree)
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
            levels=(1 << 10, 1 << 15 | 1 << 11, 1 << 18 | 1 << 14, 1 << 19),
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
        broken = SINGLE_VERTEX.__class__(order=2, parents=(0, 0), levels=(1 << 9, 1 << 1))
        with pytest.raises(ValueError):
            validate_wti_tree(broken)
