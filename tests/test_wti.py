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
from hypothesis import given
from hypothesis import strategies as st

import titrees
from conftest import adjacency_of, levels_from_parents, subtree_sizes_from_parents
from support import validate_wti_tree
from titrees import join_wti_trees, transmissions_bfs
from titrees.wti import (
    SINGLE_VERTEX,
    child_transmission_step,
    lift_level,
    root_transmission_of_join,
)


class TestRootTransmissionOfJoin:
    def test_single_vertex(self):
        assert root_transmission_of_join([], 1) == 0

    def test_spider_7(self):
        # BFS-checked: root of the 7-vertex spider with legs 1, 2, 3.
        assert root_transmission_of_join([0, 1, 3], 7) == 10

    def test_path_5(self):
        # BFS-checked: end of the 5-vertex path; the child is the
        # 4-vertex path rooted at an end, whose root transmission is 6.
        assert root_transmission_of_join([6], 5) == 10


class TestChildTransmissionStep:
    def test_leaf_child_of_spider(self):
        assert child_transmission_step(10, 7, 1) == 15  # BFS-checked

    def test_leg3_anchor_of_spider(self):
        assert child_transmission_step(10, 7, 3) == 11  # BFS-checked

    def test_two_vertex_tree(self):
        # Both vertices of the 2-vertex tree have transmission 1: stepping
        # from the root (transmission 1) to its only child changes nothing.
        assert child_transmission_step(1, 2, 1) == 1


class TestLiftLevel:
    def test_far_leaf_of_leg2(self):
        assert lift_level([1], 12, 7, 2, 1) == [18]  # BFS-checked

    def test_leg3_interior_and_tip(self):
        assert lift_level([2], 8, 7, 3, 1) == [14]  # BFS-checked
        assert lift_level([3], 8, 7, 3, 2) == [19]  # BFS-checked

    @given(
        values=st.lists(st.integers(min_value=0, max_value=500)),
        order=st.integers(min_value=1, max_value=50),
        level=st.integers(min_value=0, max_value=20),
    )
    def test_identity_shift(self, values, order, level):
        assert lift_level(values, 0, order, order, level) == values

    def test_preserves_order(self):
        assert lift_level([5, 1, 3], 2, 9, 4, 2) == [17, 13, 15]


class TestJoinWtiTrees:
    def test_two_vertex_tree(self):
        tree = join_wti_trees([SINGLE_VERTEX])
        assert tree is not None
        assert tree.order == 2
        assert tree.level_transmissions == ((1,), (1,))
        assert tree.parents == (0, 0)

    def test_spider_7(self, spider7):
        # BFS-checked level lists of the legs-1,2,3 spider.
        assert spider7 is not None
        assert spider7.order == 7
        assert spider7.depth == 3
        assert spider7.level_transmissions == ((10,), (15, 13, 11), (18, 14), (19,))
        assert spider7.parents == (0, 0, 0, 2, 0, 4, 5)

    def test_cross_level_duplicates_allowed(self, spider8):
        # The legs-1,2,4 spider repeats 14 across levels 0 and 1; within
        # each single level the values stay distinct, so the join succeeds.
        assert spider8 is not None
        assert spider8.level_transmissions[0] == (14,)
        assert spider8.level_transmissions[1] == (20, 18, 14)

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
                assert sum(len(v) for v in tree.level_transmissions) == tree.order
                assert len(tree.level_transmissions) == tree.depth + 1


class TestPoolAgainstBfsOracle:
    """Exhaustive cross-checks of the stored arithmetic on all pool trees."""

    def test_stored_levels_equal_bfs_levels(self, pool12):
        # Rebuild each tree from its parent array alone and recompute all
        # transmissions by BFS; the per-level lists must match exactly
        # (stored order groups vertices by ascending label within a level).
        for k in range(1, 13):
            for tree in pool12[k]:
                bfs = transmissions_bfs(adjacency_of(tree))
                level = levels_from_parents(tree)
                grouped = [
                    tuple(bfs[v] for v in range(tree.order) if level[v] == i)
                    for i in range(tree.depth + 1)
                ]
                assert tuple(grouped) == tree.level_transmissions

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
                for i, values in enumerate(tree.level_transmissions):
                    assert level.count(i) == len(values)

    def test_validate_accepts_all_pool_trees(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                validate_wti_tree(tree)


class TestValidateRejectsCorruption:
    def test_duplicate_in_level(self, spider7):
        broken = spider7.__class__(
            order=spider7.order,
            depth=spider7.depth,
            parents=spider7.parents,
            level_transmissions=((10,), (15, 15, 11), (18, 14), (19,)),
        )
        with pytest.raises(ValueError):
            validate_wti_tree(broken)

    def test_parent_after_child(self, spider7):
        broken = spider7.__class__(
            order=spider7.order,
            depth=spider7.depth,
            parents=(0, 2, 0, 2, 0, 4, 5),
            level_transmissions=spider7.level_transmissions,
        )
        with pytest.raises(ValueError):
            validate_wti_tree(broken)

    def test_transmission_out_of_bounds(self):
        broken = SINGLE_VERTEX.__class__(
            order=2, depth=1, parents=(0, 0), level_transmissions=((9,), (1,))
        )
        with pytest.raises(ValueError):
            validate_wti_tree(broken)
