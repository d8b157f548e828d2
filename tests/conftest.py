"""Shared fixtures and conversion helpers for the test suite."""

from __future__ import annotations

import pytest

from support import to_edge_list
from titrees import AdjacencyTree, WTITree
from titrees.enumeration import generate_wti_trees
from titrees.wti import SINGLE_VERTEX, join_wti_trees


def adjacency_of(tree: WTITree) -> AdjacencyTree:
    """Rebuild a plain adjacency-list tree from the parent array."""
    return AdjacencyTree.from_edges(tree.order, to_edge_list(tree))


def ordered_encoding(tree: WTITree) -> bytes:
    """Parenthesized encoding of the ordered rooted tree, children in label order."""
    children: list[list[int]] = [[] for _ in range(tree.order)]
    for x in range(1, tree.order):
        children[tree.parents[x]].append(x)

    def encode(v: int) -> bytes:
        return b"(" + b"".join(encode(c) for c in children[v]) + b")"

    return encode(0)


@pytest.fixture(scope="session")
def pool12():
    """All WTI trees of order <= 12 with unbounded children."""
    return generate_wti_trees(12, 12)


@pytest.fixture(scope="session")
def chains():
    """Paths rooted at an end, indexed by order 1..6."""
    paths = {1: SINGLE_VERTEX}
    for k in range(2, 7):
        paths[k] = join_wti_trees([paths[k - 1]])
    return paths


@pytest.fixture(scope="session")
def spider7(chains):
    """The 7-vertex spider with legs 1, 2, 3: the smallest nontrivial TI tree."""
    return join_wti_trees([SINGLE_VERTEX, chains[2], chains[3]])


@pytest.fixture(scope="session")
def spider8(chains):
    """The 8-vertex spider with legs 1, 2, 4: WTI but not TI."""
    return join_wti_trees([SINGLE_VERTEX, chains[2], chains[4]])
