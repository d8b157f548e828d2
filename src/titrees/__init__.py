"""Isomorph-free generation of transmission irregular trees.

The generator builds weakly transmission irregular rooted trees bottom
up, tracking each vertex's path sum (the subtree sizes on its path from
the root), from which its transmission relative to the root follows.
It then constructs the TI trees directly from these components: a
bitmask test picks the combinations whose transmissions are globally
distinct, and no failing combination is ever joined.  A brute-force
oracle based on plain breadth-first searches provides independent
verification.
"""

from .formats import graph6_line, parent_list_line, sparse6_line
from .generation import generate_ti_trees
from .oracle import canonical_form, enumerate_free_trees, is_ti_graph, transmissions_bfs

__version__ = "0.1.0"

__all__ = [
    "canonical_form",
    "enumerate_free_trees",
    "generate_ti_trees",
    "graph6_line",
    "is_ti_graph",
    "parent_list_line",
    "sparse6_line",
    "transmissions_bfs",
]
