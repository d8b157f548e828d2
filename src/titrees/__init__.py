"""Isomorph-free generation of transmission irregular trees.

The generator builds weakly transmission irregular rooted trees bottom
up with incremental transmission arithmetic and filters for the trees
whose transmissions are globally distinct; a brute-force oracle based on
plain breadth-first searches provides independent verification.
"""

from .enumeration import (
    IncreasingSequence,
    WTIPool,
    generate_increasing,
    generate_wti_trees,
)
from .formats import (
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    encode_parent_list,
    encode_sparse6,
    to_edge_list,
)
from .generation import (
    SubtreePool,
    TICensus,
    generate_ti_trees,
    get_max_degree,
    is_ti_tree,
)
from .oracle import (
    AdjacencyTree,
    canonical_form,
    enumerate_free_trees,
    enumerate_rooted_trees,
    is_ti_graph,
    prufer_to_edges,
    transmissions_bfs,
)
from .wti import (
    SINGLE_VERTEX,
    WTITree,
    child_transmission_step,
    join_wti_trees,
    lift_level,
    root_transmission_of_join,
    validate_wti_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyTree",
    "IncreasingSequence",
    "SINGLE_VERTEX",
    "SubtreePool",
    "TICensus",
    "WTIPool",
    "WTITree",
    "canonical_form",
    "child_transmission_step",
    "decode_graph6",
    "decode_sparse6",
    "encode_graph6",
    "encode_parent_list",
    "encode_sparse6",
    "enumerate_free_trees",
    "enumerate_rooted_trees",
    "generate_increasing",
    "generate_ti_trees",
    "generate_wti_trees",
    "get_max_degree",
    "is_ti_graph",
    "is_ti_tree",
    "join_wti_trees",
    "lift_level",
    "prufer_to_edges",
    "root_transmission_of_join",
    "to_edge_list",
    "transmissions_bfs",
    "validate_wti_tree",
]
