"""Tests for the graph6, sparse6 and parent-list codecs.

networkx serves as the reference codec: our encoders must agree with it
byte for byte, and our independently written decoders must invert them.
The encoders take trees (anything with ``order`` and ``parents``); edge
lists only describe the reference side.
"""

from __future__ import annotations

import networkx as nx
import pytest

from conftest import adjacency_of
from support import (
    ParentArray,
    chain_edges,
    decode_graph6,
    decode_sparse6,
    level_transmissions,
    levels_from_parents,
    parent_array,
    star_edges,
    to_edge_list,
)
from titrees import generate_ti_trees, graph6_line, parent_list_line, sparse6_line, transmissions_bfs
from titrees.formats import GRAPH6_MAX_ORDER
from titrees.wti import SINGLE_VERTEX


def nx_graph(order, edges):
    g = nx.Graph()
    g.add_nodes_from(range(order))
    g.add_edges_from(edges)
    return g


def ti_trees_up_to(n):
    trees = []
    generate_ti_trees(n, None, trees.append)
    return trees


class TestToEdgeList:
    def test_single_vertex(self):
        assert to_edge_list(SINGLE_VERTEX) == []

    def test_two_vertex_tree(self, chains):
        assert to_edge_list(chains[2]) == [(0, 1)]

    def test_chain_of_three(self, chains):
        assert to_edge_list(chains[3]) == [(0, 1), (1, 2)]

    def test_sorted_small_first(self, spider7):
        edges = to_edge_list(spider7)
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)


class TestGraph6:
    def test_single_vertex_literal(self):
        assert graph6_line(SINGLE_VERTEX) == b"@\n"

    def test_single_edge_literal(self, chains):
        assert graph6_line(chains[2]) == b"A_\n"

    def test_format_tag(self, chains):
        # The format travels in the bytes: only sparse6 starts with ':'.
        for tree in (SINGLE_VERTEX, chains[2], chains[3]):
            assert not graph6_line(tree).startswith(b":")
            assert sparse6_line(tree).startswith(b":")

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                assert decode_graph6(graph6_line(tree)) == (k, to_edge_list(tree))

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                graph = nx_graph(k, to_edge_list(tree))
                expected = nx.to_graph6_bytes(graph, header=False)
                assert graph6_line(tree) == expected

    def test_multibyte_order_field(self):
        # A star on 63 vertices forces the three-byte order escape.
        edges = star_edges(63)
        tree = parent_array(63, edges)
        graph = nx_graph(63, edges)
        g6, s6 = graph6_line(tree), sparse6_line(tree)
        assert g6[:1] == bytes([126]) and s6[:2] == b":~"
        assert g6 == nx.to_graph6_bytes(graph, header=False)
        assert s6 == nx.to_sparse6_bytes(graph, header=False)
        assert decode_graph6(g6) == decode_sparse6(s6) == (63, edges)

    def test_order_out_of_range(self):
        for encode in (graph6_line, sparse6_line):
            with pytest.raises(ValueError):
                encode(ParentArray(0, ()))
            with pytest.raises(ValueError):
                encode(ParentArray(GRAPH6_MAX_ORDER + 1, ()))


class TestSparse6:
    def test_single_vertex(self):
        enc = sparse6_line(SINGLE_VERTEX)
        assert enc == b":@\n"
        assert decode_sparse6(enc) == (1, [])

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                assert decode_sparse6(sparse6_line(tree)) == (k, to_edge_list(tree))

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                graph = nx_graph(k, to_edge_list(tree))
                expected = nx.to_sparse6_bytes(graph, header=False)
                assert sparse6_line(tree) == expected

    @pytest.mark.parametrize(
        "order,edges",
        [(2, [(0, 1)])]
        + [(n, shape(n)) for n in (4, 8, 16, 63, 64, 65) for shape in (chain_edges, star_edges)],
    )
    def test_power_of_two_padding(self, order, edges):
        # Orders 2, 4, 8, 16 are where sparse6 has a special padding rule,
        # and 63-65 need the three-byte order escape; the reference codec
        # is authoritative for both formats.
        tree = parent_array(order, edges)
        graph = nx_graph(order, edges)
        assert graph6_line(tree) == nx.to_graph6_bytes(graph, header=False)
        mine = sparse6_line(tree)
        assert mine == nx.to_sparse6_bytes(graph, header=False)
        assert decode_sparse6(mine) == (order, sorted(edges))

    def test_cross_format_agreement_on_ti_trees(self):
        for tree in ti_trees_up_to(14):
            via_g6 = decode_graph6(graph6_line(tree))
            via_s6 = decode_sparse6(sparse6_line(tree))
            assert via_g6 == via_s6 == (tree.order, to_edge_list(tree))

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError):
            decode_sparse6(b"A_")


class TestPrintableRange:
    def test_all_payload_bytes_printable(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                for enc in (graph6_line(tree), sparse6_line(tree)):
                    assert enc.endswith(b"\n")
                    payload = enc[1:-1] if enc.startswith(b":") else enc[:-1]
                    assert all(63 <= byte <= 126 for byte in payload)


class TestParentList:
    def test_single_vertex_empty_line(self):
        assert parent_list_line(SINGLE_VERTEX) == b"\n"

    def test_two_vertex_tree(self, chains):
        assert parent_list_line(chains[2]) == b"0\n"

    def test_spider_labels(self, spider7):
        assert parent_list_line(spider7) == b"0 0 2 0 4 5\n"

    def test_reparses_to_matching_transmissions(self, pool12):
        # Parse the line back into a parent array, rebuild the tree, and
        # compare BFS transmissions with the derived level lists.
        for k in range(1, 13):
            for tree in pool12[k]:
                text = parent_list_line(tree).decode("ascii")
                parents = [int(token) for token in text.split()]
                assert len(parents) == k - 1
                rebuilt = adjacency_of(tree)
                bfs = transmissions_bfs(rebuilt)
                level = levels_from_parents(tree)
                for i, values in enumerate(level_transmissions(tree)):
                    labels = [v for v in range(k) if level[v] == i]
                    assert tuple(bfs[v] for v in labels) == values
