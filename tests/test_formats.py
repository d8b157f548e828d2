"""Tests for the graph6, sparse6 and parent-list codecs.

networkx serves as the reference codec: our encoders must agree with it
byte for byte, and our independently written decoders must invert them.
"""

from __future__ import annotations

import networkx as nx
import pytest

from conftest import adjacency_of, levels_from_parents
from titrees import (
    SINGLE_VERTEX,
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    encode_parent_list,
    encode_sparse6,
    generate_ti_trees,
    to_edge_list,
    transmissions_bfs,
)
from titrees.formats import GRAPH6_MAX_ORDER


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
        assert encode_graph6([], 1) == b"@"

    def test_single_edge_literal(self):
        assert encode_graph6([(0, 1)], 2) == b"A_"

    def test_format_tag(self):
        # The format travels in the bytes: only sparse6 starts with ':'.
        for edges, k in (([], 1), ([(0, 1)], 2), ([(0, 1), (1, 2)], 3)):
            assert not encode_graph6(edges, k).startswith(b":")
            assert encode_sparse6(edges, k).startswith(b":")

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                edges = to_edge_list(tree)
                assert decode_graph6(encode_graph6(edges, k)) == (k, edges)

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                edges = to_edge_list(tree)
                expected = nx.to_graph6_bytes(nx_graph(k, edges), header=False).strip()
                assert encode_graph6(edges, k) == expected

    def test_multibyte_order_field(self):
        # A star on 63 vertices forces the three-byte order escape.
        edges = [(0, v) for v in range(1, 63)]
        mine = encode_graph6(edges, 63)
        assert mine[:1] == bytes([126])
        assert mine == nx.to_graph6_bytes(nx_graph(63, edges), header=False).strip()
        assert decode_graph6(mine) == (63, edges)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            encode_graph6([], 0)
        with pytest.raises(ValueError):
            encode_graph6([], GRAPH6_MAX_ORDER + 1)


class TestSparse6:
    def test_single_vertex(self):
        enc = encode_sparse6([], 1)
        assert enc == b":@"
        assert decode_sparse6(enc) == (1, [])

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                edges = to_edge_list(tree)
                assert decode_sparse6(encode_sparse6(edges, k)) == (k, edges)

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for tree in pool12[k]:
                edges = to_edge_list(tree)
                expected = nx.to_sparse6_bytes(nx_graph(k, edges), header=False).strip()
                assert encode_sparse6(edges, k) == expected

    @pytest.mark.parametrize(
        "order,edges",
        [
            (2, [(0, 1)]),
            (4, [(0, 1), (1, 2), (2, 3)]),
            (4, [(0, 1), (0, 2), (0, 3)]),
            (8, [(i, i + 1) for i in range(7)]),
            (8, [(0, i) for i in range(1, 8)]),
            (16, [(i, i + 1) for i in range(15)]),
            (16, [(0, i) for i in range(1, 16)]),
        ],
    )
    def test_power_of_two_padding(self, order, edges):
        # Orders 2, 4, 8, 16 hit the special padding rule; the reference
        # codec is authoritative for these.
        expected = nx.to_sparse6_bytes(nx_graph(order, edges), header=False).strip()
        mine = encode_sparse6(edges, order)
        assert mine == expected
        assert decode_sparse6(mine) == (order, sorted(edges))

    def test_cross_format_agreement_on_ti_trees(self):
        for tree in ti_trees_up_to(14):
            edges = to_edge_list(tree)
            via_g6 = decode_graph6(encode_graph6(edges, tree.order))
            via_s6 = decode_sparse6(encode_sparse6(edges, tree.order))
            assert via_g6 == via_s6 == (tree.order, edges)

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError):
            decode_sparse6(b"A_")


class TestPrintableRange:
    def test_all_payload_bytes_printable(self, pool12):
        for k in range(1, 13):
            for tree in pool12[k]:
                edges = to_edge_list(tree)
                for enc in (encode_graph6(edges, k), encode_sparse6(edges, k)):
                    payload = enc[1:] if enc.startswith(b":") else enc
                    assert all(63 <= byte <= 126 for byte in payload)


class TestParentList:
    def test_single_vertex_empty_line(self):
        assert encode_parent_list(SINGLE_VERTEX) == b""

    def test_two_vertex_tree(self, chains):
        assert encode_parent_list(chains[2]) == b"0"

    def test_spider_labels(self, spider7):
        assert encode_parent_list(spider7) == b"0 0 2 0 4 5"

    def test_reparses_to_matching_transmissions(self, pool12):
        # Parse the line back into a parent array, rebuild the tree, and
        # compare BFS transmissions with the stored level lists.
        for k in range(1, 13):
            for tree in pool12[k]:
                text = encode_parent_list(tree).decode("ascii")
                parents = [int(token) for token in text.split()]
                assert len(parents) == k - 1
                rebuilt = adjacency_of(tree)
                bfs = transmissions_bfs(rebuilt)
                level = levels_from_parents(tree)
                for i, values in enumerate(tree.level_transmissions):
                    labels = [v for v in range(k) if level[v] == i]
                    assert tuple(bfs[v] for v in labels) == values
