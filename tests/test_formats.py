"""Tests for the graph6, sparse6 and parent-list codecs.

networkx serves as the reference codec: our encoders must agree with it
byte for byte, and our independently written decoders must invert them.
The encoders take parent tuples, as the generator emits them; edge
lists only describe the reference side.  The segment encoders are also
checked against the loop encoders of ``reference_formats.py``, split by
split and over the generator's whole stream.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import networkx as nx
import pytest

import reference_formats
from support import (
    chain_edges,
    decode_graph6,
    decode_sparse6,
    level_transmissions,
    levels_from_parents,
    parents_from_edges,
    star_edges,
    to_edge_list,
)
from titrees import (
    enumerate_free_trees,
    generate_ti_trees,
    graph6_line,
    parent_list_line,
    sparse6_line,
    transmissions_bfs,
)
from titrees.formats import GRAPH6_MAX_ORDER, _SEGMENTS

ENCODERS = [graph6_line, sparse6_line, parent_list_line]


def nx_graph(order, edges):
    g = nx.Graph()
    g.add_nodes_from(range(order))
    g.add_edges_from(edges)
    return g


def ti_trees_up_to(n):
    trees = []
    generate_ti_trees(n, None, trees.append)
    return trees


def pool_parents(pool, k):
    """The parent tuples of the pool trees of order k."""
    return [tree.parents for tree in pool[k]]


class TestToEdgeList:
    def test_single_vertex(self):
        assert to_edge_list((0,)) == []

    def test_two_vertex_tree(self, chains):
        assert to_edge_list(chains[2].parents) == [(0, 1)]

    def test_chain_of_three(self, chains):
        assert to_edge_list(chains[3].parents) == [(0, 1), (1, 2)]

    def test_sorted_small_first(self, spider7):
        edges = to_edge_list(spider7.parents)
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)


class TestGraph6:
    def test_single_vertex_literal(self):
        assert graph6_line((0,)) == b"@\n"

    def test_single_edge_literal(self, chains):
        assert graph6_line(chains[2].parents) == b"A_\n"

    def test_format_tag(self, chains):
        # The format travels in the bytes: only sparse6 starts with ':'.
        for parents in ((0,), chains[2].parents, chains[3].parents):
            assert not graph6_line(parents).startswith(b":")
            assert sparse6_line(parents).startswith(b":")

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for parents in pool_parents(pool12, k):
                assert decode_graph6(graph6_line(parents)) == (k, to_edge_list(parents))

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for parents in pool_parents(pool12, k):
                graph = nx_graph(k, to_edge_list(parents))
                expected = nx.to_graph6_bytes(graph, header=False)
                assert graph6_line(parents) == expected

    def test_multibyte_order_field(self):
        # A star on 63 vertices forces the three-byte order escape.
        edges = star_edges(63)
        parents = parents_from_edges(63, edges)
        graph = nx_graph(63, edges)
        g6, s6 = graph6_line(parents), sparse6_line(parents)
        assert g6[:1] == bytes([126]) and s6[:2] == b":~"
        assert g6 == nx.to_graph6_bytes(graph, header=False)
        assert s6 == nx.to_sparse6_bytes(graph, header=False)
        assert decode_graph6(g6) == decode_sparse6(s6) == (63, edges)

    def test_order_out_of_range(self):
        for encode in (graph6_line, sparse6_line):
            with pytest.raises(ValueError):
                encode(())
            with pytest.raises(ValueError):
                encode((0,) * (GRAPH6_MAX_ORDER + 1))

    def test_order_out_of_range_raises_before_allocating(self):
        # The graph6 line of the first order past the escape would take
        # about 5.5 GB, so the check must come before any buffer.
        parents = (0,) * (GRAPH6_MAX_ORDER + 1)
        for encode in (graph6_line, sparse6_line):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError):
                    encode(parents)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (encode.__name__, peak)


class TestSparse6:
    def test_single_vertex(self):
        enc = sparse6_line((0,))
        assert enc == b":@\n"
        assert decode_sparse6(enc) == (1, [])

    def test_round_trip_pool_trees(self, pool12):
        for k in range(1, 11):
            for parents in pool_parents(pool12, k):
                assert decode_sparse6(sparse6_line(parents)) == (k, to_edge_list(parents))

    def test_against_reference_codec(self, pool12):
        for k in range(1, 11):
            for parents in pool_parents(pool12, k):
                graph = nx_graph(k, to_edge_list(parents))
                expected = nx.to_sparse6_bytes(graph, header=False)
                assert sparse6_line(parents) == expected

    @pytest.mark.parametrize(
        "order,edges",
        [(2, [(0, 1)])]
        + [(n, shape(n)) for n in (4, 8, 16, 63, 64, 65) for shape in (chain_edges, star_edges)],
    )
    def test_power_of_two_padding(self, order, edges):
        # Orders 2, 4, 8, 16 are where sparse6 has a special padding rule,
        # and 63-65 need the three-byte order escape; the reference codec
        # is authoritative for both formats.
        parents = parents_from_edges(order, edges)
        graph = nx_graph(order, edges)
        assert graph6_line(parents) == nx.to_graph6_bytes(graph, header=False)
        mine = sparse6_line(parents)
        assert mine == nx.to_sparse6_bytes(graph, header=False)
        assert decode_sparse6(mine) == (order, sorted(edges))

    def test_cross_format_agreement_on_ti_trees(self):
        for parents in ti_trees_up_to(14):
            via_g6 = decode_graph6(graph6_line(parents))
            via_s6 = decode_sparse6(sparse6_line(parents))
            assert via_g6 == via_s6 == (len(parents), to_edge_list(parents))

    def test_linear_time_at_a_large_order(self):
        # 2^16 + 1 vertices widen the field to 17 bits.  A stream built by
        # shifting a growing int once per field, or spread by one shift of
        # the whole stream per group, takes seconds here; the loop encoder
        # is linear, and the segment encoder must be as well.
        rng = random.Random(16)
        parents = (0, *(rng.randrange(x) for x in range(1, 2**16 + 1)))
        start = time.process_time()
        expected = reference_formats.sparse6_line(parents)
        reference = time.process_time() - start
        start = time.process_time()
        assert sparse6_line(parents) == expected
        assert time.process_time() - start < 10 * reference + 0.1

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError):
            decode_sparse6(b"A_")


class TestPrintableRange:
    def test_all_payload_bytes_printable(self, pool12):
        for k in range(1, 13):
            for parents in pool_parents(pool12, k):
                for enc in (graph6_line(parents), sparse6_line(parents)):
                    assert enc.endswith(b"\n")
                    payload = enc[1:-1] if enc.startswith(b":") else enc[:-1]
                    assert all(63 <= byte <= 126 for byte in payload)


class TestOrderZero:
    @pytest.mark.parametrize("encoder", ENCODERS, ids=lambda e: e.__name__)
    def test_empty_tuple_is_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder(())


class TestParentList:
    def test_single_vertex_empty_line(self):
        assert parent_list_line((0,)) == b"\n"

    def test_two_vertex_tree(self, chains):
        assert parent_list_line(chains[2].parents) == b"0\n"

    def test_spider_labels(self, spider7):
        assert parent_list_line(spider7.parents) == b"0 0 2 0 4 5\n"

    def test_reparses_to_matching_transmissions(self, pool12):
        # Parse the line back into a parent array, rebuild the tree, and
        # compare BFS transmissions with the derived level lists.
        for k in range(1, 13):
            for parents in pool_parents(pool12, k):
                text = parent_list_line(parents).decode("ascii")
                rebuilt = (0, *(int(token) for token in text.split()))
                assert rebuilt == parents
                bfs = transmissions_bfs(rebuilt)
                level = levels_from_parents(parents)
                for i, values in enumerate(level_transmissions(parents)):
                    labels = [v for v in range(k) if level[v] == i]
                    assert tuple(bfs[v] for v in labels) == values


def reference_line(encoder, parents):
    """The line of the reference loop encoder of the same name."""
    return getattr(reference_formats, encoder.__name__)(parents)


def split_trees():
    """Every free tree through order 10, then a star, a path and random
    trees at the orders where sparse6's field widens (2^j, 2^j + 1) and
    graph6's order header escapes (63)."""
    for n in range(1, 11):
        yield from enumerate_free_trees(n)
    rng = random.Random(2025)
    for n in (15, 16, 17, 31, 32, 33, 62, 63, 64, 65, 300):
        yield (0,) * n
        yield (0, *range(n - 1))
        for _ in range(3):
            yield (0, *(rng.randrange(x) for x in range(1, n)))


class TestSegmentsAgainstReference:
    @pytest.mark.parametrize("encoder", ENCODERS, ids=lambda e: e.__name__)
    def test_every_split_adds_up_to_the_reference_line(self, encoder):
        # A segment from vertex 0 holds the header and the newline, so the
        # cut runs over the splits into two non-empty runs.
        segment, finish = _SEGMENTS[encoder]
        orders = set()
        for parents in split_trees():
            n = len(parents)
            expected = reference_line(encoder, parents)
            assert encoder(parents) == expected, parents
            for cut in range(1, n):
                head, tail = segment(parents[:cut], 0, n), segment(parents[cut:], cut, n)
                assert finish(head + tail) == expected, (parents, cut)
            orders.add(n)
        assert orders >= set(range(1, 11)) | {16, 17, 63, 64, 65, 300}

    @pytest.mark.parametrize("m", [None, 3])
    def test_the_emitted_stream_is_the_reference_encoding_of_the_tuples(self, m):
        # Every tree through order 22, serial and from two workers; the
        # generator adds up each tree from a prefix and a tail segment.
        trees: list = []
        census = generate_ti_trees(22, m, trees.append)
        assert len(trees) == sum(census.values()) > 4000
        for encoder in ENCODERS:
            expected = b"".join(reference_line(encoder, parents) for parents in trees)
            for workers in (1, 2):
                lines: list[bytes] = []
                assert generate_ti_trees(22, m, lines.append, workers=workers, encoder=encoder) == census
                assert b"".join(lines) == expected, (encoder.__name__, workers)
