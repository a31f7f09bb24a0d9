"""Tests for adjacency and BFS utilities (with networkx as oracle)."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network import (
    adjacency_from_edges,
    bfs_hops,
    connected_components,
)

edge_list = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40
)


class TestAdjacencyAndBfs:
    def test_adjacency_builds_sorted(self):
        adj = adjacency_from_edges(4, [(0, 2), (2, 1), (0, 1)])
        assert adj == [[1, 2], [0, 2], [0, 1], []]

    def test_self_loops_dropped(self):
        adj = adjacency_from_edges(3, [(1, 1), (0, 1)])
        assert adj == [[1], [0], []]

    def test_bfs_hops_line(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        hops = bfs_hops(adj, [0])
        assert hops.tolist() == [0, 1, 2, 3]

    def test_bfs_multi_source(self):
        adj = adjacency_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        hops = bfs_hops(adj, [0, 4])
        assert hops.tolist() == [0, 1, 2, 1, 0]

    def test_bfs_unreachable(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        hops = bfs_hops(adj, [0])
        assert hops[2] == -1

    @given(edge_list, st.integers(0, 14))
    @settings(max_examples=100)
    def test_bfs_matches_networkx(self, edges, source):
        n = 15
        adj = adjacency_from_edges(n, edges)
        hops = bfs_hops(adj, [source])
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, v in edges if u != v)
        lengths = nx.single_source_shortest_path_length(g, source)
        for v in range(n):
            expected = lengths.get(v, -1)
            assert hops[v] == expected

    def test_connected_components_order(self):
        adj = adjacency_from_edges(6, [(0, 1), (1, 2), (3, 4)])
        comps = connected_components(adj)
        assert comps[0] == [0, 1, 2]
        assert comps[1] == [3, 4]
        assert comps[2] == [5]
