"""Networking substrate: unit-disk graphs, links, extraction, graph utils."""

from repro.network.extract import (
    edge_shared_neighbor_counts,
    extract_triangulation,
    extract_triangulation_localized,
)
from repro.network.graphs import (
    adjacency_from_edges,
    bfs_hops,
    connected_components,
)
from repro.network.links import LinkTable, count_surviving_links, links_alive
from repro.network.udg import UnitDiskGraph, isolated_counts, udg_edges

__all__ = [
    "LinkTable",
    "UnitDiskGraph",
    "adjacency_from_edges",
    "bfs_hops",
    "connected_components",
    "count_surviving_links",
    "edge_shared_neighbor_counts",
    "extract_triangulation",
    "extract_triangulation_localized",
    "isolated_counts",
    "links_alive",
    "udg_edges",
]
