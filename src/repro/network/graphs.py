"""Generic graph utilities: adjacency lists, BFS hops, components.

Small, dependency-free building blocks used by connectivity repair,
triangulation extraction, and the distributed protocols' centralized
reference implementations.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

__all__ = ["bfs_hops", "connected_components", "adjacency_from_edges"]


def adjacency_from_edges(n: int, edges: Iterable[Sequence[int]]) -> list[list[int]]:
    """Sorted neighbour lists for an undirected edge list over ``n`` nodes."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(s) for s in adj]


def bfs_hops(adjacency: Sequence[Sequence[int]], sources: Iterable[int]) -> np.ndarray:
    """Hop distance from the nearest source to every node (-1 if unreachable).

    This is the centralized equivalent of the paper's boundary-initiated
    flooding used to detect isolated subgroups (Sec. III-D1).
    """
    n = len(adjacency)
    dist = -np.ones(n, dtype=int)
    dq: deque[int] = deque()
    for s in sources:
        s = int(s)
        if dist[s] != 0:
            dist[s] = 0
            dq.append(s)
    while dq:
        v = dq.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def connected_components(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Connected components as sorted node lists, largest first."""
    n = len(adjacency)
    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    comps.sort(key=len, reverse=True)
    return comps
