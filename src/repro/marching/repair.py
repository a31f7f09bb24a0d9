"""Global-connectivity repair (paper Sec. III-D1).

Even a least-stretched harmonic map can stretch some edges beyond the
communication range when M1 and M2 differ strongly; a robot - or a
whole subgroup - could then march without any surviving link and become
isolated, violating Definition 2.

The paper's fix, implemented here:

* Flood from the boundary vertices over the links that *survive* the
  planned motion; robots the flood never reaches form the isolated set
  (singletons or subgroups).
* For each isolated subgroup, pick the member with a one-range
  neighbour that is reached and closest (in hops) to the boundary; that
  member becomes the subgroup root, its neighbour the *reference*.
* The root - and, transitively, the whole subgroup - replaces its
  target with a parallel-escort move: the same displacement vector as
  the reference.  Because all robots move simultaneously and linearly,
  copying the reference's displacement freezes the relative position,
  so the escort link (and all intra-subgroup links) survive the whole
  transition by construction.

The escorted robots end away from their harmonic targets; the Lloyd
adjustment then pulls them to proper coverage positions without ever
breaking connectivity (step-halving rule).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanningError
from repro.geometry.vec import as_points
from repro.marching.result import RepairInfo
from repro.network.graphs import adjacency_from_edges, bfs_hops, connected_components
from repro.network.links import links_alive
from repro.network.udg import UnitDiskGraph
from repro.obs import get_metrics, span

__all__ = ["repair_targets"]

_MAX_ROUNDS = 10


def repair_targets(
    starts,
    targets,
    comm_range: float,
    boundary_anchors,
    links: np.ndarray | None = None,
    *,
    _hops=bfs_hops,
) -> tuple[np.ndarray, RepairInfo]:
    """Adjust ``targets`` so no robot loses its path to the boundary.

    Parameters
    ----------
    starts : (n, 2) array-like
        Positions in M1.
    targets : (n, 2) array-like
        Planned end positions (harmonic-map images).
    comm_range : float
    boundary_anchors : iterable of int
        Robot indices of the network boundary (outer loop of ``T``).
    links : (m, 2) int array, optional
        The M1 communication links; recomputed from ``starts`` when
        omitted.
    _hops : callable, private
        The isolation detector ``(adjacency, anchors) -> hops``: hop
        distance to the nearest anchor over the surviving links, -1
        when unreached.  Centralized BFS by default; the distributed
        planner passes the subgroup-detection protocol.

    Returns
    -------
    (repaired_targets, RepairInfo)

    Raises
    ------
    PlanningError
        If repair cannot reconnect everyone within a bounded number of
        rounds (should not happen: escorts only shrink the isolated
        set).
    """
    p = as_points(starts)
    q = as_points(targets).copy()
    n = len(p)
    if len(q) != n:
        raise PlanningError("starts/targets count mismatch")
    anchors = sorted({int(a) for a in boundary_anchors})
    if not anchors:
        raise PlanningError("repair needs at least one boundary anchor")
    if links is None:
        links = UnitDiskGraph(p, comm_range).edges
    links = np.asarray(links, dtype=int).reshape(-1, 2)

    # Physical one-range neighbours in M1 (any link, surviving or not).
    full_adj = adjacency_from_edges(n, links)
    escorted: dict[int, int] = {}
    isolated_before = -1
    attempted = succeeded = 0
    metrics = get_metrics()
    with span("marching.repair", robots=n, anchors=len(anchors)) as rec:
        for round_idx in range(1, _MAX_ROUNDS + 1):
            # Links that survive the synchronous straight march: alive at
            # the endpoints (distance is convex in t, so endpoints
            # suffice).
            alive = links_alive(links, q, comm_range) & links_alive(
                links, p, comm_range
            )
            surviving = links[alive]
            adj = adjacency_from_edges(n, surviving)
            hops = _hops(adj, anchors)
            isolated = np.flatnonzero(hops < 0)
            if round_idx == 1:
                isolated_before = len(isolated)
            if len(isolated) == 0:
                rec.set_attributes(
                    rounds=round_idx,
                    isolated_before=isolated_before,
                    escorted=len(escorted),
                    attempted=attempted,
                    succeeded=succeeded,
                )
                metrics.counter("repair.subgroups_attempted").inc(attempted)
                metrics.counter("repair.subgroups_escorted").inc(succeeded)
                return q, RepairInfo(
                    escorted=tuple(sorted(escorted)),
                    references=dict(escorted),
                    rounds=round_idx,
                    isolated_before=isolated_before,
                )

            # Group the isolated robots into subgroups over surviving
            # links.
            iso_set = set(isolated.tolist())
            sub_adj = [
                [w for w in adj[v] if w in iso_set] if v in iso_set else []
                for v in range(n)
            ]
            # connected_components returns singletons for non-isolated
            # nodes too; keep only the genuinely isolated components.
            comps = [
                c for c in connected_components(sub_adj) if set(c) <= iso_set
            ]

            progressed = False
            for comp in comps:
                attempted += 1
                root, ref = _choose_root_and_reference(comp, full_adj, hops, p)
                if root is None or ref is None:
                    continue
                displacement = q[ref] - p[ref]
                for member in comp:
                    q[member] = p[member] + displacement
                    escorted[member] = ref
                progressed = True
                succeeded += 1
            if not progressed:
                raise PlanningError(
                    "connectivity repair stalled: an isolated subgroup has "
                    "no reached one-range neighbour"
                )
    raise PlanningError(
        f"connectivity repair did not converge in {_MAX_ROUNDS} rounds"
    )


def _choose_root_and_reference(
    comp: list[int],
    full_adj: list[list[int]],
    hops: np.ndarray,
    p: np.ndarray,
) -> tuple[int | None, int | None]:
    """Pick the subgroup root and its escort reference.

    The paper: "choose a vertex with one of its one-range neighbors not
    just connecting but also nearest to a boundary vertex".  Ties break
    by Euclidean closeness of the reference (the single-robot rule
    "chooses the closest one-range neighbor").
    """
    best: tuple[int, float] | None = None
    best_pair: tuple[int, int] | None = None
    for v in comp:
        for w in full_adj[v]:
            if hops[w] < 0:
                continue  # w itself is isolated
            d = float(np.hypot(p[v, 0] - p[w, 0], p[v, 1] - p[w, 1]))
            key = (int(hops[w]), d)
            if best is None or key < best:
                best = key
                best_pair = (v, w)
    if best_pair is None:
        return None, None
    return best_pair
