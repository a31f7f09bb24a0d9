"""Hole-avoiding detour paths (Sec. III-D3 of the paper).

When a robot's straight-line moving path crosses a hole, the paper's
rule is: "when the mobile robot hits the boundary of the hole, the
robot goes along the boundary until it can follow its computed moving
path again."  :func:`detour_path` turns a straight segment into the
corresponding piecewise-linear path: enter the hole boundary at the
first intersection, walk the shorter boundary arc (slightly inflated so
the path stays in the free region), and leave at the last intersection.

The core functions operate on a plain list of hole polygons, so a
march can avoid the *union* of the source and target FoIs' holes
(robots leaving a hole-bearing M1 must dodge its obstacles just as they
dodge M2's); the ``FieldOfInterest`` wrappers keep the convenient
single-region interface.

Every decision above rests on :func:`_segment_hole_hits`, the
intersections of one segment with one hole boundary.  It runs as a
single numpy pass over the hole's cached edge arrays
(:func:`repro.geometry.segment.segment_intersection_points`), which
repeats the scalar predicate's IEEE operations in the same order, so
its hits are bitwise-equal to the per-edge loop kept as
:func:`_segment_hole_hits_scalar` - the oracle that
``tests/test_swarm_scale_vectorization.py`` checks it against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.foi.region import FieldOfInterest
from repro.geometry.polygon import Polygon
from repro.geometry.segment import (
    segment_intersection_point,
    segment_intersection_points,
)
from repro.geometry.vec import as_point, polyline_length

__all__ = [
    "detour_path",
    "detour_path_holes",
    "path_blocked_by_hole",
    "path_blocked_by_holes",
]

_MAX_DETOURS = 32


def _segment_hole_hits(p, q, hole: Polygon) -> list[tuple[float, np.ndarray, int]]:
    """Intersections of segment ``[p, q]`` with the hole boundary.

    Returns a list of ``(t, point, edge_index)`` sorted by the segment
    parameter ``t``.  One vectorised pass over the hole's cached edges;
    bitwise-equal to :func:`_segment_hole_hits_scalar`.
    """
    p = as_point(p)
    q = as_point(q)
    seg = q - p
    seg_len2 = float(seg @ seg)
    if seg_len2 < 1e-24:
        return []
    ends, dirs = hole.edge_vectors
    index, points = segment_intersection_points(p, q, hole.vertices, ends, dirs)
    hits = [
        (float((x - p) @ seg / seg_len2), x, int(i)) for i, x in zip(index, points)
    ]
    return _sort_and_merge(hits)


def _segment_hole_hits_scalar(
    p, q, hole: Polygon
) -> list[tuple[float, np.ndarray, int]]:
    """Per-edge reference for :func:`_segment_hole_hits` (the test oracle)."""
    p = as_point(p)
    q = as_point(q)
    hits: list[tuple[float, np.ndarray, int]] = []
    v = hole.vertices
    n = len(v)
    seg = q - p
    seg_len2 = float(seg @ seg)
    if seg_len2 < 1e-24:
        return []
    for i in range(n):
        x = segment_intersection_point(p, q, v[i], v[(i + 1) % n])
        if x is not None:
            t = float((x - p) @ seg / seg_len2)
            hits.append((t, x, i))
    return _sort_and_merge(hits)


def _sort_and_merge(
    hits: list[tuple[float, np.ndarray, int]],
) -> list[tuple[float, np.ndarray, int]]:
    """Sort hits by ``t`` (stably) and drop near-duplicates."""
    hits.sort(key=lambda h: h[0])
    # Merge hits that coincide (segment passing exactly through a vertex).
    merged: list[tuple[float, np.ndarray, int]] = []
    for h in hits:
        if merged and abs(h[0] - merged[-1][0]) < 1e-9:
            continue
        merged.append(h)
    return merged


def path_blocked_by_holes(holes: Sequence[Polygon], p, q) -> int | None:
    """Index of the first hole whose *interior* the segment ``[p, q]`` crosses.

    Grazing contact with a hole boundary does not count.  Returns
    ``None`` when the straight path is free.
    """
    p = as_point(p)
    q = as_point(q)
    first: tuple[float, int] | None = None
    for idx, hole in enumerate(holes):
        hits = _segment_hole_hits(p, q, hole)
        if len(hits) < 2:
            continue
        # Midpoint between consecutive crossings decides interior passage.
        for (t0, x0, _), (t1, x1, _) in zip(hits, hits[1:]):
            mid = (x0 + x1) / 2.0
            if bool(hole.contains(mid, include_boundary=False)):
                if first is None or t0 < first[0]:
                    first = (t0, idx)
                break
    return None if first is None else first[1]


def path_blocked_by_hole(foi: FieldOfInterest, p, q) -> int | None:
    """:func:`path_blocked_by_holes` over one FoI's hole list."""
    return path_blocked_by_holes(foi.holes, p, q)


def _inflate(hole: Polygon, margin: float) -> np.ndarray:
    """Hole boundary pushed outward from its centroid by ``margin``."""
    c = hole.centroid
    v = hole.vertices - c
    norms = np.hypot(v[:, 0], v[:, 1])
    norms = np.where(norms < 1e-12, 1.0, norms)
    return c + v * (1.0 + margin / norms)[:, None]


def detour_path_holes(
    holes: Sequence[Polygon], p, q, margin: float = 1.0
) -> np.ndarray:
    """Piecewise-linear path from ``p`` to ``q`` avoiding ``holes``.

    Parameters
    ----------
    holes : sequence of Polygon
        Forbidden regions (need not belong to one FoI).
    p, q : (2,) array-like
        Path endpoints; must lie outside every hole.
    margin : float
        Absolute boundary-walk inflation keeping the detour strictly
        outside the holes.

    Returns
    -------
    (k, 2) ndarray
        Waypoints including both endpoints.  ``k == 2`` when the
        straight segment is already free.

    Raises
    ------
    GeometryError
        If no free path is found within a bounded number of repairs
        (e.g. pathological hole layouts).
    """
    p = as_point(p)
    q = as_point(q)
    path = [p.copy(), q.copy()]
    for _ in range(_MAX_DETOURS):
        blocked_at = None
        for seg_idx in range(len(path) - 1):
            hole_idx = path_blocked_by_holes(holes, path[seg_idx], path[seg_idx + 1])
            if hole_idx is not None:
                blocked_at = (seg_idx, hole_idx)
                break
        if blocked_at is None:
            return np.array(path)
        seg_idx, hole_idx = blocked_at
        a, b = path[seg_idx], path[seg_idx + 1]
        hole = holes[hole_idx]
        hits = _segment_hole_hits(a, b, hole)
        if len(hits) < 2:
            raise GeometryError("inconsistent hole intersection while detouring")
        (_, enter, e_in), (_, leave, e_out) = hits[0], hits[-1]
        inflated = _inflate(hole, margin)
        n = len(inflated)
        # Walk vertices from the entry edge to the exit edge both ways
        # and keep the shorter boundary arc.
        fwd = [inflated[i % n] for i in range(e_in + 1, e_in + 1 + ((e_out - e_in) % n))]
        bwd = [inflated[i % n] for i in range(e_in, e_in - ((e_in - e_out) % n), -1)]
        cand_f = [enter] + fwd + [leave]
        cand_b = [enter] + bwd + [leave]
        arc = cand_f if polyline_length(cand_f) <= polyline_length(cand_b) else cand_b
        path[seg_idx + 1 : seg_idx + 1] = [np.asarray(w, dtype=float) for w in arc]
    raise GeometryError("detour did not converge; hole layout too complex")


def detour_path(foi: FieldOfInterest, p, q, margin_fraction: float = 1e-3) -> np.ndarray:
    """:func:`detour_path_holes` over one FoI, with area-relative margin."""
    margin = margin_fraction * max(1.0, float(np.sqrt(foi.area)))
    return detour_path_holes(foi.holes, p, q, margin=margin)
