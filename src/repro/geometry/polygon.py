"""Simple polygons: area, centroid, containment, sampling.

A :class:`Polygon` is a simple (non self-intersecting) closed polygon
stored as an ``(n, 2)`` vertex array without a repeated closing vertex.
Vertices are normalised to counter-clockwise (CCW) order on
construction, so signed quantities downstream can assume a positive
orientation.  Polygons are immutable value objects.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from repro.errors import GeometryError
from repro.geometry.segment import points_segments_distance, segments_properly_cross
from repro.geometry.vec import as_points

__all__ = ["Polygon", "signed_area", "polygon_centroid"]


def signed_area(vertices) -> float:
    """Signed area of the closed polygon through ``vertices``.

    Positive for counter-clockwise orientation (shoelace formula).
    """
    v = as_points(vertices)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def polygon_centroid(vertices) -> np.ndarray:
    """Area centroid of the closed polygon through ``vertices``.

    Falls back to the vertex mean for degenerate (zero-area) input.
    """
    v = as_points(vertices)
    if len(v) == 0:
        raise GeometryError("centroid of empty polygon")
    a = signed_area(v)
    if abs(a) < 1e-12:
        return v.mean(axis=0)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return np.array([cx, cy])


class Polygon:
    """An immutable simple polygon with CCW vertex order.

    Parameters
    ----------
    vertices : (n, 2) array-like
        Polygon boundary in order (either orientation); at least 3
        non-collinear vertices.  Consecutive duplicate vertices are
        dropped.

    Raises
    ------
    GeometryError
        If fewer than 3 distinct vertices remain or the area is zero.
    """

    __slots__ = ("_vertices", "__dict__")

    def __init__(self, vertices: Iterable) -> None:
        v = as_points(vertices)
        if len(v) >= 2:
            keep = np.ones(len(v), dtype=bool)
            for i in range(len(v)):
                if np.allclose(v[i], v[(i + 1) % len(v)], atol=1e-12):
                    keep[i] = False
            v = v[keep]
        if len(v) < 3:
            raise GeometryError("a polygon needs at least 3 distinct vertices")
        a = signed_area(v)
        if abs(a) < 1e-12:
            raise GeometryError("polygon has (numerically) zero area")
        if a < 0:
            v = v[::-1].copy()
        self._vertices = v
        self._vertices.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        """Read-only ``(n, 2)`` CCW vertex array."""
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon(n={len(self)}, area={self.area:.3f})"

    @cached_property
    def area(self) -> float:
        """Enclosed area (always positive)."""
        return signed_area(self._vertices)

    @cached_property
    def centroid(self) -> np.ndarray:
        """Area centroid."""
        return polygon_centroid(self._vertices)

    @cached_property
    def perimeter(self) -> float:
        """Total boundary length."""
        v = self._vertices
        seg = np.roll(v, -1, axis=0) - v
        return float(np.hypot(seg[:, 0], seg[:, 1]).sum())

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
        v = self._vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )

    def edges(self) -> np.ndarray:
        """Edge array of shape ``(n, 2, 2)``: ``edges[i] = (v_i, v_{i+1})``."""
        v = self._vertices
        return np.stack([v, np.roll(v, -1, axis=0)], axis=1)

    @cached_property
    def edge_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(ends, dirs)``, both ``(n, 2)``.

        Edge ``i`` runs from ``vertices[i]`` to ``ends[i]`` along
        ``dirs[i] = ends[i] - vertices[i]``; cached for the batched
        :func:`~repro.geometry.segment.segment_intersection_points`.
        """
        v = self._vertices
        ends = np.roll(v, -1, axis=0)
        dirs = ends - v
        ends.setflags(write=False)
        dirs.setflags(write=False)
        return ends, dirs

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains(self, points, include_boundary: bool = True) -> np.ndarray:
        """Vectorised point-in-polygon test (even-odd / ray crossing).

        Parameters
        ----------
        points : (m, 2) or (2,) array-like
        include_boundary : bool
            Whether points within a small tolerance of the boundary
            count as inside.

        Returns
        -------
        ndarray of bool (or scalar bool for a single point)
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        p = as_points(pts[None, :] if single else pts)
        v = self._vertices
        x, y = p[:, 0], p[:, 1]
        inside = np.zeros(len(p), dtype=bool)
        n = len(v)
        j = n - 1
        for i in range(n):
            xi, yi = v[i]
            xj, yj = v[j]
            crosses = (yi > y) != (yj > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_int = (xj - xi) * (y - yi) / (yj - yi) + xi
            inside ^= crosses & (x < x_int)
            j = i
        if include_boundary:
            tol = 1e-9 * max(1.0, self.perimeter)
            inside |= self.boundary_distances(p) <= tol
        return bool(inside[0]) if single else inside

    def boundary_distances(self, points) -> np.ndarray:
        """Distances from many points to the polygon boundary, vectorised."""
        p = as_points(points)
        if len(p) == 0:
            return np.zeros(0)
        v = self._vertices
        return points_segments_distance(p, v, np.roll(v, -1, axis=0)).min(axis=1)

    def boundary_distance(self, point) -> float:
        """Distance from ``point`` to the polygon boundary (always >= 0)."""
        return float(self.boundary_distances(np.asarray(point, dtype=float)[None, :])[0])

    @cached_property
    def is_convex(self) -> bool:
        """Whether the polygon is convex (CCW turning at every vertex)."""
        v = self._vertices
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cr < -1e-9 * max(1.0, self.perimeter) ** 2:
                return False
        return True

    def is_simple(self) -> bool:
        """Whether no two non-adjacent edges properly cross.

        Quadratic check; intended for validation and tests, not hot paths.
        """
        v = self._vertices
        n = len(v)
        for i in range(n):
            a1, a2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = v[j], v[(j + 1) % n]
                if segments_properly_cross(a1, a2, b1, b2):
                    return False
        return True

    # ------------------------------------------------------------------
    # Transforms and sampling
    # ------------------------------------------------------------------

    def translated(self, offset) -> "Polygon":
        """A copy shifted by ``offset``."""
        off = np.asarray(offset, dtype=float)
        return Polygon(self._vertices + off)

    def scaled(self, factor: float, about=None) -> "Polygon":
        """A copy scaled by ``factor`` about ``about`` (default: centroid)."""
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        c = self.centroid if about is None else np.asarray(about, dtype=float)
        return Polygon(c + factor * (self._vertices - c))

    def scaled_to_area(self, target_area: float) -> "Polygon":
        """A copy uniformly scaled so its area equals ``target_area``."""
        if target_area <= 0:
            raise GeometryError("target area must be positive")
        return self.scaled(float(np.sqrt(target_area / self.area)))

    def rotated(self, theta: float, about=None) -> "Polygon":
        """A copy rotated CCW by ``theta`` radians about ``about``."""
        from repro.geometry.vec import rotate

        c = self.centroid if about is None else np.asarray(about, dtype=float)
        return Polygon(rotate(self._vertices, theta, center=c))

    def sample_boundary(self, n: int) -> np.ndarray:
        """``n`` points spaced uniformly by arc length along the boundary."""
        if n < 1:
            raise GeometryError("need at least one boundary sample")
        v = self._vertices
        closed = np.vstack([v, v[:1]])
        seg = np.diff(closed, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        total = cum[-1]
        targets = np.linspace(0.0, total, n, endpoint=False)
        idx = np.searchsorted(cum, targets, side="right") - 1
        idx = np.clip(idx, 0, len(seg_len) - 1)
        frac = (targets - cum[idx]) / np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
        return closed[idx] + frac[:, None] * seg[idx]

    def grid_points(self, spacing: float, include_boundary_margin: float = 0.0) -> np.ndarray:
        """Square-grid points strictly inside the polygon.

        Parameters
        ----------
        spacing : float
            Grid pitch in the polygon's units.
        include_boundary_margin : float
            If positive, only keep points at least this far from the
            boundary (useful to avoid sliver triangles later).
        """
        if spacing <= 0:
            raise GeometryError("grid spacing must be positive")
        xmin, ymin, xmax, ymax = self.bounds
        xs = np.arange(xmin + spacing / 2.0, xmax, spacing)
        ys = np.arange(ymin + spacing / 2.0, ymax, spacing)
        if len(xs) == 0 or len(ys) == 0:
            return np.zeros((0, 2))
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        mask = self.contains(pts, include_boundary=False)
        pts = pts[mask]
        if include_boundary_margin > 0 and len(pts):
            pts = pts[self.boundary_distances(pts) >= include_boundary_margin]
        return pts
