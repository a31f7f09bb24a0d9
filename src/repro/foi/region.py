"""Fields of Interest: polygon regions with optional holes.

A :class:`FieldOfInterest` (FoI) is the region a swarm is asked to
cover: an outer simple polygon minus zero or more disjoint hole
polygons ("obstacles or landscape features that forbid mobile robot
placement", Sec. III-D3 of the paper).  The class provides containment,
area, boundary queries, and nearest-free-point projection - the
operations the marching pipeline and the Lloyd adjustment need.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.polygon import Polygon
from repro.geometry.segment import project_point_on_segment
from repro.geometry.vec import as_point, as_points

__all__ = ["FieldOfInterest"]


class FieldOfInterest:
    """A planar region bounded by an outer polygon minus hole polygons.

    Parameters
    ----------
    outer : Polygon or (n, 2) array-like
        Outer boundary.
    holes : iterable of Polygon or array-like, optional
        Hole boundaries.  Each hole must lie strictly inside the outer
        polygon and holes must not contain one another.
    name : str
        Human-readable label used by experiments and figures.
    """

    def __init__(self, outer, holes: Iterable = (), name: str = "foi") -> None:
        self.outer = outer if isinstance(outer, Polygon) else Polygon(outer)
        self.holes: tuple[Polygon, ...] = tuple(
            h if isinstance(h, Polygon) else Polygon(h) for h in holes
        )
        self.name = str(name)
        for i, hole in enumerate(self.holes):
            if not bool(np.all(self.outer.contains(hole.vertices))):
                raise GeometryError(f"hole {i} is not contained in the outer boundary")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                if bool(
                    np.any(self.holes[i].contains(self.holes[j].vertices))
                ) and bool(np.any(self.holes[j].contains(self.holes[i].vertices))):
                    raise GeometryError(f"holes {i} and {j} overlap")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FieldOfInterest(name={self.name!r}, area={self.area:.0f}, "
            f"holes={len(self.holes)})"
        )

    @cached_property
    def area(self) -> float:
        """Free area: outer area minus total hole area."""
        return self.outer.area - sum(h.area for h in self.holes)

    @property
    def has_holes(self) -> bool:
        return len(self.holes) > 0

    @cached_property
    def centroid(self) -> np.ndarray:
        """Area centroid of the free region (holes subtracted)."""
        num = self.outer.centroid * self.outer.area
        for h in self.holes:
            num = num - h.centroid * h.area
        return num / self.area

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box of the outer boundary."""
        return self.outer.bounds

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains(self, points) -> np.ndarray:
        """Whether points lie in the free region (inside outer, outside holes).

        Each hole is tested only on the points still inside: the outer
        boundary and the earlier holes have rejected the rest.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        p = as_points(pts[None, :] if single else pts)
        inside = self.outer.contains(p, include_boundary=True)
        free = np.flatnonzero(inside)
        for hole in self.holes:
            in_hole = hole.contains(p[free], include_boundary=False)
            inside[free[in_hole]] = False
            free = free[~in_hole]
        return bool(inside[0]) if single else inside

    def hole_containing(self, point) -> int | None:
        """Index of the hole containing ``point``, or ``None``."""
        for i, hole in enumerate(self.holes):
            if bool(hole.contains(point, include_boundary=False)):
                return i
        return None

    def boundary_distances(self, points) -> np.ndarray:
        """Distances from many points to the nearest boundary, vectorised."""
        pts = as_points(points)
        d = self.outer.boundary_distances(pts)
        for hole in self.holes:
            d = np.minimum(d, hole.boundary_distances(pts))
        return d

    def boundary_distance(self, point) -> float:
        """Distance from ``point`` to the nearest boundary (outer or hole)."""
        return float(self.boundary_distances(as_point(point)[None, :])[0])

    def hole_distances(self, points) -> np.ndarray:
        """Distances to the nearest hole boundary (``inf`` without holes)."""
        pts = as_points(points)
        if not self.holes:
            return np.full(len(pts), np.inf)
        d = self.holes[0].boundary_distances(pts)
        for hole in self.holes[1:]:
            d = np.minimum(d, hole.boundary_distances(pts))
        return d

    def hole_distance(self, point) -> float:
        """Distance to the nearest hole boundary; ``inf`` if there are none."""
        return float(self.hole_distances(as_point(point)[None, :])[0])

    # ------------------------------------------------------------------
    # Projection / sampling
    # ------------------------------------------------------------------

    def project_inside(self, point) -> np.ndarray:
        """Nearest point of the free region to ``point``.

        Points already in the free region are returned unchanged.
        Points in a hole are pushed to the nearest point of that hole's
        boundary (the paper's "choose the nearest grid point along the
        hole boundary" rule, in continuous form); points outside the
        outer polygon are pulled to its boundary.
        """
        p = as_point(point)
        if bool(self.contains(p)):
            return p.copy()
        hole_idx = self.hole_containing(p)
        poly = self.holes[hole_idx] if hole_idx is not None else self.outer
        best, best_d = None, float("inf")
        v = poly.vertices
        n = len(v)
        for i in range(n):
            q = project_point_on_segment(p, v[i], v[(i + 1) % n])
            d = float(np.hypot(p[0] - q[0], p[1] - q[1]))
            if d < best_d:
                best, best_d = q, d
        assert best is not None
        # Nudge off the boundary toward the free side so containment holds.
        direction = self.centroid - best if hole_idx is None else best - poly.centroid
        nrm = float(np.hypot(direction[0], direction[1]))
        if nrm > 1e-12:
            candidate = best + direction / nrm * 1e-6 * max(1.0, np.sqrt(self.area))
            if bool(self.contains(candidate)):
                return candidate
        return best

    def grid_points(self, spacing: float) -> np.ndarray:
        """Square-grid points inside the free region at pitch ``spacing``."""
        if spacing <= 0:
            raise GeometryError("grid spacing must be positive")
        pts = self.outer.grid_points(spacing)
        if len(pts) == 0:
            return pts
        mask = np.ones(len(pts), dtype=bool)
        for hole in self.holes:
            mask &= ~hole.contains(pts, include_boundary=True)
        return pts[mask]

    def sample_free_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform random points of the free region (rejection sampling)."""
        xmin, ymin, xmax, ymax = self.bounds
        out: list[np.ndarray] = []
        attempts = 0
        while len(out) < n:
            attempts += 1
            if attempts > 1000 * max(n, 10):
                raise GeometryError("rejection sampling failed; region too thin?")
            batch = rng.uniform([xmin, ymin], [xmax, ymax], size=(max(n, 64), 2))
            good = batch[self.contains(batch)]
            out.extend(good[: n - len(out)])
        return np.array(out[:n])

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def translated(self, offset) -> "FieldOfInterest":
        """A copy of the FoI shifted by ``offset``."""
        off = np.asarray(offset, dtype=float)
        return FieldOfInterest(
            self.outer.translated(off),
            [h.translated(off) for h in self.holes],
            name=self.name,
        )

    def scaled_to_area(self, target_area: float) -> "FieldOfInterest":
        """A copy uniformly scaled so the *free* area equals ``target_area``."""
        if target_area <= 0:
            raise GeometryError("target area must be positive")
        factor = float(np.sqrt(target_area / self.area))
        c = self.outer.centroid
        return FieldOfInterest(
            self.outer.scaled(factor, about=c),
            [h.scaled(factor, about=c) for h in self.holes],
            name=self.name,
        )

    def boundary_polylines(self) -> Sequence[np.ndarray]:
        """All boundary loops (outer first, then holes) as vertex arrays."""
        return [self.outer.vertices] + [h.vertices for h in self.holes]
