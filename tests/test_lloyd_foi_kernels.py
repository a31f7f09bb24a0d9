"""Batched Lloyd and FoI-containment kernels: bitwise equality with their oracles.

The even-odd ``Polygon.contains`` pass, the ``(grid, sites)`` centroid
assignment, the edge-array connectivity-safe step and the csgraph
``UnitDiskGraph.is_connected`` count each keep the routine they replaced
as a private oracle; these tests pin that the fast paths are bitwise
the same, on adversarial inputs and on whole paper plans.
"""

import functools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.coverage.lloyd as lloyd
import repro.geometry.polygon as polygon
from repro.exec import ContentCache, activate_cache
from repro.experiments import harness
from repro.experiments.scenarios import get_scenario
from repro.foi import m2_scenario3, m2_scenario5, m2_scenario6
from repro.geometry import Polygon
from repro.io import dumps_canonical, plan_document
from repro.network import UnitDiskGraph

_COMB = Polygon([
    (0, 0), (6, 0), (6, 3), (5, 3), (5, 1), (4, 1), (4, 3), (3, 3),
    (3, 1), (2, 1), (2, 3), (1, 3), (1, 1), (0, 1),
])
_BASE_POLYGONS = {
    "square": Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "comb": _COMB,  # many vertices and horizontal edges on shared y
    "scenario6-outer": m2_scenario6().outer,
    "scenario6-hole": m2_scenario6().holes[0],
    "flower": m2_scenario3().holes[0],
}


@functools.lru_cache(maxsize=None)
def _polygon(name: str, exponent: int) -> Polygon:
    """Base polygon normalised to ~[0.5, 4.5]^2, then scaled by 10**exponent."""
    v = _BASE_POLYGONS[name].vertices
    lo = v.min(axis=0)
    unit = (v - lo) / float((v.max(axis=0) - lo).max()) * 4.0 + 0.5
    return Polygon(unit * 10.0**exponent)


POINT_KINDS = ("vertex", "edge", "ray", "tolerance", "free", "far")


@st.composite
def contains_queries(draw):
    """``(polygon, points)``: points aimed at the even-odd test's edge cases."""
    poly = _polygon(
        draw(st.sampled_from(sorted(_BASE_POLYGONS))), draw(st.integers(-6, 17))
    )
    v = poly.vertices
    scale = float(np.ptp(v, axis=0).max())
    tol = 1e-9 * max(1.0, poly.perimeter)
    points = []
    for _ in range(draw(st.integers(0, 24))):
        i = draw(st.integers(0, len(v) - 1))
        a, b = v[i], v[(i + 1) % len(v)]
        kind = draw(st.sampled_from(POINT_KINDS))
        if kind == "vertex":
            p = a
        elif kind == "edge":  # the comb and square have horizontal edges
            p = a + draw(st.floats(0.0, 1.0)) * (b - a)
        elif kind == "ray":  # the rightward ray passes through vertex i
            p = np.array([a[0] - draw(st.floats(-1.0, 2.0)) * scale, a[1]])
        elif kind == "tolerance":
            edge = b - a
            normal = np.array([-edge[1], edge[0]]) / np.hypot(*edge)
            p = (a + draw(st.floats(0.0, 1.0)) * edge
                 + draw(st.floats(-3.0, 3.0)) * tol * normal)
        elif kind == "free":
            lo = v.min(axis=0)
            coord = st.floats(-0.2, 1.2, allow_nan=False)
            p = lo + scale * np.array([draw(coord), draw(coord)])
        else:
            coord = st.sampled_from([-1e18, 1e18, 0.0, float(a[0]), float(a[1])])
            p = np.array([draw(coord), draw(coord)])
        points.append(np.asarray(p, dtype=float))
    return poly, np.array(points, dtype=float).reshape(-1, 2)


def _chunk_budget(draw, poly):
    """A small pair budget, so chunk tails are exercised (0 = module default)."""
    return draw(st.sampled_from([0, 1, len(poly) - 1, len(poly), len(poly) + 1,
                                 2 * len(poly), 3 * len(poly) + 5]))


class TestPolygonContains:
    @given(query=contains_queries(), include_boundary=st.booleans(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_oracle(self, query, include_boundary, data):
        poly, pts = query
        budget = _chunk_budget(data.draw, poly) or polygon.CONTAINS_CHUNK_PAIRS
        with mock.patch.object(polygon, "CONTAINS_CHUNK_PAIRS", budget):
            fast = poly.contains(pts, include_boundary=include_boundary)
        slow = poly._contains_scalar(pts, include_boundary=include_boundary)
        assert fast.dtype == bool and fast.shape == (len(pts),)
        assert fast.tobytes() == slow.tobytes()

    @given(query=contains_queries(), include_boundary=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_scalar_input_returns_python_bool(self, query, include_boundary):
        poly, pts = query
        for p in pts[:4]:
            fast = poly.contains(p, include_boundary=include_boundary)
            assert type(fast) is bool
            assert fast == poly._contains_scalar(p, include_boundary=include_boundary)

    def test_empty_input(self):
        poly = _polygon("comb", 0)
        for include_boundary in (True, False):
            out = poly.contains(np.zeros((0, 2)), include_boundary=include_boundary)
            assert out.shape == (0,) and out.dtype == bool

    def test_boundary_cases_decided_as_before(self):
        square = _BASE_POLYGONS["square"]
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [-0.5, 1.0],
                        [0.5, 0.5], [1.0 + 1e-10, 0.5], [2.0, 0.5]])
        assert square.contains(pts).tolist() == [
            True, True, True, False, True, True, False]
        assert square.contains(pts, include_boundary=False).tolist() == (
            square._contains_scalar(pts, include_boundary=False).tolist())

    def test_chunked_grid_matches_one_pass(self):
        poly = m2_scenario6().outer
        lo, hi = np.array(poly.bounds[:2]), np.array(poly.bounds[2:])
        g = np.linspace(0.0, 1.0, 50)
        grid = lo + (hi - lo) * np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        with mock.patch.object(polygon, "CONTAINS_CHUNK_PAIRS", 7 * len(poly) + 3):
            chunked = poly.contains(grid)
        assert chunked.tobytes() == poly.contains(grid).tobytes()
        assert chunked.tobytes() == poly._contains_scalar(grid).tobytes()
        assert 0 < chunked.sum() < len(grid)


def _foi_contains_oracle(foi, pts):
    """``FieldOfInterest.contains`` as every hole tested every point."""
    inside = foi.outer._contains_scalar(pts, include_boundary=True)
    for hole in foi.holes:
        inside &= ~hole._contains_scalar(pts, include_boundary=False)
    return inside


class TestFieldOfInterestContains:
    @pytest.mark.parametrize("build", [m2_scenario6, m2_scenario5], ids=["1-hole", "4-holes"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_holes_tested_on_inside_points_only(self, build, seed):
        foi = build()
        rng = np.random.default_rng(seed)
        lo, hi = np.array(foi.outer.bounds[:2]), np.array(foi.outer.bounds[2:])
        boundary = np.vstack([foi.outer.vertices] + [h.vertices for h in foi.holes])
        pts = np.vstack([
            lo + (hi - lo) * rng.uniform(-0.1, 1.1, (40, 2)),
            boundary[rng.choice(len(boundary), 10)],
            foi.sample_free_points(10, rng),
        ])
        assert foi.contains(pts).tobytes() == _foi_contains_oracle(foi, pts).tobytes()
        for p in pts[::7]:
            assert foi.contains(p) is bool(_foi_contains_oracle(foi, p[None])[0])


@st.composite
def centroid_queries(draw):
    """``(sites, grid, weights)`` on integer lattices, so exact ties occur.

    Sites sit on half-integer points (equidistant from several grid
    points and from each other), some repeat - the later copy owns no
    grid point - and some lie far outside the grid.
    """
    k = draw(st.integers(2, 12))
    g = np.arange(k, dtype=float)
    grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2) * draw(st.sampled_from([1.0, 0.25, 3.0]))
    n = draw(st.integers(1, 12))
    half = st.integers(-2, 2 * k + 2).map(lambda i: i / 2.0)
    sites = [np.array([draw(half), draw(half)]) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        sites.append(sites[draw(st.integers(0, len(sites) - 1))].copy())
    if draw(st.booleans()):
        sites.append(np.array([draw(st.sampled_from([-50.0, 80.0])), 1.5]))
    weights = draw(st.sampled_from(["uniform", "ramp"]))
    w = np.ones(len(grid)) if weights == "uniform" else 1.0 + grid[:, 0] / (1.0 + k)
    return np.array(sites, dtype=float), grid, w


class TestAssignCentroids:
    @given(query=centroid_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_strided_oracle(self, query):
        sites, grid, w = query
        fast = lloyd._assign_centroids(sites, grid, w)
        assert fast.tobytes() == lloyd._assign_centroids_oracle(sites, grid, w).tobytes()

    def test_exact_tie_goes_to_lowest_index(self):
        grid = np.array([[1.0, 0.0]])
        sites = np.array([[0.0, 0.0], [2.0, 0.0]])
        # Both sites are 1 away; site 0 owns the grid point, site 1
        # owns nothing and falls back to the nearest grid point.
        out = lloyd._assign_centroids(sites, grid, np.ones(1))
        assert out.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert out.tobytes() == lloyd._assign_centroids_oracle(
            sites, grid, np.ones(1)).tobytes()

    def test_site_owning_nothing_gets_nearest_grid_point(self):
        grid = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        sites = np.array([[0.5, 0.0], [0.5, 0.0], [40.0, 0.0]])
        out = lloyd._assign_centroids(sites, grid, np.ones(3))
        # Site 0 wins every tie and owns all three points; the copy and
        # the far site fall back to their nearest (lowest-index) point.
        assert out.tolist() == [[2.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
        assert out.tobytes() == lloyd._assign_centroids_oracle(
            sites, grid, np.ones(3)).tobytes()


@st.composite
def step_queries(draw):
    """``(sites, targets, comm_range, max_halvings)`` with links at exactly range.

    Sites sit on a square lattice whose pitch is the communication range
    (every lattice neighbour is exactly ``comm_range`` away), minus some
    dropped cells so robots can be isolated or the graph split; targets
    are lattice offsets, so proposals also land at exactly range.
    """
    r = draw(st.sampled_from([1.0, 10.0, 0.1, 80.0]))
    k = draw(st.integers(1, 6))
    cells = [(i, j) for i in range(k) for j in range(k)]
    keep = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells),
                         unique=True))
    sites = np.array(keep, dtype=float) * r
    shift = st.integers(-8, 8).map(lambda i: i * r / 4.0)
    targets = sites + np.array([[draw(shift), draw(shift)] for _ in keep])
    return sites, targets, r, draw(st.integers(0, 6))


class TestConnectivitySafeStep:
    @given(query=step_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, query):
        sites, targets, r, halvings = query
        fast = lloyd._connectivity_safe_step(sites, targets, r, halvings)
        slow = lloyd._connectivity_safe_step_scalar(sites, targets, r, halvings)
        assert fast.tobytes() == slow.tobytes()

    @given(query=step_queries())
    @settings(max_examples=200, deadline=None)
    def test_is_connected_matches_components(self, query):
        sites, targets, r, _ = query
        for pts in (sites, targets, 0.5 * (sites + targets)):
            graph = UnitDiskGraph(pts, r)
            assert graph.is_connected() is (len(graph.components) == 1)

    def test_is_connected_at_exactly_range(self):
        assert UnitDiskGraph([[0.0, 0.0], [10.0, 0.0]], 10.0).is_connected()
        assert not UnitDiskGraph([[0.0, 0.0], [10.0 + 1e-12, 0.0]], 10.0).is_connected()
        assert UnitDiskGraph(np.zeros((1, 2)), 1.0).is_connected()
        assert UnitDiskGraph(np.zeros((0, 2)), 1.0).is_connected()

    def test_isolated_robots_are_exempt(self):
        sites = np.array([[0.0, 0.0], [100.0, 0.0]])
        targets = np.array([[0.0, 50.0], [100.0, -50.0]])
        decisions = Counter()
        out = lloyd._connectivity_safe_step(sites, targets, 10.0, 6, decisions)
        assert out.tobytes() == targets.tobytes()
        assert sum(decisions.values()) == 0


def _oracle_safe_step(sites, targets, comm_range, max_halvings, decisions=None):
    return lloyd._connectivity_safe_step_scalar(sites, targets, comm_range, max_halvings)


def _plan_bytes(scenario_ids) -> dict[int, bytes]:
    """Canonical plan documents of fresh runs, one per scenario (4 methods)."""
    with mock.patch.object(harness, "_CACHE", {}), activate_cache(ContentCache()):
        runs = harness.run_scenarios(
            [get_scenario(s) for s in scenario_ids], workers=1
        )
    return {sid: dumps_canonical(plan_document({sid: run})) for sid, run in runs.items()}


class TestPipelineBytes:
    def test_plan_documents_identical_with_oracles(self, monkeypatch):
        # Scenario 1 is hole-free, 3 has a hole in M2, 6 holes in both.
        scenarios = (1, 3, 6)
        fast = _plan_bytes(scenarios)
        monkeypatch.setattr(Polygon, "contains", Polygon._contains_scalar)
        monkeypatch.setattr(lloyd, "_assign_centroids", lloyd._assign_centroids_oracle)
        monkeypatch.setattr(lloyd, "_connectivity_safe_step", _oracle_safe_step)
        monkeypatch.setattr(
            UnitDiskGraph, "is_connected",
            lambda self: self.node_count <= 1 or len(self.components) == 1,
        )
        oracle = _plan_bytes(scenarios)
        assert sorted(fast) == list(scenarios)
        for sid in scenarios:
            assert fast[sid] == oracle[sid], f"scenario {sid} plan bytes differ"
