"""Swarm-scale vectorization: bitwise equivalence and scaling guards.

Every vectorised fast path introduced for large swarms - the
spatial-hash unit-disk graph, CSR adjacency, factorization-reusing
harmonic solves, batch point location, batch induced-map transfer,
vectorised trajectory sampling and the batched hole-detour
intersection kernel - must produce *bitwise-identical*
results to the scalar/brute-force oracles it replaced; these tests pin
that contract.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.foi.detour as detour
import repro.robots.transition as transition
from repro.coverage import LloydConfig
from repro.errors import PlanningError
from repro.experiments.scenarios import get_scenario
from repro.experiments.scaling import (
    format_scaling_table,
    scaling_curve,
    stage_lookup,
    synthetic_swarm_positions,
)
from repro.foi import ellipse_polygon, m2_scenario3, m2_scenario5
from repro.geometry import Polygon, TriangleLocator, barycentric_coords_paired
from repro.geometry.barycentric import barycentric_coords_many
from repro.geometry.segment import (
    segment_intersection_point,
    segment_intersection_points,
)
from repro.harmonic import (
    clear_factorization_cache,
    compute_disk_map,
    solve_linear,
)
from repro.harmonic.boundary import boundary_parameterization, circle_positions
from repro.harmonic.transfer import InducedMap
from repro.marching import MarchingConfig, MarchingPlanner
from repro.mesh.delaunay import delaunay_mesh
from repro.network import UnitDiskGraph, udg_edges
from repro.network.udg import _udg_edges_bruteforce
from repro.obs import Metrics, activate_metrics
from repro.robots import RadioSpec, Swarm
from repro.robots.motion import SwarmTrajectory, TimedPath

positions_strategy = st.lists(
    st.tuples(
        st.floats(-1e4, 1e4, allow_nan=False, width=32),
        st.floats(-1e4, 1e4, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=60,
)


class TestSpatialHashUdg:
    @given(pts=positions_strategy, r=st.floats(0.1, 500.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce(self, pts, r):
        arr = np.array(pts, dtype=float).reshape(-1, 2)
        assert np.array_equal(udg_edges(arr, r), _udg_edges_bruteforce(arr, r))

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_dense_random(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-3, 4))
        pts = rng.uniform(-scale, scale, size=(n, 2))
        r = float(rng.uniform(0.05, 1.5)) * scale
        assert np.array_equal(udg_edges(pts, r), _udg_edges_bruteforce(pts, r))

    def test_points_exactly_at_comm_range(self):
        # The boundary predicate is inclusive; pairs at exactly r must
        # appear in both implementations even when the cell grid puts
        # them in non-adjacent-looking positions.
        r = 7.0
        pts = np.array([
            [0.0, 0.0], [r, 0.0], [0.0, r], [r, r],
            [2 * r, 0.0], [0.0, 2 * r],
        ])
        fast = udg_edges(pts, r)
        slow = _udg_edges_bruteforce(pts, r)
        assert np.array_equal(fast, slow)
        assert [0, 1] in fast.tolist()

    def test_empty_swarm(self):
        empty = np.zeros((0, 2))
        assert udg_edges(empty, 1.0).shape == (0, 2)
        assert np.array_equal(udg_edges(empty, 1.0), _udg_edges_bruteforce(empty, 1.0))

    def test_all_coincident(self):
        pts = np.ones((25, 2)) * 3.5
        fast = udg_edges(pts, 1.0)
        assert np.array_equal(fast, _udg_edges_bruteforce(pts, 1.0))
        assert len(fast) == 25 * 24 // 2

    def test_huge_coordinate_spread(self):
        # Forces the int-overflow fallback of the cell indexer.
        pts = np.array([[0.0, 0.0], [1e18, 1e18], [0.5, 0.5], [1.0, 0.0]])
        assert np.array_equal(udg_edges(pts, 1.2), _udg_edges_bruteforce(pts, 1.2))

    def test_10k_fast_and_identical_at_1k(self):
        pts = synthetic_swarm_positions(1_000, comm_range=80.0, seed=3)
        assert np.array_equal(
            udg_edges(pts, 80.0), _udg_edges_bruteforce(pts, 80.0)
        )


class TestCsrAdjacency:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_adjacency_matches_edge_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, size=(n, 2))
        g = UnitDiskGraph(pts, 2.0)
        oracle = [[] for _ in range(n)]
        for a, b in udg_edges(pts, 2.0):
            oracle[a].append(int(b))
            oracle[b].append(int(a))
        oracle = [sorted(row) for row in oracle]
        adj = g.adjacency
        assert isinstance(adj, list)
        assert all(isinstance(row, list) for row in adj)
        assert adj == oracle
        assert [g.degree(v) for v in range(n)] == [len(r) for r in oracle]

    def test_components_cover_and_sorted(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([
            rng.uniform(0, 3, size=(30, 2)),
            rng.uniform(100, 103, size=(20, 2)),
        ])
        g = UnitDiskGraph(pts, 1.5)
        comps = g.components
        assert sorted(v for c in comps for v in c) == list(range(50))
        assert all(c == sorted(c) for c in comps)
        # Largest first.
        assert all(
            len(comps[i]) >= len(comps[i + 1]) for i in range(len(comps) - 1)
        )
        anchor = comps[0][0]
        mask = g.nodes_connected_to([anchor])
        assert np.flatnonzero(mask).tolist() == sorted(comps[0])


class TestFactorizationReuse:
    @pytest.fixture
    def mesh(self):
        rng = np.random.default_rng(9)
        return delaunay_mesh(rng.uniform(0, 100, size=(120, 2)))

    def test_warm_solve_byte_identical_to_cold_spsolve(self, mesh):
        loop, angles = boundary_parameterization(mesh)
        bpos = circle_positions(angles)
        clear_factorization_cache()
        oracle = solve_linear(mesh, loop, bpos, reuse_factorization=False)
        cold = solve_linear(mesh, loop, bpos)
        warm = solve_linear(mesh, loop, bpos)
        clear_factorization_cache()
        assert cold.tobytes() == oracle.tobytes()
        assert warm.tobytes() == oracle.tobytes()

    def test_cache_hit_and_miss_counters(self, mesh):
        loop, angles = boundary_parameterization(mesh)
        bpos = circle_positions(angles)
        clear_factorization_cache()
        m = Metrics()
        with activate_metrics(m):
            solve_linear(mesh, loop, bpos)
            solve_linear(mesh, loop, bpos)
        clear_factorization_cache()
        snap = m.snapshot()
        assert snap["cache.harmonic_factorization.misses"]["value"] == 1
        assert snap["cache.harmonic_factorization.hits"]["value"] == 1

    def test_disk_map_unchanged_by_reuse(self, square_foi_mesh):
        clear_factorization_cache()
        first = compute_disk_map(square_foi_mesh.mesh)
        second = compute_disk_map(square_foi_mesh.mesh)
        clear_factorization_cache()
        assert np.array_equal(first.disk_positions, second.disk_positions)


class TestBatchPointLocation:
    @pytest.fixture(scope="class")
    def locator(self):
        rng = np.random.default_rng(17)
        mesh = delaunay_mesh(rng.uniform(-5, 5, size=(80, 2)))
        return TriangleLocator(mesh.vertices, mesh.triangles)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_locate_many_matches_scalar(self, locator, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-7, 7, size=(int(rng.integers(1, 80)), 2))
        tri, bary = locator.locate_many(q)
        for i, p in enumerate(q):
            hit = locator.locate(p)
            if hit is None:
                assert tri[i] == -1
                assert np.all(np.isnan(bary[i]))
            else:
                assert tri[i] == hit[0]
                assert np.array_equal(bary[i], hit[1])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_locate_nearest_many_matches_scalar(self, locator, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-9, 9, size=(int(rng.integers(1, 80)), 2))
        tri, bary = locator.locate_nearest_many(q)
        for i, p in enumerate(q):
            t, b = locator.locate_nearest(p)
            assert tri[i] == t
            assert np.array_equal(bary[i], b)

    def test_vertices_and_centroids_hit(self, locator):
        pts = np.vstack([locator.points[:12], locator._centroids[:12]])
        tri, bary = locator.locate_many(pts)
        assert np.all(tri >= 0)
        for i, p in enumerate(pts):
            hit = locator.locate(p)
            assert hit is not None and tri[i] == hit[0]
            assert np.array_equal(bary[i], hit[1])

    def test_empty_batch(self, locator):
        tri, bary = locator.locate_many(np.zeros((0, 2)))
        assert tri.shape == (0,) and bary.shape == (0, 3)
        tri, bary = locator.locate_nearest_many(np.zeros((0, 2)))
        assert tri.shape == (0,) and bary.shape == (0, 3)

    def test_paired_barycentric_matches_many(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, size=(40, 2))
        b = a + rng.uniform(0.1, 1, size=(40, 2))
        c = a + np.array([[-1.0, 1.0]]) * rng.uniform(0.1, 1, size=(40, 2))
        p = rng.uniform(-1, 1, size=(40, 2))
        paired = barycentric_coords_paired(p, a, b, c)
        for k in range(40):
            row = barycentric_coords_many(
                p[k], a[k : k + 1], b[k : k + 1], c[k : k + 1]
            )[0]
            assert np.array_equal(paired[k], row)


class TestBatchInducedMap:
    def test_matches_scalar_map_point(self, holed_foi_mesh, rng):
        dm = compute_disk_map(holed_foi_mesh.mesh)
        induced = InducedMap(dm, memoize=False)
        pts = rng.uniform(-1.1, 1.1, size=(60, 2))
        virtual = dm.filled.virtual_vertices
        if len(virtual):
            pts = np.vstack([pts, dm.filled.mesh.vertices[virtual]])
        batch = induced.map_points(pts)
        scalar = np.array([induced.map_point(p) for p in pts])
        assert np.array_equal(batch, scalar)

    def test_rotation_matches_scalar(self, holed_foi_mesh, rng):
        from repro.geometry.vec import rotate

        dm = compute_disk_map(holed_foi_mesh.mesh)
        induced = InducedMap(dm, memoize=False)
        pts = rng.uniform(-0.9, 0.9, size=(30, 2))
        theta = 1.234
        batch = induced.map_points(pts, rotation=theta)
        scalar = np.array(
            [induced.map_point(p) for p in rotate(pts, theta)]
        )
        assert np.array_equal(batch, scalar)

    def test_empty_batch(self, square_foi_mesh):
        dm = compute_disk_map(square_foi_mesh.mesh)
        induced = InducedMap(dm, memoize=False)
        assert induced.map_points(np.zeros((0, 2))).shape == (0, 2)


class TestVectorizedTrajectorySampling:
    @pytest.fixture
    def mixed_trajectory(self):
        rng = np.random.default_rng(23)
        T = 10.0
        paths = [TimedPath.stationary(rng.uniform(0, 5, 2), 0.0)]
        for _ in range(6):
            paths.append(TimedPath(rng.uniform(0, 5, (2, 2)), [0.0, T]))
        t_jump = 4.0
        paths.append(TimedPath(rng.uniform(0, 5, (2, 2)), [t_jump, t_jump]))
        times = np.sort(rng.uniform(0, T, 4))
        paths.append(TimedPath(rng.uniform(0, 5, (4, 2)), times))
        return SwarmTrajectory(paths, 0.0, T)

    def test_positions_over_matches_per_path(self, mixed_trajectory):
        traj = mixed_trajectory
        ts = np.concatenate([
            np.linspace(-1, 11, 25),
            np.concatenate([p.times for p in traj.paths]),
        ])
        for side in ("right", "left"):
            got = traj.positions_over(ts, side=side)
            want = np.stack(
                [p.positions_at_many(ts, side=side) for p in traj.paths],
                axis=1,
            )
            assert np.array_equal(got, want)

    def test_positions_at_matches_per_path(self, mixed_trajectory):
        traj = mixed_trajectory
        for t in [-1.0, 0.0, 3.3, 4.0, 10.0, 12.0]:
            want = np.array([p.position_at(t) for p in traj.paths])
            assert np.array_equal(traj.positions_at(t), want)

    def test_critical_and_discontinuity_times(self, mixed_trajectory):
        traj = mixed_trajectory
        ts = {traj.t_start, traj.t_end}
        for p in traj.paths:
            ts.update(float(t) for t in p.times)
        arr = np.array(sorted(ts))
        want = arr[(arr >= traj.t_start - 1e-9) & (arr <= traj.t_end + 1e-9)]
        assert np.array_equal(traj.critical_times(), want)

        ds = sorted(
            {float(t) for p in traj.paths for t in p.discontinuity_times()}
        )
        assert traj.discontinuity_times().tolist() == ds

    def test_two_waypoint_jump_detected(self):
        # A duplicated-time two-waypoint path is a jump even though it
        # sits in the vectorised two-waypoint group's near-degenerate
        # corner.
        jump = TimedPath([[0.0, 0.0], [1.0, 0.0]], [2.0, 2.0])
        traj = SwarmTrajectory(
            [jump, TimedPath.stationary([5.0, 5.0], 0.0)], 0.0, 10.0
        )
        assert traj.discontinuity_times().tolist() == [2.0]

    def test_path_lengths_match(self, mixed_trajectory):
        traj = mixed_trajectory
        want = np.array([p.length for p in traj.paths])
        assert np.array_equal(traj.path_lengths(), want)

    def test_bad_side_rejected(self, mixed_trajectory):
        with pytest.raises(PlanningError, match="side must be"):
            mixed_trajectory.positions_over([0.0], side="up")


class TestScalingCurve:
    def test_synthetic_density_constant(self):
        r = 50.0
        small = synthetic_swarm_positions(100, r, seed=1)
        large = synthetic_swarm_positions(400, r, seed=1)
        assert small.shape == (100, 2)
        assert large.shape == (400, 2)
        # Area scales linearly with n -> side scales with sqrt(n).
        assert np.ptp(large[:, 0]) / np.ptp(small[:, 0]) == pytest.approx(
            2.0, rel=0.1
        )

    def test_curve_rows_complete(self):
        curve = scaling_curve(sizes=(50, 100), verify_max_n=100)
        by_key = stage_lookup(curve)
        stages = {r["stage"] for r in curve["rows"]}
        assert "network.udg_edges" in stages
        assert "harmonic.solve_warm" in stages
        assert "geometry.locate_batch" in stages
        for stage in stages:
            for n in (50, 100):
                row = by_key[(stage, n)]
                assert row["seconds"] >= 0.0
                assert row["peak_bytes"] > 0

    def test_table_renders_all_stages(self):
        curve = scaling_curve(sizes=(50,), verify_max_n=50)
        table = format_scaling_table(curve)
        assert "| n=50 |" in table
        for r in curve["rows"]:
            assert f"| {r['stage']} |" in table

    def test_report_scaling_section(self):
        from repro.experiments.report import build_report

        text = build_report(
            scenario_ids=[1], scaling=True, scaling_sizes=[50, 80]
        )
        assert "## Scaling curves" in text
        assert "| network.udg_edges |" in text
        assert "n=80" in text


# ----------------------------------------------------------------------
# Hole-detour intersection kernel: vectorised vs per-edge oracle.

_BASE_HOLES = {
    "flower": m2_scenario3().holes[0],
    "scenario5": m2_scenario5().holes[0],
    "ellipse": ellipse_polygon(1.3, 0.7, samples=40, center=(0.4, -0.2)),
}


@functools.lru_cache(maxsize=None)
def _hole(name: str, exponent: int) -> Polygon:
    """Base hole normalised to ~[0.5, 4.5]^2, then scaled by 10**exponent."""
    v = _BASE_HOLES[name].vertices
    lo = v.min(axis=0)
    unit = (v - lo) / float((v.max(axis=0) - lo).max()) * 4.0 + 0.5
    return Polygon(unit * 10.0**exponent)


def _hits_key(hits):
    """Bitwise fingerprint of a hit list (``t`` via ``float.hex``)."""
    return [(float(t).hex(), x.tobytes(), i) for t, x, i in hits]


QUERY_KINDS = (
    "free", "vertex", "collinear", "parallel", "zero", "endpoint", "tangent",
)


@st.composite
def hole_queries(draw):
    """``(hole, p, q)`` aimed at the kernel's edge cases."""
    hole = _hole(
        draw(st.sampled_from(sorted(_BASE_HOLES))), draw(st.integers(-6, 6))
    )
    v = hole.vertices
    scale = float(np.ptp(v, axis=0).max())
    i = draw(st.integers(0, len(v) - 1))
    a, b = v[i], v[(i + 1) % len(v)]
    edge = b - a
    frac = st.floats(-1.0, 2.0, allow_nan=False)
    kind = draw(st.sampled_from(QUERY_KINDS))
    if kind == "free":
        coord = st.floats(-0.5, 1.5, allow_nan=False)
        lo = v.min(axis=0)
        p = lo + scale * np.array([draw(coord), draw(coord)])
        q = lo + scale * np.array([draw(coord), draw(coord)])
    elif kind == "vertex":
        # Straight through vertex i: both adjacent edges report a hit
        # at (nearly) the same t, which the 1e-9 merge folds together.
        ang = draw(st.floats(0.0, 2.0 * np.pi, allow_nan=False))
        d = scale * np.array([np.cos(ang), np.sin(ang)])
        p = a - draw(st.floats(0.01, 2.0)) * d
        q = a + draw(st.floats(0.01, 2.0)) * d
    elif kind == "collinear":
        p = a + draw(frac) * edge
        q = a + draw(frac) * edge
    elif kind == "parallel":
        normal = np.array([-edge[1], edge[0]]) / np.hypot(*edge)
        off = draw(st.sampled_from([-1.0, 1.0])) * 1e-13 * scale * normal
        p = a + draw(frac) * edge + off
        q = a + draw(frac) * edge + off
    elif kind == "zero":
        p = a + draw(frac) * edge
        q = p + draw(st.floats(-1e-13, 1e-13, allow_nan=False)) * np.ones(2)
    elif kind == "endpoint":
        p = a + draw(st.floats(0.0, 1.0)) * edge
        q = v[draw(st.integers(0, len(v) - 1))] + scale * np.array(
            [draw(frac), draw(frac)]
        )
    else:  # tangent: a line grazing vertex i, offset by a hair
        radial = a - hole.centroid
        radial = radial / np.hypot(*radial)
        tangent = np.array([-radial[1], radial[0]])
        base = a + draw(st.floats(-1e-9, 1e-9, allow_nan=False)) * scale * radial
        p = base - draw(st.floats(0.01, 1.0)) * scale * tangent
        q = base + draw(st.floats(0.01, 1.0)) * scale * tangent
    return hole, p, q


class TestHoleDetourKernel:
    @given(query=hole_queries())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_oracle(self, query):
        hole, p, q = query
        fast = detour._segment_hole_hits(p, q, hole)
        slow = detour._segment_hole_hits_scalar(p, q, hole)
        assert _hits_key(fast) == _hits_key(slow)

    @given(query=hole_queries())
    @settings(max_examples=150, deadline=None)
    def test_primitive_matches_per_row(self, query):
        hole, p, q = query
        ends, dirs = hole.edge_vectors
        index, points = segment_intersection_points(p, q, hole.vertices, ends, dirs)
        expected = [
            (j, x)
            for j in range(len(hole))
            if (x := segment_intersection_point(p, q, hole.vertices[j], ends[j]))
            is not None
        ]
        assert index.tolist() == [j for j, _ in expected]
        assert [x.tobytes() for x in points] == [x.tobytes() for _, x in expected]

    def test_vertex_crossings_are_merged(self):
        square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        p, q = (-1.0, -1.0), (2.0, 2.0)  # diagonal through two corners
        hits = detour._segment_hole_hits(p, q, square)
        assert [t for t, _, _ in hits] == [1 / 3, 2 / 3]
        assert _hits_key(hits) == _hits_key(
            detour._segment_hole_hits_scalar(p, q, square)
        )

    def test_collinear_overlap_uses_parallel_branch(self):
        square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        p, q = (-0.5, 0.0), (1.5, 0.0)  # runs along the bottom edge
        hits = detour._segment_hole_hits(p, q, square)
        assert hits
        assert _hits_key(hits) == _hits_key(
            detour._segment_hole_hits_scalar(p, q, square)
        )

    def test_zero_length_segment_has_no_hits(self):
        hole = _hole("flower", 0)
        p = hole.vertices[3]
        assert detour._segment_hole_hits(p, p, hole) == []
        assert detour._segment_hole_hits_scalar(p, p, hole) == []


class TestHoleDetourPipelineQueries:
    """Both kernels agree on the queries a real plan makes."""

    @pytest.fixture(scope="class")
    def recorded(self):
        queries: list = []
        detours: list = []
        hits = detour._segment_hole_hits
        detour_path_holes = transition.detour_path_holes

        def record_hits(p, q, hole):
            queries.append((np.array(p, dtype=float), np.array(q, dtype=float), hole))
            return hits(p, q, hole)

        def record_detour(holes, a, b, margin):
            waypoints = detour_path_holes(holes, a, b, margin=margin)
            detours.append((holes, a, b, margin, waypoints))
            return waypoints

        # The configuration run_scenario uses for the paper scenarios.
        cfg = MarchingConfig(foi_target_points=500, lloyd=LloydConfig(grid_target=2000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detour, "_segment_hole_hits", record_hits)
            mp.setattr(transition, "detour_path_holes", record_detour)
            for scenario_id in (3, 6):
                spec = get_scenario(scenario_id)
                m1, m2 = spec.build(20.0)
                radio = RadioSpec.from_comm_range(spec.comm_range)
                swarm = Swarm.deploy_lattice(m1, spec.robot_count, radio)
                MarchingPlanner(cfg).plan(swarm, m2, source_foi=m1)
        return queries, detours

    def test_sampled_queries_bitwise_equal(self, recorded):
        queries, _ = recorded
        assert len(queries) >= 1000
        rng = np.random.default_rng(20160627)
        sample = rng.choice(len(queries), size=1000, replace=False)
        crossing = 0
        for k in sample:
            p, q, hole = queries[k]
            fast = detour._segment_hole_hits(p, q, hole)
            assert _hits_key(fast) == _hits_key(
                detour._segment_hole_hits_scalar(p, q, hole)
            )
            crossing += len(fast) >= 2
        assert crossing > 0  # the sample exercises real hole crossings

    def test_detour_waypoints_identical_with_oracle(self, recorded, monkeypatch):
        _, detours = recorded
        assert detours, "scenarios 3 and 6 must detour some robots"
        monkeypatch.setattr(
            detour, "_segment_hole_hits", detour._segment_hole_hits_scalar
        )
        for holes, a, b, margin, waypoints in detours:
            oracle = detour.detour_path_holes(holes, a, b, margin=margin)
            assert oracle.shape == waypoints.shape
            assert oracle.tobytes() == waypoints.tobytes()
