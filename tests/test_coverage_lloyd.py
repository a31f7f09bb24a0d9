"""Tests for the Lloyd adjustment: convergence, holes, connectivity safety."""

import numpy as np
import pytest

from repro.errors import CoverageError
from repro.coverage import (
    LloydConfig,
    coverage_fraction,
    gaussian_hotspot_density,
    hole_proximity_density,
    lattice_positions,
    optimal_coverage_positions,
    run_lloyd,
    uniform_density,
    validate_density,
)
from repro.network import UnitDiskGraph
from repro.obs import Metrics, Tracer, activate, activate_metrics


class TestRunLloyd:
    def test_converges_on_square(self, square_foi, rng):
        start = square_foi.sample_free_points(16, rng)
        result = run_lloyd(
            start, square_foi, comm_range=200.0,
            config=LloydConfig(grid_target=900, max_iterations=80),
        )
        assert result.converged
        assert square_foi.contains(result.positions).all()

    def test_snapshots_start_at_input(self, square_foi, rng):
        start = square_foi.sample_free_points(9, rng)
        result = run_lloyd(start, square_foi, comm_range=200.0)
        assert np.allclose(result.snapshots[0], start)
        assert np.allclose(result.snapshots[-1], result.positions)

    def test_movement_accounted(self, square_foi, rng):
        start = square_foi.sample_free_points(9, rng)
        result = run_lloyd(start, square_foi, comm_range=200.0)
        step_sum = sum(
            float(np.hypot(*(b - a).T).sum())
            for a, b in zip(result.snapshots, result.snapshots[1:])
        )
        assert result.total_movement == pytest.approx(step_sum)

    def test_positions_avoid_holes(self, holed_foi, rng):
        start = holed_foi.sample_free_points(20, rng)
        result = run_lloyd(start, holed_foi, comm_range=200.0)
        assert holed_foi.contains(result.positions).all()

    def test_robot_outside_region_pulled_in(self, square_foi):
        start = np.array([[150.0, 50.0], [160.0, 60.0], [50.0, 50.0]])
        result = run_lloyd(
            start, square_foi, comm_range=500.0,
            config=LloydConfig(max_iterations=40),
        )
        assert square_foi.contains(result.positions).all()

    def test_improves_coverage(self, square_foi, rng):
        start = square_foi.sample_free_points(25, rng)
        before = coverage_fraction(square_foi, start, sensing_range=12.0)
        result = run_lloyd(start, square_foi, comm_range=200.0)
        after = coverage_fraction(square_foi, result.positions, sensing_range=12.0)
        assert after >= before - 0.02

    def test_requires_comm_range_when_safe(self, square_foi, rng):
        start = square_foi.sample_free_points(4, rng)
        with pytest.raises(CoverageError):
            run_lloyd(start, square_foi, comm_range=None)

    def test_unsafe_mode_without_range(self, square_foi, rng):
        start = square_foi.sample_free_points(4, rng)
        result = run_lloyd(
            start, square_foi,
            config=LloydConfig(connectivity_safe=False, max_iterations=10),
        )
        assert len(result.positions) == 4

    def test_empty_sites_rejected(self, square_foi):
        with pytest.raises(CoverageError):
            run_lloyd(np.zeros((0, 2)), square_foi, comm_range=10.0)

    def test_connectivity_preserved_each_step(self, square_foi):
        # Tight comm range: unconstrained Lloyd would spread a compact
        # cluster apart; the safe variant must stay connected throughout.
        start = np.array(
            [[45.0 + i * 2.0, 50.0] for i in range(8)]
        )
        rc = 15.0
        result = run_lloyd(
            start, square_foi, comm_range=rc,
            config=LloydConfig(grid_target=900, max_iterations=30),
        )
        for snap in result.snapshots:
            assert UnitDiskGraph(snap, rc).is_connected()


def _frozen_pair(square_foi):
    """Two robots exactly in range whose centroids lie 20 m further out."""
    return run_lloyd([(45.0, 50.0), (55.0, 50.0)], square_foi, comm_range=10.0)


class TestSafetyBackstop:
    def test_frozen_swarm_is_not_converged(self, square_foi):
        result = _frozen_pair(square_foi)
        # The backstop freezes the pair (no move keeps the link), so the
        # loop stops after one iteration - but short of the centroids.
        assert result.iterations == 1
        assert result.total_movement == 0.0
        assert result.positions.tolist() == [[45.0, 50.0], [55.0, 50.0]]
        assert not result.converged


class TestDecisionCounters:
    def test_frozen_pair_counts_one_stall(self, square_foi):
        tracer, metrics = Tracer(), Metrics()
        with activate(tracer), activate_metrics(metrics), tracer.span("adjust"):
            _frozen_pair(square_foi)
        # Both robots halve on each of the max_halvings + 1 = 7 rounds,
        # then the global backstop trips and, finding no safe scale,
        # freezes the swarm.
        counts = {"halvings": 14, "backstops": 1, "stalls": 1}
        for name, value in counts.items():
            assert metrics.counter(f"lloyd.{name}").value == value
        (adjust,) = tracer.get_trace()
        assert adjust.attributes == counts

    def test_roomy_square_counts_nothing(self, square_foi, rng):
        start = square_foi.sample_free_points(16, rng)
        metrics = Metrics()
        with activate_metrics(metrics):
            run_lloyd(start, square_foi, comm_range=200.0)
        for name in ("halvings", "backstops", "stalls"):
            assert metrics.counter(f"lloyd.{name}").value == 0

    def test_unsafe_mode_counts_nothing(self, square_foi, rng):
        start = square_foi.sample_free_points(4, rng)
        metrics = Metrics()
        with activate_metrics(metrics):
            run_lloyd(
                start, square_foi,
                config=LloydConfig(connectivity_safe=False, max_iterations=5),
            )
        assert not any(name.startswith("lloyd.") for name in metrics.snapshot())


class TestDensity:
    def test_uniform(self):
        w = validate_density(uniform_density(), [[0, 0], [1, 1]])
        assert np.allclose(w, 1.0)

    def test_gaussian_peaks_at_center(self):
        d = gaussian_hotspot_density([0.0, 0.0], sigma=1.0)
        w = d(np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert w[0] > w[1]

    def test_gaussian_invalid_params(self):
        with pytest.raises(CoverageError):
            gaussian_hotspot_density([0, 0], sigma=0.0)

    def test_hole_proximity_increases_near_hole(self, holed_foi):
        d = hole_proximity_density(holed_foi, sigma=5.0)
        near = d(np.array([[50.0, 62.5]]))  # just above the hole
        far = d(np.array([[5.0, 5.0]]))
        assert near[0] > far[0]

    def test_hole_proximity_requires_holes(self, square_foi):
        with pytest.raises(CoverageError):
            hole_proximity_density(square_foi, sigma=5.0)

    def test_validate_rejects_negative(self):
        with pytest.raises(CoverageError):
            validate_density(lambda pts: -np.ones(len(pts)), [[0, 0]])

    def test_validate_rejects_shape(self):
        with pytest.raises(CoverageError):
            validate_density(lambda pts: np.ones(len(pts) + 1), [[0, 0]])

    def test_density_shifts_mass(self, square_foi, rng):
        """Fig. 6's mechanism: a hotspot density concentrates robots."""
        start = lattice_positions(square_foi, 30, comm_range=40.0)
        hotspot = gaussian_hotspot_density([50.0, 50.0], sigma=15.0, peak=8.0)
        res_uni = run_lloyd(start, square_foi, comm_range=200.0)
        res_hot = run_lloyd(start, square_foi, comm_range=200.0, density=hotspot)
        center = np.array([50.0, 50.0])

        def near_center(pts):
            return float(np.mean(np.hypot(*(pts - center).T) < 25.0))

        assert near_center(res_hot.positions) > near_center(res_uni.positions)


class TestLatticeAndOptimal:
    def test_lattice_positions_count(self, square_foi):
        pts = lattice_positions(square_foi, 30, comm_range=40.0)
        assert len(pts) == 30
        assert square_foi.contains(pts).all()

    def test_optimal_positions_deterministic(self, square_foi):
        a = optimal_coverage_positions(square_foi, 20, 40.0, grid_target=800)
        b = optimal_coverage_positions(square_foi, 20, 40.0, grid_target=800)
        assert np.array_equal(a, b)

    def test_optimal_positions_spread(self, square_foi):
        pts = optimal_coverage_positions(square_foi, 20, 40.0, grid_target=800)
        # Pairwise minimum distance is healthy (no stacking).
        d = np.hypot(*(pts[:, None] - pts[None, :]).T) + np.eye(20) * 1e9
        assert d.min() > 10.0

    def test_invalid_count(self, square_foi):
        with pytest.raises(CoverageError):
            optimal_coverage_positions(square_foi, 0, 40.0)
