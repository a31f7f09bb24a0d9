"""Micro-benchmarks of the performance-critical kernels.

These are conventional pytest-benchmark timings (multiple rounds) for
the kernels the experiment harness leans on: the Hungarian assignment
at the paper's problem size (144 robots), the sparse harmonic solve,
the unit-disk graph build, one Lloyd iteration, the FoI containment
predicate and the connectivity-safe Lloyd step.
"""

import numpy as np
import pytest

from repro.baselines import solve_assignment
from repro.coverage.lloyd import _connectivity_safe_step, lloyd_iteration
from repro.foi import m1_base, m2_scenario6
from repro.geometry import pairwise_distances
from repro.harmonic import boundary_parameterization, circle_positions
from repro.harmonic.solvers import solve_linear
from repro.mesh import triangulate_foi
from repro.network import UnitDiskGraph
from repro.robots import RadioSpec, Swarm


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


def test_perf_hungarian_144(benchmark, rng):
    p = rng.uniform(0, 1000, (144, 2))
    q = rng.uniform(0, 1000, (144, 2))
    cost = pairwise_distances(p, q)
    result = benchmark(solve_assignment, cost)
    assert sorted(result.tolist()) == list(range(144))


def test_perf_harmonic_solve(benchmark):
    mesh = triangulate_foi(m1_base(), target_points=600).mesh
    loop, angles = boundary_parameterization(mesh)
    bpos = circle_positions(angles)
    out = benchmark(solve_linear, mesh, loop, bpos)
    assert np.hypot(out[:, 0], out[:, 1]).max() <= 1.0 + 1e-9


def test_perf_udg_build(benchmark, rng):
    pts = rng.uniform(0, 2000, (144, 2))

    def build():
        return UnitDiskGraph(pts, 80.0).edges

    edges = benchmark(build)
    assert edges.ndim == 2


def test_perf_lloyd_iteration(benchmark, rng):
    foi = m1_base()
    grid = foi.grid_points(np.sqrt(foi.area / 2000))
    weights = np.ones(len(grid))
    sites = foi.sample_free_points(144, rng)
    out = benchmark(lloyd_iteration, sites, foi, grid, weights)
    assert out.shape == (144, 2)


@pytest.mark.parametrize("kind", ["144 points", "2500-point grid"])
def test_perf_foi_contains(benchmark, rng, kind):
    """Scenario 6's holed M2: Lloyd's centroid check and grid filtering."""
    foi = m2_scenario6()
    lo, hi = np.array(foi.outer.bounds[:2]), np.array(foi.outer.bounds[2:])
    if kind == "144 points":
        pts = lo + (hi - lo) * rng.uniform(0.0, 1.0, (144, 2))
    else:
        g = np.linspace(0.0, 1.0, 50)
        pts = lo + (hi - lo) * np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    inside = benchmark(foi.contains, pts)
    assert 0 < inside.sum() < len(pts)


def test_perf_connectivity_safe_step(benchmark):
    """One safe step of 144 lattice robots toward their Lloyd centroids."""
    foi = m1_base()
    swarm = Swarm.deploy_lattice(foi, 144, RadioSpec.from_comm_range(80.0))
    grid = foi.grid_points(np.sqrt(foi.area / 2000))
    sites = swarm.positions
    targets = lloyd_iteration(sites, foi, grid, np.ones(len(grid)))
    out = benchmark(_connectivity_safe_step, sites, targets, 80.0, 6)
    assert out.shape == (144, 2)


def test_perf_disabled_span_overhead(benchmark):
    """A thousand ambient no-op spans: the cost instrumentation adds to
    hot paths when no tracer is activated (must stay negligible)."""
    from repro.obs import get_tracer, span

    assert not get_tracer().enabled

    def enter_spans():
        for _ in range(1000):
            with span("bench.noop"):
                pass

    benchmark(enter_spans)
