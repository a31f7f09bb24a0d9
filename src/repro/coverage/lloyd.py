"""Lloyd's algorithm on a discretised FoI (paper Sec. III-C).

The minor-adjustment phase moves each robot to the (density-weighted)
centroid of its Voronoi region, iterating until no robot moves.  To
handle concave boundaries and holes uniformly, the FoI is discretised
into a dense point grid; a robot's Voronoi region is the set of grid
points nearest to it, and its centroid is their weighted mean.  The
paper's hole rules fall out naturally: a centroid that lands in a hole
is replaced by the nearest grid point (Sec. III-D3), and the
connectivity-safe variant halves every step while a move would
disconnect the network (Sec. III-D1, last paragraph).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import CoverageError
from repro.coverage.density import DensityFunction, uniform_density, validate_density
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points
from repro.network.udg import UnitDiskGraph
from repro.obs import current_span, get_metrics

__all__ = ["LloydResult", "LloydConfig", "lloyd_iteration", "run_lloyd"]


@dataclass(frozen=True)
class LloydConfig:
    """Tuning knobs for the Lloyd iteration.

    Attributes
    ----------
    grid_target : int
        Approximate number of discretisation points.
    max_iterations : int
    tolerance_fraction : float
        Convergence: stop when the largest move falls below this
        fraction of the grid pitch.
    connectivity_safe : bool
        Enforce the step-halving rule so the network never disconnects
        during the adjustment.
    max_halvings : int
        Give up moving (this iteration) after this many halvings.
    """

    grid_target: int = 2500
    max_iterations: int = 60
    tolerance_fraction: float = 0.05
    connectivity_safe: bool = True
    max_halvings: int = 6


@dataclass(frozen=True)
class LloydResult:
    """Outcome of a Lloyd run.

    Attributes
    ----------
    positions : (n, 2) ndarray
        Final robot positions.
    snapshots : list of (n, 2) ndarray
        Positions after every iteration (first entry is the start).
    iterations : int
    converged : bool
    total_movement : float
        Sum over robots of per-iteration step lengths (the adjustment
        cost added to the transition's moving distance).
    """

    positions: np.ndarray
    snapshots: list[np.ndarray]
    iterations: int
    converged: bool
    total_movement: float


def _assign_centroids(
    sites: np.ndarray,
    grid: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted centroid of each site's nearest-grid-point region.

    Sites whose region is empty (no grid point is nearest to them,
    e.g. robots still outside the FoI) get the nearest grid point as
    centroid, pulling them into the region.  One ``(grid, sites)``
    distance pass, with no ``(grid, sites, 2)`` temporary, serves both;
    bitwise equal to :func:`_assign_centroids_oracle` (ties go to the
    lowest index).
    """
    d2 = np.subtract.outer(grid[:, 0], sites[:, 0])
    np.square(d2, out=d2)
    dy = np.subtract.outer(grid[:, 1], sites[:, 1])
    np.square(dy, out=dy)
    d2 += dy
    owner = np.argmin(d2, axis=1)
    n = len(sites)
    w_sum = np.bincount(owner, weights=weights, minlength=n)
    cx = np.bincount(owner, weights=weights * grid[:, 0], minlength=n)
    cy = np.bincount(owner, weights=weights * grid[:, 1], minlength=n)
    centroids = sites.copy()
    nonempty = w_sum > 0
    centroids[nonempty, 0] = cx[nonempty] / w_sum[nonempty]
    centroids[nonempty, 1] = cy[nonempty] / w_sum[nonempty]
    empty = ~nonempty
    centroids[empty] = grid[np.argmin(d2[:, empty], axis=0)]
    return centroids


def _assign_centroids_oracle(
    sites: np.ndarray,
    grid: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Strided ``(grid, sites, 2)`` form of :func:`_assign_centroids` (test oracle)."""
    diff = grid[:, None, :] - sites[None, :, :]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    owner = np.argmin(d2, axis=1)
    n = len(sites)
    w_sum = np.bincount(owner, weights=weights, minlength=n)
    cx = np.bincount(owner, weights=weights * grid[:, 0], minlength=n)
    cy = np.bincount(owner, weights=weights * grid[:, 1], minlength=n)
    centroids = sites.copy()
    nonempty = w_sum > 0
    centroids[nonempty, 0] = cx[nonempty] / w_sum[nonempty]
    centroids[nonempty, 1] = cy[nonempty] / w_sum[nonempty]
    for i in np.flatnonzero(~nonempty):
        dg = grid - sites[i]
        centroids[i] = grid[int(np.argmin(dg[:, 0] ** 2 + dg[:, 1] ** 2))]
    return centroids


def lloyd_iteration(
    sites: np.ndarray,
    foi: FieldOfInterest,
    grid: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """One Lloyd step: per-site density-weighted centroid, hole-corrected."""
    centroids = _assign_centroids(sites, grid, weights)
    # Hole rule: a centroid inside a hole (or outside the outer
    # boundary, possible for weighted regions hugging a concavity)
    # falls back to the nearest grid point.
    ok = foi.contains(centroids)
    for i in np.flatnonzero(~ok):
        dg = grid - centroids[i]
        centroids[i] = grid[int(np.argmin(dg[:, 0] ** 2 + dg[:, 1] ** 2))]
    return centroids


def run_lloyd(
    start_positions,
    foi: FieldOfInterest,
    comm_range: float | None = None,
    density: DensityFunction | None = None,
    config: LloydConfig | None = None,
) -> LloydResult:
    """Run Lloyd's algorithm from ``start_positions`` inside ``foi``.

    Parameters
    ----------
    start_positions : (n, 2) array-like
    foi : FieldOfInterest
    comm_range : float, optional
        Required when ``config.connectivity_safe`` (the default); used
        for the disconnect check.
    density : DensityFunction, optional
        Defaults to uniform.
    config : LloydConfig, optional

    Returns
    -------
    LloydResult
    """
    cfg = config or LloydConfig()
    sites = as_points(start_positions).copy()
    if len(sites) == 0:
        raise CoverageError("need at least one robot")
    if cfg.connectivity_safe and comm_range is None:
        raise CoverageError("comm_range required for connectivity-safe Lloyd")
    dens = density or uniform_density()
    spacing = float(np.sqrt(foi.area / cfg.grid_target))
    grid = foi.grid_points(spacing)
    if len(grid) < len(sites):
        raise CoverageError(
            f"discretisation too coarse: {len(grid)} grid points for "
            f"{len(sites)} robots"
        )
    weights = validate_density(dens, grid)
    tol = cfg.tolerance_fraction * spacing

    snapshots = [sites.copy()]
    total_movement = 0.0
    converged = False
    iterations = 0
    decisions: Counter[str] = Counter()
    for iterations in range(1, cfg.max_iterations + 1):
        targets = lloyd_iteration(sites, foi, grid, weights)
        if cfg.connectivity_safe:
            new_sites = _connectivity_safe_step(
                sites, targets, float(comm_range), cfg.max_halvings, decisions
            )
        else:
            new_sites = targets
        step = np.hypot(*(new_sites - sites).T)
        total_movement += float(step.sum())
        # The stopping rule reads the step taken; convergence reads the
        # Lloyd residual, so a swarm the safety rule froze short of its
        # centroids stops but is not converged.
        residual = float(np.hypot(*(targets - sites).T).max())
        sites = new_sites
        snapshots.append(sites.copy())
        if float(step.max()) < tol:
            converged = residual < tol
            break
    if cfg.connectivity_safe:
        counts = {name: decisions[name] for name in _DECISIONS}
        metrics = get_metrics()
        for name, value in counts.items():
            metrics.counter(f"lloyd.{name}").inc(value)
        current_span().set_attributes(**counts)
    return LloydResult(
        positions=sites,
        snapshots=snapshots,
        iterations=iterations,
        converged=converged,
        total_movement=total_movement,
    )


#: Decision counters of the connectivity-safe step, reported per run as
#: ``lloyd.<name>`` counters and attributes of the enclosing span.
_DECISIONS = ("halvings", "backstops", "stalls")


def _connectivity_safe_step(
    sites: np.ndarray,
    targets: np.ndarray,
    comm_range: float,
    max_halvings: int,
    decisions: Counter | None = None,
) -> np.ndarray:
    """Move toward targets, halving *individual* steps that break links.

    Implements Sec. III-D1: "a mobile robot collects the computed
    centroid positions of its one-range neighbors and compares with its
    own.  If no mobile robot will disconnect from the network, every
    robot simply moves to its centroid position; otherwise, each robot
    checks whether it is safe to move to half of the distance to the
    centroid position and so on."

    The check is the paper's local one - after the synchronous step a
    robot must keep at least one of its current neighbours in range -
    with per-robot step factors, so one cornered robot cannot freeze
    the whole swarm.  A global connectivity check backstops the local
    rule (two subgroups could drift apart with all local links intact);
    if it trips, the entire step is uniformly halved, and in the worst
    case the swarm holds position for this iteration.

    Each halving round is one pass over the current link array: one
    ``hypot`` per link, and a robot is safe when any of its links stays
    in range (robots without neighbours are exempt).  Bitwise equal to
    :func:`_connectivity_safe_step_scalar`.  ``decisions``, when given,
    counts the robot step halvings of the local rule (``halvings``), an
    iteration in which the global backstop tripped (``backstops``) and
    one in which it froze the swarm (``stalls``, also a backstop).
    """
    if decisions is None:
        decisions = Counter()
    graph = UnitDiskGraph(sites, comm_range)
    was_connected = graph.is_connected()
    a, b = graph.edges.T
    exempt = np.ones(len(sites), dtype=bool)
    exempt[a] = exempt[b] = False
    alphas = np.ones(len(sites))
    moves = targets - sites
    for _ in range(max_halvings + 1):
        proposal = sites + alphas[:, None] * moves
        gap = proposal[b] - proposal[a]
        kept = np.hypot(gap[:, 0], gap[:, 1]) <= comm_range
        safe = exempt.copy()
        safe[a[kept]] = safe[b[kept]] = True
        if safe.all():
            break
        alphas[~safe] /= 2.0
        decisions["halvings"] += int(np.count_nonzero(~safe))
    proposal = sites + alphas[:, None] * moves
    if not was_connected or UnitDiskGraph(proposal, comm_range).is_connected():
        return proposal
    # Global backstop: uniformly shrink the (locally safe) step.
    decisions["backstops"] += 1
    scale = 1.0
    for _ in range(max_halvings + 1):
        scale /= 2.0
        trial = sites + scale * alphas[:, None] * moves
        if UnitDiskGraph(trial, comm_range).is_connected():
            return trial
    decisions["stalls"] += 1
    return sites.copy()


def _connectivity_safe_step_scalar(
    sites: np.ndarray, targets: np.ndarray, comm_range: float, max_halvings: int
) -> np.ndarray:
    """Per-robot loop form of :func:`_connectivity_safe_step` (test oracle)."""
    graph = UnitDiskGraph(sites, comm_range)
    was_connected = graph.is_connected()
    n = len(sites)
    alphas = np.ones(n)
    moves = targets - sites
    for _ in range(max_halvings + 1):
        proposal = sites + alphas[:, None] * moves
        unsafe = []
        for i in range(n):
            nbrs = graph.neighbors(i)
            if not nbrs:
                continue
            d = np.hypot(*(proposal[nbrs] - proposal[i]).T)
            if not (d <= comm_range).any():
                unsafe.append(i)
        if not unsafe:
            break
        alphas[unsafe] /= 2.0
    proposal = sites + alphas[:, None] * moves
    if not was_connected or UnitDiskGraph(proposal, comm_range).is_connected():
        return proposal
    # Global backstop: uniformly shrink the (locally safe) step.
    scale = 1.0
    for _ in range(max_halvings + 1):
        scale /= 2.0
        trial = sites + scale * alphas[:, None] * moves
        if UnitDiskGraph(trial, comm_range).is_connected():
            return trial
    return sites.copy()
