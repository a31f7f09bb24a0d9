"""Building swarm trajectories for FoI transitions.

Helpers that turn per-robot start/target pairs into a synchronous
:class:`~repro.robots.motion.SwarmTrajectory`, inserting hole detours
where a straight path would cross forbidden terrain (Sec. III-D3) and
supporting the "parallel escort" paths used by the connectivity repair
of Sec. III-D1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanningError
from repro.foi.detour import detour_path_holes, path_blocked_by_holes
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points
from repro.obs import current_span, get_metrics
from repro.robots.motion import SwarmTrajectory, TimedPath

__all__ = [
    "straight_transition",
    "detoured_transition",
    "stepwise_trajectory",
]

DEFAULT_TRANSITION_TIME = 1.0


def straight_transition(
    starts, targets, t_start: float = 0.0, t_end: float = DEFAULT_TRANSITION_TIME
) -> SwarmTrajectory:
    """Straight-line synchronous transition (Eqn. 2 of the paper)."""
    p = as_points(starts)
    q = as_points(targets)
    if len(p) != len(q):
        raise PlanningError("start/target count mismatch")
    paths = [
        TimedPath.constant_speed(np.vstack([a, b]), t_start, t_end)
        for a, b in zip(p, q)
    ]
    return SwarmTrajectory(paths, t_start, t_end)


def detoured_transition(
    starts,
    targets,
    target_foi: FieldOfInterest | None = None,
    t_start: float = 0.0,
    t_end: float = DEFAULT_TRANSITION_TIME,
    source_foi: FieldOfInterest | None = None,
) -> SwarmTrajectory:
    """Synchronous transition with hole detours (Sec. III-D3).

    Robots whose straight path crosses a hole of the target FoI - or of
    the source FoI they are leaving, when given - follow the hole
    boundary per the paper's rule.  When there are holes, the number
    of straight paths checked and of robots that detoured are added to
    the ambient ``march.path_checks`` / ``march.detours`` counters and
    set as ``path_checks`` / ``detours`` on the innermost open span
    (``plan.march`` under the planner).

    Parameters
    ----------
    starts, targets : (n, 2) array-like
    target_foi : FieldOfInterest, optional
        When both FoIs are omitted or hole-free this degrades to
        :func:`straight_transition`.
    source_foi : FieldOfInterest, optional
        The FoI being left; its holes are avoided too (relevant for the
        hole-to-hole scenarios where robots start around obstacles).
    """
    p = as_points(starts)
    q = as_points(targets)
    if len(p) != len(q):
        raise PlanningError("start/target count mismatch")
    holes = []
    areas = []
    for foi in (target_foi, source_foi):
        if foi is not None and foi.has_holes:
            holes.extend(foi.holes)
            areas.append(foi.area)
    if not holes:
        return straight_transition(p, q, t_start, t_end)
    margin = 1e-3 * max(1.0, float(np.sqrt(max(areas))))
    paths = []
    detours = 0
    for a, b in zip(p, q):
        if path_blocked_by_holes(holes, a, b) is None:
            waypoints = np.vstack([a, b])
        else:
            waypoints = detour_path_holes(holes, a, b, margin=margin)
            detours += 1
        paths.append(TimedPath.constant_speed(waypoints, t_start, t_end))
    metrics = get_metrics()
    metrics.counter("march.path_checks").inc(len(p))
    metrics.counter("march.detours").inc(detours)
    current_span().set_attributes(path_checks=len(p), detours=detours)
    return SwarmTrajectory(paths, t_start, t_end)


def stepwise_trajectory(
    step_positions, t_start: float = 0.0, t_end: float = DEFAULT_TRANSITION_TIME
) -> SwarmTrajectory:
    """Trajectory through a sequence of synchronous swarm snapshots.

    Used for the Lloyd adjustment phase: every robot moves linearly
    from its position in step ``k`` to its position in step ``k + 1``,
    with all robots synchronised at the step boundaries.

    Parameters
    ----------
    step_positions : sequence of (n, 2) arrays
        At least one snapshot; all with the same robot count.
    """
    steps = [as_points(s) for s in step_positions]
    if not steps:
        raise PlanningError("need at least one snapshot")
    n = len(steps[0])
    if any(len(s) != n for s in steps):
        raise PlanningError("snapshots have inconsistent robot counts")
    if len(steps) == 1:
        times = [t_start]
    else:
        times = np.linspace(t_start, t_end, len(steps))
    paths = []
    for i in range(n):
        waypoints = np.array([s[i] for s in steps])
        if len(steps) == 1:
            paths.append(TimedPath(waypoints[:1], [t_start]))
        else:
            paths.append(TimedPath(waypoints, times))
    return SwarmTrajectory(paths, t_start, t_end)
