"""Global connectivity ``C`` over a transition (paper Definition 2).

A transition has ``C = 1`` when, at every instant, every robot has a
multi-hop communication path to the network boundary (the robots on the
outer boundary loop of the extracted triangulation ``T``).  When no
boundary anchor set is given the check degrades to plain graph
connectivity, which is the same predicate whenever the anchors are a
non-empty subset of the swarm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.udg import isolated_counts
from repro.obs import span
from repro.robots.motion import SwarmTrajectory

__all__ = ["ConnectivityReport", "global_connectivity", "connectivity_report"]


@dataclass(frozen=True)
class ConnectivityReport:
    """Outcome of the Definition-2 check over a transition.

    Attributes
    ----------
    connected : bool
        The paper's ``C`` as a boolean.
    first_failure_time : float or None
        Earliest sampled instant at which some robot lost its path to
        the boundary anchors.
    max_isolated : int
        Largest number of simultaneously isolated robots at any sample.
    samples : int
        Number of instants evaluated.
    """

    connected: bool
    first_failure_time: float | None
    max_isolated: int
    samples: int

    @property
    def as_flag(self) -> str:
        """Table-I style "Y"/"N" rendering."""
        return "Y" if self.connected else "N"


def global_connectivity(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> bool:
    """Definition 2's ``C`` as a boolean."""
    return connectivity_report(
        trajectory, comm_range, boundary_anchors, resolution
    ).connected


def connectivity_report(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> ConnectivityReport:
    """Evaluate Definition 2 over a trajectory's sampled instants.

    Parameters
    ----------
    trajectory : SwarmTrajectory
    comm_range : float
    boundary_anchors : iterable of int, optional
        Robot indices forming the network boundary.  Defaults to
        requiring plain connectivity of the whole graph.
    resolution : int
        Uniform sample count merged with the trajectory's critical
        times.
    """
    times = trajectory.sample_times(resolution)
    anchors = None if boundary_anchors is None else [int(a) for a in boundary_anchors]
    with span("metrics.connectivity", samples=int(len(times))) as sp:
        isolated = isolated_counts(
            trajectory.positions_over(times), comm_range, anchors
        )
        failing = np.flatnonzero(isolated)
        max_isolated = int(isolated.max(initial=0))
        sp.set("max_isolated", max_isolated)
    return ConnectivityReport(
        connected=len(failing) == 0,
        first_failure_time=float(times[failing[0]]) if len(failing) else None,
        max_isolated=max_isolated,
        samples=len(times),
    )
