"""A marching planner that runs the paper's *distributed* stages.

This is the centralized :class:`~repro.marching.planner.MarchingPlanner`
pipeline with the four stages the paper describes as message-passing
algorithms swapped for their protocols on the :mod:`repro.distributed`
runtime; every other stage is the centralized code:

===========================  =========================================
stage                        execution here
===========================  =========================================
triangulation extraction     localized one-hop Delaunay agreement
                             (:func:`extract_triangulation_localized`)
boundary parameterization    boundary-loop token protocol
                             (hop counting, Sec. III-B)
rotation-angle search        per-robot local scores flooded to a
                             global one (Sec. III-B / III-D2)
isolation detection          boundary-flood subgroup protocol inside
                             the shared Sec. III-D1 repair loop
===========================  =========================================

T's harmonic interior solve stays the sparse solver: the test suite
proves it sweep-for-sweep equivalent to the averaging protocol, and
tens of thousands of Jacobi message rounds per plan would only burn
time, not add fidelity.

The test suite asserts this planner reproduces the centralized
planner's rotation angle and targets.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.protocols.boundary_loop import run_boundary_loop_protocol
from repro.distributed.protocols.rotation_search import DistributedRotationSearch
from repro.distributed.protocols.subgroup import run_subgroup_detection
from repro.harmonic.boundary import circle_positions
from repro.harmonic.diskmap import DiskMap
from repro.harmonic.solvers import solve_linear
from repro.marching.planner import MarchingPlanner
from repro.mesh.holes import fill_holes
from repro.network.extract import extract_triangulation_localized

__all__ = ["DistributedMarchingPlanner"]


def _protocol_hops(adjacency, anchors) -> np.ndarray:
    """Boundary-flood hop counts, -1 for robots the flood never reached."""
    _, hops = run_subgroup_detection(anchors, adjacency)
    return np.array([-1 if h is None else h for h in hops], dtype=int)


class DistributedMarchingPlanner(MarchingPlanner):
    """Plans a transition using the distributed protocol stages.

    Parameters
    ----------
    config : MarchingConfig, optional
        Same knobs as the centralized planner; ``boundary_mode`` and
        ``solver`` shape only M2's embedding (T's boundary comes from
        the token protocol, which realises the paper's uniform
        hop-count spacing).
    """

    _method_suffix = ", distributed"
    _isolation_hops = staticmethod(_protocol_hops)

    @staticmethod
    def _extract_triangulation(p, comm_range):
        return extract_triangulation_localized(p, comm_range)

    def _disk_map_t(self, t_mesh) -> DiskMap:
        """Disk embedding whose boundary comes from the token protocol."""
        filled = fill_holes(t_mesh)
        loop = filled.mesh.outer_boundary_loop
        angle_by_vertex = run_boundary_loop_protocol(
            loop, filled.mesh.vertex_count, filled.mesh.adjacency
        )
        loop_arr = np.asarray(loop, dtype=int)
        bpos = circle_positions([angle_by_vertex[v] for v in loop])
        positions = solve_linear(filled.mesh, loop_arr, bpos)
        return DiskMap(
            source=t_mesh,
            filled=filled,
            disk_positions=positions,
            boundary_mode="uniform-protocol",
            solver="linear",
            iterations=0,
        )

    def _rotation_search(self, induced, dm_t, t_mesh, starts_t, t_links, comm_range):
        """Per-robot local scores, flooded; each robot maps its own point."""
        cfg = self.config
        search = DistributedRotationSearch(
            induced,
            dm_t.robot_disk_positions,
            starts_t,
            t_links,
            comm_range,
            t_mesh.adjacency,
        )
        result, targets_t = search.run(
            depth=cfg.search_depth,
            initial_samples=cfg.initial_samples,
            maximize=cfg.method == "a",
        )
        return result, targets_t, {"flood_rounds": search.flood_rounds}
