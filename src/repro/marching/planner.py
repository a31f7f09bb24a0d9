"""The optimal-marching planner (paper Sec. III, the core contribution).

:class:`MarchingPlanner` strings together every stage of the proposed
algorithm:

1. **Preprocess** - extract the triangulation ``T`` from the swarm's
   connectivity graph in M1 (Sec. III-A).
2. **Modified harmonic map** - embed ``T`` and the gridded target FoI
   ``M2`` on unit disks, search the overlay rotation angle with the
   fixed-depth interval halving, and read each robot's target off the
   induced map by barycentric interpolation (Sec. III-B, Eqn. 1).
3. **Global-connectivity repair** - escort isolated robots/subgroups
   parallel to a reached reference (Sec. III-D1).
4. **March** - synchronous straight-line motion with hole detours
   (Eqn. 2, Sec. III-D3).
5. **Minor local adjustment** - connectivity-safe, density-aware Lloyd
   iteration to the centroidal-Voronoi coverage positions
   (Sec. III-C).

Method (a) maximises the stable-link count; method (b) minimises the
total moving distance (Sec. III-D2).  Both guarantee ``C = 1``.

The stages the paper also runs as message-passing protocols -
triangulation extraction, T's boundary parameterisation, the rotation
search and isolation detection - are private methods, so
:class:`~repro.marching.distributed_planner.DistributedMarchingPlanner`
swaps in the protocols and shares everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coverage.density import DensityFunction
from repro.coverage.lloyd import LloydConfig, run_lloyd
from repro.errors import PlanningError
from repro.foi.region import FieldOfInterest
from repro.harmonic.diskmap import compute_disk_map
from repro.harmonic.rotation import hierarchical_angle_search
from repro.harmonic.transfer import InducedMap
from repro.marching.repair import repair_targets
from repro.marching.result import MarchingResult
from repro.mesh.delaunay import triangulate_foi
from repro.network.extract import extract_triangulation
from repro.network.graphs import bfs_hops
from repro.network.links import LinkTable, links_alive
from repro.obs import span
from repro.robots.swarm import Swarm
from repro.robots.transition import detoured_transition, stepwise_trajectory

__all__ = ["MarchingConfig", "MarchingPlanner"]


@dataclass(frozen=True)
class MarchingConfig:
    """Planner tuning knobs.

    Attributes
    ----------
    method : {"a", "b"}
        (a) maximise the stable link ratio; (b) minimise the total
        moving distance.
    search_depth : int
        Interval-halving depth of the rotation search (paper: 4).
    initial_samples : int
        Coarse seed angles for the rotation search.
    boundary_mode : {"chord", "uniform"}
        Boundary parameterization of the harmonic maps.
    solver : {"linear", "iterative"}
        Harmonic interior solver.
    foi_target_points : int
        Grid resolution of the target FoI triangulation.
    lloyd : LloydConfig
        Adjustment-phase configuration (connectivity-safe by default).
    transition_time : float
        Total time ``T`` of the march + adjustment plan.
    keep_artifacts : bool
        Keep meshes/disk maps on the result for figures and debugging.
    use_cache : bool
        Let the disk-map stages consult the ambient
        :class:`repro.exec.ContentCache` (default True); the target
        FoI's embedding is mission-independent, so repeated plans into
        the same region (sweeps, method (a) vs (b)) reuse one solve.
    """

    method: str = "a"
    search_depth: int = 4
    initial_samples: int = 4
    boundary_mode: str = "chord"
    solver: str = "linear"
    foi_target_points: int = 600
    lloyd: LloydConfig = field(default_factory=LloydConfig)
    transition_time: float = 1.0
    keep_artifacts: bool = False
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.method not in ("a", "b"):
            raise PlanningError(f"method must be 'a' or 'b', got {self.method!r}")
        if self.search_depth < 0:
            raise PlanningError("search_depth must be non-negative")
        if self.transition_time <= 0:
            raise PlanningError("transition_time must be positive")


class MarchingPlanner:
    """Plans the relocation of a swarm between two Fields of Interest.

    Parameters
    ----------
    config : MarchingConfig, optional

    Examples
    --------
    >>> from repro.foi import m1_base, m2_scenario1
    >>> from repro.robots import Swarm, RadioSpec
    >>> radio = RadioSpec.from_comm_range(80.0)
    >>> swarm = Swarm.deploy_lattice(m1_base(), 64, radio)
    >>> planner = MarchingPlanner()
    >>> result = planner.plan(swarm, m2_scenario1().translated((2000, 0)))
    >>> result.trajectory.total_distance() > 0
    True
    """

    def __init__(self, config: MarchingConfig | None = None) -> None:
        self.config = config or MarchingConfig()

    # ------------------------------------------------------------------

    def plan(
        self,
        swarm: Swarm,
        target_foi: FieldOfInterest,
        density: DensityFunction | None = None,
        source_foi: FieldOfInterest | None = None,
    ) -> MarchingResult:
        """Plan the transition of ``swarm`` into ``target_foi``.

        Parameters
        ----------
        swarm : Swarm
            Deployed in the current FoI; must be connected.
        target_foi : FieldOfInterest
        density : DensityFunction, optional
            Density for the adjustment phase (Sec. IV-E).
        source_foi : FieldOfInterest, optional
            The FoI being left; when it has holes the march detours
            around them too (hole-to-hole scenarios).

        Returns
        -------
        MarchingResult

        Raises
        ------
        PlanningError
            If the swarm is disconnected or a pipeline stage fails.
        """
        cfg = self.config
        p = swarm.positions
        comm_range = swarm.radio.comm_range
        graph = swarm.communication_graph()
        if not graph.is_connected():
            raise PlanningError("the swarm must start connected")
        links = LinkTable.from_graph(graph)

        # Stage 1: triangulation extraction.
        with span("plan.extract_triangulation", robots=len(p)) as sp_:
            t_mesh, vmap = self._extract_triangulation(p, comm_range)
            sp_.set_attributes(t_vertices=len(vmap))
        in_t = np.zeros(len(p), dtype=bool)
        in_t[vmap] = True
        anchors = tuple(int(vmap[v]) for v in t_mesh.outer_boundary_loop)

        # Stage 2: modified harmonic map.
        with span("plan.disk_map_t", solver=cfg.solver):
            dm_t = self._disk_map_t(t_mesh)
        with span("plan.triangulate_foi", target_points=cfg.foi_target_points):
            foi_mesh = triangulate_foi(
                target_foi, target_points=cfg.foi_target_points
            )
        with span("plan.disk_map_m2", solver=cfg.solver):
            dm_m2 = compute_disk_map(
                foi_mesh.mesh, boundary_mode=cfg.boundary_mode, solver=cfg.solver,
                use_cache=cfg.use_cache,
            )
        induced = InducedMap(dm_m2)
        t_links = self._links_among(links.links, in_t, vmap)

        with span("plan.rotation_search", method=cfg.method) as sp_:
            search, targets_t, artifacts = self._rotation_search(
                induced, dm_t, t_mesh, p[vmap], t_links, comm_range
            )
            sp_.set_attributes(angle=search.angle, evaluations=search.evaluations)

        # Stage 3: targets for every robot (escort stragglers outside T).
        q = np.zeros_like(p)
        q[vmap] = targets_t
        for i in np.flatnonzero(~in_t):
            ref = self._nearest_in_t(i, p, in_t)
            q[i] = p[i] + (q[ref] - p[ref])
        # Robots mapped onto hole-boundary chords may sit marginally
        # inside a hole; project them into the free region.
        inside = target_foi.contains(q)
        for i in np.flatnonzero(~inside):
            q[i] = target_foi.project_inside(q[i])

        with span("plan.repair"):
            q, repair_info = repair_targets(
                p, q, comm_range, anchors, links=links.links,
                _hops=self._isolation_hops,
            )

        # Stage 4: the march (with hole detours in the target FoI).
        march_total = float(np.hypot(*(q - p).T).sum())

        # Stage 5: Lloyd adjustment to coverage positions.
        with span("plan.adjust") as sp_:
            lloyd = run_lloyd(
                q,
                target_foi,
                comm_range=comm_range,
                density=density,
                config=cfg.lloyd,
            )
            sp_.set_attributes(iterations=lloyd.iterations)
        adjust_total = lloyd.total_movement

        with span("plan.march", march_distance=march_total) as sp_:
            t_split = self._time_split(
                march_total, adjust_total, cfg.transition_time
            )
            march_traj = detoured_transition(
                p, q, target_foi, 0.0, t_split, source_foi=source_foi
            )
            adjust_traj = stepwise_trajectory(
                lloyd.snapshots, t_split, cfg.transition_time
            )
            trajectory = march_traj.then(adjust_traj)
            sp_.set_attributes(total_distance=trajectory.total_distance())

        if cfg.keep_artifacts:
            artifacts.update(
                t_mesh=t_mesh,
                t_vertex_map=vmap,
                disk_map_t=dm_t,
                foi_mesh=foi_mesh,
                disk_map_m2=dm_m2,
                lloyd=lloyd,
                search=search,
            )

        return MarchingResult(
            method=f"ours ({cfg.method}{self._method_suffix})",
            start_positions=p.copy(),
            march_targets=q,
            final_positions=lloyd.positions,
            trajectory=trajectory,
            links=links,
            boundary_anchors=anchors,
            rotation_angle=search.angle,
            rotation_evaluations=search.evaluations,
            repair=repair_info,
            lloyd_iterations=lloyd.iterations,
            artifacts=artifacts,
        )

    # ------------------------------------------------------------------
    # The stages the distributed planner replaces with protocols.

    _method_suffix = ""
    #: Sec. III-D1 isolation detector: hop distance to the boundary per
    #: robot over the surviving links, -1 when unreached.
    _isolation_hops = staticmethod(bfs_hops)

    @staticmethod
    def _extract_triangulation(p: np.ndarray, comm_range: float):
        """Stage 1: the triangulation ``T`` and its robot indices."""
        return extract_triangulation(p, comm_range)

    def _disk_map_t(self, t_mesh):
        """Stage 2a: ``T``'s unit-disk embedding."""
        cfg = self.config
        return compute_disk_map(
            t_mesh, boundary_mode=cfg.boundary_mode, solver=cfg.solver,
            use_cache=cfg.use_cache,
        )

    def _rotation_search(self, induced, dm_t, t_mesh, starts_t, t_links, comm_range):
        """Stage 2c: the overlay angle, ``T``'s targets at it, artifacts."""
        cfg = self.config
        disk_pts = dm_t.robot_disk_positions

        def mapped_targets(angle: float) -> np.ndarray:
            return induced.map_points(disk_pts, rotation=angle)

        if cfg.method == "a":

            def objective(angle: float) -> float:
                q_t = mapped_targets(angle)
                return float(links_alive(t_links, q_t, comm_range).sum())

        else:

            def objective(angle: float) -> float:
                q_t = mapped_targets(angle)
                d = q_t - starts_t
                return float(np.hypot(d[:, 0], d[:, 1]).sum())

        search = hierarchical_angle_search(
            objective,
            depth=cfg.search_depth,
            maximize=cfg.method == "a",
            initial_samples=cfg.initial_samples,
        )
        return search, mapped_targets(search.angle), {}

    # ------------------------------------------------------------------

    @staticmethod
    def _links_among(links: np.ndarray, in_t: np.ndarray, vmap: np.ndarray) -> np.ndarray:
        """M1 links with both endpoints in T, re-indexed to T vertex order."""
        robot_to_t = -np.ones(len(in_t), dtype=int)
        robot_to_t[vmap] = np.arange(len(vmap))
        both = in_t[links[:, 0]] & in_t[links[:, 1]]
        sub = links[both]
        return np.column_stack([robot_to_t[sub[:, 0]], robot_to_t[sub[:, 1]]])

    @staticmethod
    def _nearest_in_t(i: int, p: np.ndarray, in_t: np.ndarray) -> int:
        """Closest robot that is part of the triangulation."""
        candidates = np.flatnonzero(in_t)
        if len(candidates) == 0:
            raise PlanningError("triangulation contains no robots")
        d = np.hypot(p[candidates, 0] - p[i, 0], p[candidates, 1] - p[i, 1])
        return int(candidates[int(np.argmin(d))])

    @staticmethod
    def _time_split(march_total: float, adjust_total: float, t_end: float) -> float:
        """Split ``[0, T]`` between the march and the adjustment phases."""
        total = march_total + adjust_total
        if total <= 0:
            return 0.5 * t_end
        split = t_end * march_total / total
        return min(max(split, 0.05 * t_end), 0.95 * t_end)
