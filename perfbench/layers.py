"""The layer map: which program entry points the traced run wraps.

Every per-layer metric the benchmark reports is derived here from the
wrapper spans (:mod:`perfbench.tracing`), from counts the wrappers read
off return values, and from the program's own ``repro.obs`` counters.
"""

from __future__ import annotations

from tracing import Target, self_times


TARGETS = (
    Target("foi.path_blocked_by_holes", "repro.foi.detour:path_blocked_by_holes",
           sites=("repro.robots.transition.path_blocked_by_holes",)),
    Target("foi.detour_path_holes", "repro.foi.detour:detour_path_holes"),
    Target("robots.detoured_transition", "repro.robots.transition:detoured_transition"),
    Target("robots.stepwise_trajectory", "repro.robots.transition:stepwise_trajectory"),
    Target("metrics.connectivity_report", "repro.metrics.connectivity:connectivity_report"),
    Target("metrics.stable_link_ratio", "repro.metrics.stable_links:stable_link_ratio"),
    Target("coverage.run_lloyd", "repro.coverage.lloyd:run_lloyd",
           count=lambda result: result.iterations,
           sites=("repro.marching.planner.run_lloyd",)),
    Target("coverage.optimal_coverage_positions",
           "repro.coverage.lattice:optimal_coverage_positions"),
    Target("baselines.hungarian_plan", "repro.baselines.hungarian_plan:hungarian_plan"),
    Target("baselines.direct_translation_plan",
           "repro.baselines.direct:direct_translation_plan"),
    Target("harmonic.compute_disk_map", "repro.harmonic.diskmap:compute_disk_map"),
    Target("harmonic.hierarchical_angle_search",
           "repro.harmonic.rotation:hierarchical_angle_search"),
    Target("harmonic.map_points", "repro.harmonic.transfer:InducedMap.map_points"),
    Target("mesh.triangulate_foi", "repro.mesh.delaunay:triangulate_foi"),
    Target("network.extract_triangulation", "repro.network.extract:extract_triangulation"),
    Target("marching.plan", "repro.marching.planner:MarchingPlanner.plan"),
    Target("marching.repair_targets", "repro.marching.repair:repair_targets",
           count=lambda result: result[1].rounds),
    Target("experiments.zoo.validate_foi", "repro.experiments.zoo.validate:validate_foi"),
    Target("geometry.is_simple", "repro.geometry.polygon:Polygon.is_simple"),
    Target("experiments.run_scenario", "repro.experiments.harness:run_scenario"),
    Target("missions.mission_targets", "repro.missions.targets:mission_targets"),
    Target("missions.run", "repro.missions.runner:MissionRunner.run"),
    Target("io.dumps_canonical", "repro.io:dumps_canonical"),
    Target("service.journal_append", "repro.service.journal:JobJournal.append"),
)

#: Layers whose wrapped-call count is reported as ``<name>.calls``.
CALLS = (
    "foi.path_blocked_by_holes", "foi.detour_path_holes",
    "metrics.connectivity_report", "harmonic.compute_disk_map",
    "mesh.triangulate_foi", "marching.plan", "experiments.zoo.validate_foi",
    "geometry.is_simple", "service.journal_append",
)

#: Program counters (``repro.obs`` registry names) the traced run reads.
COUNTERS = (
    "rotation.objective_evaluations",
    "cache.harmonic.diskmap.hits", "cache.harmonic.diskmap.misses",
    "cache.induced_map.hits", "cache.induced_map.misses",
)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``counters`` are the program's own counter values summed over every
    registry the pass used.
    """
    agg = self_times(spans)
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"{target.name}.self_s"] = agg.get(target.name, {}).get("self_s", 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = agg.get(name, {}).get("calls", 0)
    out["foi.blocked_ratio"] = ratio(
        out["foi.detour_path_holes.calls"], out["foi.path_blocked_by_holes.calls"])
    out["coverage.lloyd_iterations"] = agg.get("coverage.run_lloyd", {}).get("count", 0)
    out["marching.repair_rounds"] = agg.get("marching.repair_targets", {}).get("count", 0)
    out["harmonic.rotation_evaluations"] = counters.get(
        "rotation.objective_evaluations", 0)
    for short, ns in (("diskmap", "harmonic.diskmap"), ("induced_map", "induced_map")):
        hits = counters.get(f"cache.{ns}.hits", 0)
        misses = counters.get(f"cache.{ns}.misses", 0)
        out[f"exec.{short}_hit_ratio"] = ratio(hits, hits + misses)
    return out


def exact_counts(metrics: dict[str, float], counters) -> dict[str, float]:
    """The values that must repeat exactly between two traced passes."""
    keep = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    for k in ("coverage.lloyd_iterations", "marching.repair_rounds",
              "harmonic.rotation_evaluations"):
        keep[k] = metrics[k]
    keep.update({k: counters.get(k, 0) for k in COUNTERS})
    return keep
