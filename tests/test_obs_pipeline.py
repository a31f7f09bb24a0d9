"""Pipeline-level observability: stage spans, metrics and the CLI trace."""

import pytest

import repro.robots.transition as transition
from repro.cli import main
from repro.coverage import LloydConfig
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.io import dumps_canonical, result_to_dict
from repro.marching import MarchingConfig, MarchingPlanner
from repro.obs import Metrics, Tracer, activate, activate_metrics, read_jsonl
from repro.robots import RadioSpec, Swarm

FAST = MarchingConfig(
    foi_target_points=180,
    lloyd=LloydConfig(grid_target=600, max_iterations=15),
)

# The planner's Fig. 2 stages, in execution order.
PLAN_STAGES = [
    "plan.extract_triangulation",
    "plan.disk_map_t",
    "plan.triangulate_foi",
    "plan.disk_map_m2",
    "plan.rotation_search",
    "plan.repair",
    "plan.adjust",
    "plan.march",
]


@pytest.fixture(scope="module")
def small_setup():
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=32).scaled_to_area(100_000.0),
        name="m1",
    )
    swarm = Swarm.deploy_lattice(m1, 36, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.1, 0.9, samples=32).scaled_to_area(95_000.0),
        name="m2",
    ).translated((900.0, 100.0))
    return swarm, m2


class TestPlannerSpans:
    def test_stage_spans_in_order(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        with activate(tracer):
            MarchingPlanner(FAST).plan(swarm, m2)
        names = tracer.span_names()
        stage_names = [n for n in names if n.startswith("plan.")]
        assert stage_names == PLAN_STAGES
        # The nested layers are traced too: both disk maps run the
        # sparse solver, the extraction runs Delaunay.
        assert tracer.call_count("harmonic.disk_map") == 2
        assert tracer.call_count("harmonic.solve_linear") == 2
        assert tracer.call_count("mesh.delaunay") >= 1
        assert tracer.call_count("harmonic.rotation_search") == 1

    def test_stage_spans_nest_under_their_stage(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        with activate(tracer):
            MarchingPlanner(FAST).plan(swarm, m2)
        by_id = {r.span_id: r for r in tracer.get_trace()}
        search = next(
            r for r in tracer.get_trace() if r.name == "harmonic.rotation_search"
        )
        assert by_id[search.parent_id].name == "plan.rotation_search"
        assert search.attributes["evaluations"] == 4 + 2 * 4 + 1

    def test_rotation_attributes_and_metrics(self, small_setup):
        swarm, m2 = small_setup
        metrics = Metrics()
        with activate_metrics(metrics):
            result = MarchingPlanner(FAST).plan(swarm, m2)
        counted = metrics.counter("rotation.objective_evaluations").value
        assert counted == result.rotation_evaluations

    def test_planning_untraced_records_nothing(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        MarchingPlanner(FAST).plan(swarm, m2)  # tracer never activated
        assert tracer.get_trace() == []


@pytest.fixture(scope="module")
def holed_setup(small_setup):
    swarm, _ = small_setup
    m2 = FieldOfInterest(
        ellipse_polygon(1.1, 0.9, samples=32),
        [ellipse_polygon(0.35, 0.3, samples=24)],
        name="m2-holed",
    ).scaled_to_area(95_000.0).translated((900.0, 100.0))
    return swarm, m2


class TestMarchDetourCounters:
    def test_counts_on_span_and_registry(self, holed_setup, monkeypatch):
        swarm, m2 = holed_setup
        calls = []
        detour_path_holes = transition.detour_path_holes

        def counted(*args, **kwargs):
            calls.append(args)
            return detour_path_holes(*args, **kwargs)

        monkeypatch.setattr(transition, "detour_path_holes", counted)
        tracer, metrics = Tracer(), Metrics()
        with activate(tracer), activate_metrics(metrics):
            MarchingPlanner(FAST).plan(swarm, m2)
        (march,) = [r for r in tracer.get_trace() if r.name == "plan.march"]
        assert march.attributes["path_checks"] == swarm.size
        assert march.attributes["detours"] == len(calls) > 0
        assert metrics.counter("march.path_checks").value == swarm.size
        assert metrics.counter("march.detours").value == len(calls)

    def test_counting_leaves_plan_document_unchanged(self, holed_setup):
        swarm, m2 = holed_setup
        plain = MarchingPlanner(FAST).plan(swarm, m2)
        with activate(Tracer()), activate_metrics(Metrics()):
            traced = MarchingPlanner(FAST).plan(swarm, m2)
        assert dumps_canonical(result_to_dict(traced)) == dumps_canonical(
            result_to_dict(plain)
        )

    def test_hole_free_march_counts_nothing(self, small_setup):
        swarm, m2 = small_setup
        tracer, metrics = Tracer(), Metrics()
        with activate(tracer), activate_metrics(metrics):
            MarchingPlanner(FAST).plan(swarm, m2)
        (march,) = [r for r in tracer.get_trace() if r.name == "plan.march"]
        assert "detours" not in march.attributes
        assert "march.detours" not in metrics.snapshot()


class TestCliTrace:
    def test_plan_trace_covers_every_stage(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            ["plan", "3", "--points", "240", "--trace", str(out)]
        )
        assert code == 0
        events = read_jsonl(out)
        spans = [e for e in events if e["type"] == "span"]
        names = {s["name"] for s in spans}
        for stage in PLAN_STAGES + ["pipeline.run"]:
            assert stage in names, f"missing span {stage}"
        for s in spans:
            assert s["duration_s"] is not None and s["duration_s"] >= 0.0
        assert any(e["type"] == "metric" for e in events)
        captured = capsys.readouterr()
        assert "phase timings" in captured.out

    def test_plan_without_trace_writes_nothing(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["plan", "3", "--points", "240"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "phase timings" not in capsys.readouterr().out
