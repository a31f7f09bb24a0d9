"""Tests for :mod:`repro.missions`: streaming online replanning.

Covers the mission spec/target layer, the runner's determinism and
connectivity contract, fault composition, the translation-canonical
cache behaviour under a drifting target (a translated M2 mid-mission
is a disk-map cache *hit* whose replanned leg is byte-identical to a
cold solve), and the campaign driver's worker-count byte-identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MissionError
from repro.exec.cache import ContentCache, activate_cache
from repro.experiments.missions import (
    mission_campaign,
    missions_passed,
    render_missions,
    run_mission_cell,
)
from repro.faults import CrashFault, FaultSchedule, StuckFault
from repro.io import dumps_canonical, result_to_dict
from repro.marching import MarchingConfig, MarchingPlanner
from repro.missions import (
    MOTIONS,
    MissionConfig,
    MissionRunner,
    MissionSpec,
    mission_targets,
)
from repro.missions.runner import _connectivity_violations
from repro.network import UnitDiskGraph
from repro.obs import Metrics, activate_metrics
from repro.robots.motion import SwarmTrajectory, TimedPath

#: CI-sized knobs: one epoch plans in a couple of seconds.
FAST = MissionConfig(
    foi_target_points=100,
    grid_target=300,
    lloyd_max_iterations=6,
    resolution=4,
)

_HITS = "cache.harmonic.diskmap.hits"
_MISSES = "cache.harmonic.diskmap.misses"


@pytest.fixture(scope="module")
def drift_doc():
    """One drifting mission, shared by the read-only assertions."""
    spec = MissionSpec(family="corridor", seed=0, epochs=3, motion="drift")
    return MissionRunner(spec, FAST).run()


class TestSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(MissionError, match="unknown mission family"):
            MissionSpec(family="moebius")

    def test_rejects_unknown_motion(self):
        with pytest.raises(MissionError, match="unknown mission motion"):
            MissionSpec(motion="teleport")

    def test_rejects_bad_epochs_and_drift(self):
        with pytest.raises(MissionError):
            MissionSpec(epochs=0)
        with pytest.raises(MissionError):
            MissionSpec(drift_step=0.0)

    def test_spec_round_trip(self):
        spec = MissionSpec(family="annulus", seed=3, epochs=4,
                           motion="drift+deform", drift_step=0.25, name="x")
        assert MissionSpec.from_dict(spec.to_dict()) == spec

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(MissionError, match="unknown mission spec"):
            MissionSpec.from_dict({"family": "corridor", "oops": 1})

    def test_config_round_trip_and_validation(self):
        config = MissionConfig(robot_count=16, method="b")
        assert MissionConfig.from_dict(config.to_dict()) == config
        with pytest.raises(MissionError):
            MissionConfig(method="c")
        with pytest.raises(MissionError):
            MissionConfig(advance_fraction=0.0)
        with pytest.raises(MissionError, match="unknown mission config"):
            MissionConfig.from_dict({"oops": 1})


class TestTargets:
    def test_sequence_is_deterministic(self):
        spec = MissionSpec(family="star", seed=2, epochs=4, motion="drift+deform")
        _, first = mission_targets(spec, FAST)
        _, second = mission_targets(spec, FAST)
        assert len(first) == spec.epochs
        for a, b in zip(first, second):
            assert np.array_equal(a.outer.vertices, b.outer.vertices)

    def test_drift_is_rigid_translation(self):
        spec = MissionSpec(family="corridor", seed=1, epochs=3, motion="drift")
        _, targets = mission_targets(spec, FAST)
        for prev, cur in zip(targets, targets[1:]):
            # Same shape, shifted: vertex deltas are all one vector.
            delta = cur.outer.vertices - prev.outer.vertices
            assert np.allclose(delta, delta[0])
            shift = float(np.linalg.norm(delta[0]))
            assert shift == pytest.approx(
                spec.drift_step * FAST.comm_range, rel=1e-9
            )

    def test_deform_preserves_area_and_centroid(self):
        spec = MissionSpec(family="corridor", seed=1, epochs=3, motion="deform")
        _, targets = mission_targets(spec, FAST)
        base = targets[0]
        for cur in targets[1:]:
            assert cur.area == pytest.approx(base.area, rel=1e-6)
            assert np.allclose(cur.centroid, base.centroid, atol=1e-6)
            assert not np.array_equal(
                cur.outer.vertices[:4], base.outer.vertices[:4]
            )


class TestRunner:
    def test_document_shape(self, drift_doc):
        assert drift_doc["kind"] == "mission"
        assert len(drift_doc["epochs"]) == 3
        summary = drift_doc["summary"]
        assert summary["completed"] and summary["replans"] == 3
        for epoch, record in enumerate(drift_doc["epochs"]):
            assert record["epoch"] == epoch
            assert record["plan_diff"]["epoch"] == epoch
            assert record["samples"] >= 2
            assert record["plan_digest"]

    def test_connectivity_holds_every_instant(self, drift_doc):
        assert drift_doc["summary"]["c_violations"] == 0
        assert drift_doc["summary"]["connected_all"]
        assert all(r["c_violations"] == 0 for r in drift_doc["epochs"])

    def test_drift_replans_hit_the_diskmap_cache(self, drift_doc):
        # Epoch 0 is the cold solve; every later epoch retargets a
        # rigid translation of M2, which the translation-canonical
        # cache must serve as a hit.
        for record in drift_doc["epochs"][1:]:
            assert record["plan_diff"]["cache_hits"] >= 1
        assert drift_doc["summary"]["cache_hits"] >= 2

    def test_byte_identical_across_runs(self, drift_doc):
        spec = MissionSpec(family="corridor", seed=0, epochs=3, motion="drift")
        again = MissionRunner(spec, FAST).run()
        assert dumps_canonical(again) == dumps_canonical(drift_doc)

    def test_progress_events_ordered(self):
        spec = MissionSpec(family="corridor", seed=0, epochs=2, motion="drift")
        events = []
        MissionRunner(spec, FAST).run(
            progress=lambda kind, data: events.append((kind, data))
        )
        kinds = [k for k, _ in events]
        assert kinds == ["plan_diff", "epoch", "plan_diff", "epoch"]
        assert [d["epoch"] for _, d in events] == [0, 0, 1, 1]
        # Latency is a live-path measurement, never part of the document.
        assert all("replan_latency_s" in d for k, d in events if k == "epoch")

    def test_deform_mission_completes(self):
        spec = MissionSpec(family="corridor", seed=0, epochs=2, motion="deform")
        doc = MissionRunner(spec, FAST).run()
        assert doc["summary"]["connected_all"]
        # A redrawn shape is a genuine re-solve: no hit on its leg.
        assert doc["epochs"][1]["plan_diff"]["target_deformed"]


class TestFaultComposition:
    def test_crash_mid_mission_removes_robots(self):
        spec = MissionSpec(family="corridor", seed=0, epochs=2, motion="drift")
        base = MissionRunner(spec, FAST).run()
        victim = 12
        faults = FaultSchedule(
            crashes=(CrashFault(at=0.75, robots=(victim,)),), name="one-down"
        )
        doc = MissionRunner(spec, FAST, faults=faults).run()
        assert doc["summary"]["survivors"] == base["summary"]["survivors"] - 1
        assert doc["summary"]["fault_replans"] == 1
        assert doc["summary"]["connected_all"]
        recovery = doc["epochs"][1]["recoveries"][0]
        assert recovery["failed"] == [victim]
        assert recovery["connected"]
        # Epoch 0 ran fault-free and must be untouched by the schedule.
        assert doc["epochs"][0]["recoveries"] == []
        assert (
            doc["epochs"][0]["plan_digest"] == base["epochs"][0]["plan_digest"]
        )

    def test_rejects_non_crash_schedules(self):
        faults = FaultSchedule(
            stucks=(StuckFault(at=0.5, robots=(1,), duration=0.1),)
        )
        with pytest.raises(MissionError, match="crash faults only"):
            MissionRunner(MissionSpec(), FAST, faults=faults)

    def test_mass_casualty_is_typed_error(self):
        spec = MissionSpec(family="corridor", seed=0, epochs=2, motion="drift")
        faults = FaultSchedule(
            crashes=(CrashFault(at=0.6, robots=tuple(range(23))),)
        )
        with pytest.raises(MissionError) as err:
            MissionRunner(spec, FAST, faults=faults).run()
        assert err.value.epoch == 1


class TestTranslationCache:
    def test_translated_target_hits_and_matches_cold_solve(self):
        """Satellite: pure translation of M2 mid-mission is a cache hit
        and the replanned leg is byte-identical to a cold solve."""
        spec = MissionSpec(family="corridor", seed=0, epochs=1)
        scenario, (m2,) = mission_targets(spec, FAST)
        shifted = m2.translated((137.5, -42.25))
        planner = MarchingPlanner(FAST.marching_config())

        with activate_metrics(Metrics()) as metrics, activate_cache(
            ContentCache(16)
        ):
            planner.plan(scenario.swarm, m2)  # seeds the canonical entry
            hits0 = metrics.counter(_HITS).value
            warm = planner.plan(scenario.swarm, shifted)
            assert metrics.counter(_HITS).value > hits0

        with activate_metrics(Metrics()) as metrics, activate_cache(
            ContentCache(16)
        ):
            cold = planner.plan(scenario.swarm, shifted)
            assert metrics.counter(_HITS).value == 0
            assert metrics.counter(_MISSES).value > 0

        assert dumps_canonical(result_to_dict(warm)) == dumps_canonical(
            result_to_dict(cold)
        )


class TestCampaign:
    def test_campaign_byte_identical_across_workers(self):
        kwargs = dict(
            families=("corridor",), motions=("drift",), seeds=(0,),
            epochs=2, config=FAST,
        )
        serial = mission_campaign(workers=1, **kwargs)
        fanned = mission_campaign(workers=2, **kwargs)
        assert dumps_canonical(serial) == dumps_canonical(fanned)
        assert missions_passed(serial)
        assert serial["summary"]["cells"] == 1
        rendered = render_missions(serial)
        assert "corridor" in rendered and "canonical digest" in rendered

    def test_campaign_rejects_unknown_axes(self):
        with pytest.raises(MissionError, match="families"):
            mission_campaign(families=("nowhere",), config=FAST)
        with pytest.raises(MissionError, match="motions"):
            mission_campaign(motions=("teleport",), config=FAST)

    def test_error_cells_are_typed_rows(self):
        spec = MissionSpec(family="corridor", seed=0, epochs=1)
        row = run_mission_cell(spec, FAST)
        assert row["outcome"] == "pass" and row["mission_sha256"]


class TestMotionsConstant:
    def test_motions_tuple(self):
        assert MOTIONS == ("drift", "deform", "drift+deform")


def _violations_per_instant(traj, anchors, death_time, config, t_cut):
    """Per-instant oracle: one unit-disk graph per sampled instant."""
    ts = np.linspace(traj.t_start, t_cut, max(2, config.resolution))
    disc = traj.discontinuity_times()
    disc = disc[(disc > traj.t_start) & (disc <= t_cut)]
    checks = [(float(t), "right") for t in ts] + [(float(t), "left") for t in disc]
    violations = 0
    for t, side in checks:
        present = [
            j for j in range(traj.robot_count)
            if j not in death_time or t < death_time[j]
        ]
        if not present:
            continue
        pts = traj.positions_over(np.array([t]), side=side)[0][present]
        graph = UnitDiskGraph(pts, config.comm_range)
        local = [k for k, j in enumerate(present) if j in anchors]
        ok = (
            bool(graph.nodes_connected_to(local).all())
            if local else graph.is_connected()
        )
        violations += not ok
    return violations, len(checks)


class TestConnectivityViolations:
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        resolution=st.integers(2, 9),
        cut=st.floats(0.05, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_counts_match_per_instant_oracle(self, n, seed, resolution, cut):
        rng = np.random.default_rng(seed)
        start = rng.uniform(0.0, 160.0, size=(n, 2))
        before = start + rng.normal(0.0, 60.0, size=(n, 2))
        after = before + rng.normal(0.0, 60.0, size=(n, 2))
        end = after + rng.normal(0.0, 30.0, size=(n, 2))
        # Each robot jumps once, so the left limits differ from the
        # right values at up to three instants.
        jumps = rng.choice([0.3, 0.5, 0.7], size=n)
        traj = SwarmTrajectory(
            [
                TimedPath([start[i], before[i], after[i], end[i]], [0.0, t, t, 1.0])
                for i, t in enumerate(jumps)
            ],
            0.0,
            1.0,
        )
        dead = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        death_time = {int(j): float(rng.choice([0.0, rng.uniform(), 0.5])) for j in dead}
        anchors = [int(a) for a in rng.choice(n, size=int(rng.integers(1, n + 1)))]
        config = MissionConfig(comm_range=80.0, resolution=resolution)
        got = _connectivity_violations(traj, anchors, death_time, config, cut)
        assert got == _violations_per_instant(
            traj, set(anchors), death_time, config, cut
        )
