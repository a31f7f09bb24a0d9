"""Self-tests of the benchmark's own machinery, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import types

import pytest

import hostclock
import loadgen
import run
import stats
import tracing


# -- wrappers ---------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines ``f`` and class ``C``; ``fakepkg.b`` imports ``f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")

    def f(x):
        return x + 1

    class C:
        def m(self, x):
            return a.f(x) * 2

    a.f, a.C = f, C
    b = types.ModuleType("fakepkg.b")
    b.f = f
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_wrappers_patch_every_binding_and_restore_originals(fake_package):
    a, b = fake_package
    f, m = a.f, a.C.__dict__["m"]
    targets = (tracing.Target("a.f", "fakepkg.a:f", count=lambda r: r,
                              sites=("fakepkg.b.f",)),
               tracing.Target("a.C.m", "fakepkg.a:C.m"))
    rec = tracing.Recorder()
    inst = tracing.install(rec, targets, package="fakepkg")
    assert a.f is not f and b.f is a.f
    assert a.C().m(1) == 4 and b.f(5) == 6
    agg = tracing.self_times(rec.spans)
    assert agg["a.f"]["calls"] == 2 and agg["a.f"]["count"] == 2 + 6
    assert agg["a.C.m"]["calls"] == 1
    # The nested call's parent is the method's span.
    by_name = {s[1]: s for s in rec.spans if s[1] == "a.C.m"}
    assert any(s[4] == by_name["a.C.m"][0] for s in rec.spans if s[1] == "a.f")
    tracing.uninstall(inst)
    assert a.f is f and b.f is f and a.C.__dict__["m"] is m


def test_install_rolls_back_when_a_required_site_is_not_bound(fake_package):
    a, b = fake_package
    f = a.f
    targets = (tracing.Target("a.f", "fakepkg.a:f", sites=("fakepkg.b.missing",)),)
    with pytest.raises(AttributeError):
        tracing.install(tracing.Recorder(), targets, package="fakepkg")
    assert a.f is f and b.f is f


# -- self time ----------------------------------------------------------------

def test_self_time_on_a_synthetic_call_tree():
    #   root [0, 10]
    #     child1 [1, 4]
    #     child2 [5, 7]
    #       leaf [5.5, 6.5]
    #   other root [12, 13]
    spans = [
        (2, "leaf", 5.5, 6.5, 1, None),
        (1, "child", 5.0, 7.0, 0, 3),
        (3, "child", 1.0, 4.0, 0, None),
        (0, "root", 0.0, 10.0, None, None),
        (4, "root", 12.0, 13.0, None, None),
    ]
    agg = tracing.self_times(spans)
    assert agg["root"]["calls"] == 2
    assert agg["root"]["self_s"] == pytest.approx(10 - 3 - 2 + 1)
    assert agg["child"]["self_s"] == pytest.approx(3 + (2 - 1))
    assert agg["child"]["count"] == 3
    assert agg["leaf"]["self_s"] == pytest.approx(1)
    total_self = sum(v["self_s"] for v in agg.values())
    assert total_self == pytest.approx(tracing.covered_time(spans, 0.0, 13.0))
    assert tracing.covered_time(spans, 5.0, 12.5) == pytest.approx(5.5)


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, tail", [(1, None), (10, None), (37, None), (38, 75),
                                     (100, 90), (200, 95), (1001, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail
    if tail is not None:
        assert stats.samples_beyond(n, tail) >= stats.MIN_BEYOND
        values = list(range(n))
        cut = stats.percentile(values, tail)
        assert sum(v > cut for v in values) >= stats.MIN_BEYOND


def test_summarize_reports_the_sample_count():
    s = stats.summarize([float(i) for i in range(41)])
    assert s == {"n": 41, "p50": 20.0, "tail_p": 75, "tail": 30.0}
    assert stats.summarize([2.0, 1.0])["tail_p"] is None


def test_median_moves_little_when_one_sample_changes_cluster():
    assert stats.hd_median([5.0]) == 5.0
    assert stats.hd_median([2.0, 1.0]) == pytest.approx(1.5)
    before = [0.10] * 27 + [0.13] * 27
    after = [0.10] * 26 + [0.13] * 28
    plain = statistics.median(after) / statistics.median(before) - 1
    smooth = stats.hd_median(after) / stats.hd_median(before) - 1
    assert plain > 0.1 and 0 < smooth < 0.04


# -- host clock -------------------------------------------------------------------

def test_reference_clock_integrates_the_cores_speed():
    ref = hostclock.REFERENCE_S
    # A sample every 0.1 s: full speed over [0, 1), half speed over [1, 2].
    samples = [(i / 10, ref if i < 10 else 2 * ref) for i in range(21)]
    assert hostclock.ref_seconds(samples, 0.3, 0.7) == pytest.approx(0.4)
    assert hostclock.ref_seconds(samples, 1.3, 1.7) == pytest.approx(0.2)
    # Across the change, every sample's speed weighs the same.
    whole = hostclock.ref_seconds(samples, 0.0, 2.0)
    assert whole == pytest.approx(2.0 * (10 * 1.0 + 11 * 0.5) / 21)
    assert hostclock.speed(samples) == pytest.approx(0.5)  # 11 of 21 at half speed
    with pytest.raises(ValueError):
        hostclock.ref_seconds(samples, 5.0, 6.0)


def test_probe_samples_until_stopped():
    probe = hostclock.Probe().start()
    time.sleep(3 * hostclock.PERIOD_S)
    samples = probe.stop()
    assert len(samples) >= 2
    assert all(d > 0 for _end, d in samples)
    ends = [end for end, _d in samples]
    assert ends == sorted(ends)


# -- open loop ------------------------------------------------------------------

def test_open_loop_latency_runs_from_the_due_time(monkeypatch):
    """A stalled send still charges the stall to the delayed request."""
    stall = 0.2

    def fake_request(port, method, path, body=None, timeout=60.0):
        if method == "POST":
            if body["separation_factor"] == 1.0:
                time.sleep(stall)
            return 202, ('{"job_id": "j%s", "deduplicated": false}'
                         % body["separation_factor"]).encode()
        return 200, b"result"

    monkeypatch.setattr(loadgen, "request", fake_request)
    schedule = [(0.0, loadgen.plan_body(1, 1.0, ["ours (a)"])),
                (0.01, loadgen.plan_body(1, 2.0, ["ours (a)"]))]
    first, second = loadgen.OpenLoop(port=0, schedule=schedule).run()
    assert second.sent - second.due >= stall - 0.02
    assert second.latency_s >= stall - 0.02
    assert second.received - second.sent < stall / 2
    assert first.error is None and second.digest == first.digest


def test_busy_seconds_is_the_union_of_outstanding_intervals():
    def out(sent, received):
        return loadgen.Outcome(due=sent, body={}, sent=sent, received=received)

    # [0, 1] and [0.5, 2] overlap; [2, 2.5] touches; [4, 5] after a gap;
    # [4.2, 4.4] lies inside; an unanswered request does not count.
    outcomes = [out(4.0, 5.0), out(0.0, 1.0), out(0.5, 2.0), out(2.0, 2.5),
                out(4.2, 4.4), out(6.0, None)]
    assert loadgen.busy_seconds(outcomes) == pytest.approx(3.5)
    assert loadgen.busy_intervals(outcomes) == [(0.0, 2.5), (4.0, 5.0)]
    assert loadgen.busy_seconds([]) == 0.0


def test_schedule_is_seeded_and_mixes_duplicates():
    one = loadgen.build_schedule(7, 2.0, 30)
    assert one == loadgen.build_schedule(7, 2.0, 30)
    assert one != loadgen.build_schedule(8, 2.0, 30)
    assert len(one) == 60 and [t for t, _ in one[:3]] == [0.0, 0.5, 1.0]
    bodies = [repr(b) for _, b in one]
    assert len(bodies) - len(set(bodies)) == 18  # 30% duplicates, exactly
    assert sum(b["methods"] == ["ours (a)"] for _, b in one) >= 6  # + duplicates
    warm = {repr(b) for b in loadgen.warmup_bodies()}
    assert warm.isdisjoint(bodies)


# -- correctness gates ---------------------------------------------------------

def test_set_up_samples_pay_the_measured_modes_imports(monkeypatch):
    """Every set-up sample of a workload starts the same worker mode."""
    started = []

    class Probe:
        def __init__(self, mode, setup_only=False):
            started.append((mode, setup_only))
            self.setup_s = 0.5

        def close(self):
            pass

    monkeypatch.setattr(run, "Worker", Probe)
    samples = [0.7]
    run.probe_setups(samples, 3, "mission")
    assert samples == [0.7, 0.5, 0.5]
    assert started == [("mission", True)] * 2


def test_set_up_only_worker_exits_after_ready():
    w = run.Worker("mission", setup_only=True)
    w.proc.wait(timeout=60)
    assert w.proc.returncode == 0 and w.import_s > 0
    w.close()


class FakeWorker:
    result: dict = {}

    def __init__(self, mode, setup_only=False):
        self.setup_s, self.import_s = 0.5, 0.4

    def run(self, job):
        return self.result


def test_digest_mismatch_raises_failed_frac(monkeypatch):
    monkeypatch.setattr(run, "Worker", FakeWorker)
    connected = {m: True for m in run.ALL_METHODS}
    FakeWorker.result = {"digest": "good", "connected": {"3": connected, "6": connected}}
    job = run.paper_job(0, trace=False)
    ok = run.Run("paper-holes")
    run.paper_pass(ok, job, {"paper_holes_digest": "good"})
    assert (ok.attempted, ok.failed) == (8, 0)

    bad = run.Run("paper-holes")
    run.paper_pass(bad, job, {"paper_holes_digest": "other"})
    assert (bad.attempted, bad.failed) == (8, 8)

    FakeWorker.result = {"missions": [
        {"mission": ["corridor", "drift", 1], "digest": "x", "c_violations": 0},
        {"mission": ["corridor", "deform", 1], "digest": "y", "c_violations": 0},
    ]}
    missions = run.Run("mission-stream")
    run.mission_pass(missions, {}, {"mission_digests": {
        "corridor/drift/1": "x", "corridor/deform/1": "not-y"}})
    assert (missions.attempted, missions.failed) == (6, 3)


# -- recorded prediction map ----------------------------------------------------

def test_prediction_map_covers_every_layer_metric():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(predictions["workloads"]) == workloads
    e2e = {m["name"] for m in spec["end_to_end"]}
    mapped = set()
    for layer in predictions["layers"]:
        assert set(layer["moves"]) <= e2e
        assert set(layer["on"]) | set(layer["unchanged_on"]) <= workloads
        mapped.update(layer["metrics"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert mapped == {n for n in per_layer if not n.startswith("trace.")}
