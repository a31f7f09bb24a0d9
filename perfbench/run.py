"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-holes --seed 1 --seconds 30 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``paper-holes``    - cold ``run_scenarios`` batches on paper scenarios
  3 and 6 with all four methods, one fresh interpreter per batch;
* ``mission-stream`` - ``run_mission`` over {corridor, archipelago,
  annulus} x {drift, deform} in one interpreter;
* ``service-open``   - a ``repro serve`` subprocess under an open-loop
  request stream at a fixed rate.

The measured process (worker or server) is pinned to one core and the
benchmark's driver and load generator to another; every timing in
``BENCHMARK.json`` is read off the reference clock of
``perfbench/hostclock.py``, which runs at the speed of the measured
core, so the host's speed swings drop out.  With ``--trace 0`` the last
stdout line is one JSON object holding every ``end_to_end`` metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every ``per_layer``
metric, taken from a separate run in which ``perfbench/tracing.py``
wraps the program's layer entry points.  The lines before it are a
table of every metric with its unit and sample count (including the
workload's own names, e.g. ``cases_per_ref_s``, and the wall-clock
figures, e.g. ``cases_per_s``) and the host fingerprint.  Every output
is checked against the recorded digests in ``perfbench/expected.json``;
any miss counts as failed and the command exits 1.
``perfbench/predictions.json`` records which per-layer metric should
move which end-to-end metric, on which workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostclock
import layers
import loadgen
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: Per-invocation temporary directory inside the checkout (set by ``main``).
TMP = ROOT / ".perfbench_tmp"

PAPER_SCENARIOS = (3, 6)
PAPER_SEPARATION = 20.0
ALL_METHODS = loadgen.ALL_METHODS
CONNECTED_METHODS = ("ours (a)", "ours (b)")

MISSION_COMBOS = tuple((f, m) for f in ("corridor", "archipelago", "annulus")
                       for m in ("drift", "deform"))
MISSION_EPOCHS = 3  # MissionSpec default

#: Nominal seconds of one paper-holes batch and of one mission cycle on
#: the reference host.  A run does ``--seconds`` worth of them, a fixed
#: amount of work: timing the number of batches by the clock would make
#: a slow host do less work, and a different mix, than a fast one.
PAPER_BATCH_S = 20.0
MISSION_CYCLE_S = 9.0

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUPS = {"paper-holes": 5, "mission-stream": 5, "service-open": 3}

#: Unique service requests recomputed in-process after the window.
RECOMPUTE_SAMPLE = 3

#: The core of the measured process and the core of this driver, and
#: how many cores the benchmark was given (before this driver pins itself).
MEASURED_CORE, DRIVER_CORE = hostclock.cores()
NPROC = len(os.sched_getaffinity(0))


class Run:
    """Samples, failures and table rows gathered by one invocation."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rows: list[tuple[str, float, str, int]] = []
        self.metrics: dict[str, float] = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)

    def report(self, name: str, value: float, unit: str, n: int, *aliases: str) -> None:
        """A metric under its benchmark name plus the workload's own names."""
        self.metrics[name] = value
        for label in (name, *aliases):
            self.rows.append((label, value, unit, n))

    def timing(self, prefix: str, unit: str, values, metric: str | None = None) -> None:
        """``<prefix>_p50`` (reported as ``metric`` too, when given), plus
        the highest percentile with enough samples beyond it, if any."""
        s = stats.summarize(values)
        if metric is not None:
            self.report(metric, s["p50"], unit, s["n"], f"{prefix}_p50")
        else:
            self.rows.append((f"{prefix}_p50", s["p50"], unit, s["n"]))
        if s["tail_p"] is not None:
            self.rows.append((f"{prefix}_p{s['tail_p']}", s["tail"], unit, s["n"]))

    def host_speed(self, samples) -> None:
        """The measured core's median speed over the run, for the table."""
        self.rows.append(("host_speed", hostclock.speed(samples), "share", len(samples)))


# -- processes -----------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env.pop("REPRO_WORKERS", None)
    return env


class Worker:
    """One ``worker.py`` interpreter; construction waits until it is ready."""

    def __init__(self, mode: str, setup_only: bool = False) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode,
             "--core", str(MEASURED_CORE), *(["--setup-only"] if setup_only else [])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=child_env(), text=True,
        )
        ready = self._read()
        self.setup_s = time.perf_counter() - t0
        self.import_s = ready["import_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def run(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        result = self._read()
        self.close()
        return result

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def probe_setups(samples: list[float], want: int, mode: str) -> None:
    """Start set-up-only ``mode`` workers until there are ``want`` samples."""
    while len(samples) < want:
        w = Worker(mode, setup_only=True)
        samples.append(w.setup_s)
        w.close()


class Server:
    """A ``repro serve`` subprocess under the launcher ``serve.py``, which
    pins it, runs its host clock and, when ``trace``, its wrappers."""

    def __init__(self, tag: str, trace: bool = False) -> None:
        self.journal = TMP / f"journal-{tag}"
        shutil.rmtree(self.journal, ignore_errors=True)
        self.out_file = TMP / f"serve-{tag}.json"
        cmd = [sys.executable, str(HERE / "serve.py"), str(self.out_file),
               "--core", str(MEASURED_CORE), *(["--trace"] if trace else []), "--",
               "--port", "0", "--journal-dir", str(self.journal)]
        self.log = open(TMP / f"serve-{tag}.log", "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log,
                                     cwd=ROOT, env=child_env(), text=True)
        self.port = None
        deadline = time.monotonic() + 60
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start (see {self.log.name})")
            if "listening on http://" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
        loadgen.wait_healthy(self.port, time.monotonic() + 60)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def metrics(self) -> dict:
        status, data = loadgen.request(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(data)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), escalating to SIGKILL after 90 s."""
        hung = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                hung = True
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if hung:
            raise RuntimeError("repro serve did not stop within 90 s of SIGTERM")

    def output(self) -> dict:
        """What the launcher wrote when the service stopped."""
        return json.loads(self.out_file.read_text())


# -- paper-holes ----------------------------------------------------------

def paper_job(seed: int, trace: bool) -> dict:
    """The fixed batch; the seed only permutes scenario and method order."""
    rng = random.Random(f"paper-holes:{seed}")
    return {"scenarios": rng.sample(PAPER_SCENARIOS, len(PAPER_SCENARIOS)),
            "methods": rng.sample(ALL_METHODS, len(ALL_METHODS)),
            "separation": PAPER_SEPARATION, "trace": trace}


def paper_pass(run: Run, job: dict, expected: dict) -> tuple[Worker, dict]:
    w = Worker("paper")
    res = w.run(job)
    cases = len(job["scenarios"]) * len(job["methods"])
    run.attempted += cases
    if res["digest"] != expected["paper_holes_digest"]:
        run.fail(cases, f"plan document digest {res['digest'][:16]} != recorded")
    else:
        for sid, by_method in res["connected"].items():
            for m in CONNECTED_METHODS:
                if not by_method[m]:
                    run.fail(1, f"scenario {sid} {m} lost global connectivity")
    return w, res


def paper_holes(run: Run, seed: int, seconds: float, expected: dict) -> None:
    job = paper_job(seed, trace=False)
    setups, passes = [], []
    for _ in range(max(1, int(seconds // PAPER_BATCH_S))):
        w, res = paper_pass(run, job, expected)
        setups.append(w.setup_s)
        passes.append(res)
    probe_setups(setups, SETUPS[run.workload], "paper")
    walls = [p["wall_s"] for p in passes]
    refs = [ref_span(p) for p in passes]
    cases = len(job["scenarios"]) * len(job["methods"])
    run.report("setup_s", statistics.median(setups), "s", len(setups))
    run.report("peak_rss_mb", statistics.median(p["maxrss_mb"] for p in passes),
               "MB", len(passes))
    run.report("throughput_per_ref_s", statistics.median(cases / r for r in refs),
               "1/ref_s", len(refs), "cases_per_ref_s")
    run.timing("batch_ref_s", "ref_s", refs, metric="latency_ref_s_p50")
    run.rows.append(("cases_per_s", statistics.median(cases / w for w in walls), "1/s",
                     len(walls)))
    run.timing("batch_s", "s", walls)
    run.host_speed([s for p in passes for s in p["clock"]])


def paper_holes_traced(run: Run, seed: int, seconds: float, expected: dict) -> None:
    w, ref = paper_pass(run, paper_job(seed, trace=False), expected)
    imports = [w.import_s]
    traced = []
    for _ in range(2):
        w, res = paper_pass(run, paper_job(seed, trace=True), expected)
        imports.append(w.import_s)
        traced.append(res)
    a, b = (t["trace"] for t in traced)
    out = dict(a["metrics"])
    out["io.result_bytes"] = traced[0]["bytes"]
    finish_trace(run, out, a, b, ref_span(traced[0]), ref_span(ref), imports,
                 wall_s=traced[0]["wall_s"])


# -- mission-stream -------------------------------------------------------

def mission_list(seed: int, cycles: int) -> list[list]:
    """``cycles`` cycles over the six combos; cycle ``c`` runs mission seed
    ``c`` of every combo, in an order drawn from the workload seed.

    Every run does the same missions, so the figures of runs with
    different seeds differ by the host, not by how dear the drawn
    target shapes happen to be.
    """
    rng = random.Random(f"mission-stream:{seed}")
    out = []
    for c in range(cycles):
        for f, m in rng.sample(MISSION_COMBOS, len(MISSION_COMBOS)):
            out.append([f, m, c])
    return out


def mission_cycles(seconds: float, expected: dict) -> int:
    """Cycles worth ``seconds``, at most one per recorded mission seed."""
    return min(max(1, int(seconds // MISSION_CYCLE_S)), expected["mission_seeds"])


def mission_key(mission) -> str:
    return "/".join(str(x) for x in mission)


def mission_pass(run: Run, job: dict, expected: dict) -> tuple[Worker, dict]:
    w = Worker("mission")
    res = w.run(job)
    digests = expected["mission_digests"]
    for rec in res["missions"]:
        run.attempted += MISSION_EPOCHS
        key = mission_key(rec["mission"])
        if "error" in rec:
            run.fail(MISSION_EPOCHS, f"mission {key}: {rec['error']}")
        elif rec["digest"] != digests.get(key):
            run.fail(MISSION_EPOCHS, f"mission {key}: digest {rec['digest'][:16]} "
                     "does not match a recorded one")
        elif rec["c_violations"]:
            run.fail(MISSION_EPOCHS, f"mission {key}: {rec['c_violations']} "
                     "connectivity violations")
    return w, res


def epoch_gaps(rec: dict, clock=None) -> list[float]:
    """Seconds between a mission's start and its epoch events, and between
    consecutive epoch events; on the reference clock when ``clock`` is given."""
    marks = [rec["t0"], *rec["stamps"]]
    if clock is None:
        return [b - a for a, b in zip(marks, marks[1:])]
    return [hostclock.ref_seconds(clock, a, b) for a, b in zip(marks, marks[1:])]


def mission_stream(run: Run, seed: int, seconds: float, expected: dict) -> None:
    job = {"missions": mission_list(seed, mission_cycles(seconds, expected)),
           "trace": False}
    w, res = mission_pass(run, job, expected)
    setups = [w.setup_s]
    probe_setups(setups, SETUPS[run.workload], "mission")
    missions, clock = res["missions"], res["clock"]
    epochs = sum(r["epochs"] for r in missions)
    ref_s = sum(ref_span(r, clock) for r in missions)
    run.report("setup_s", statistics.median(setups), "s", len(setups))
    run.report("peak_rss_mb", res["maxrss_mb"], "MB", 1)
    run.report("throughput_per_ref_s", epochs / ref_s, "1/ref_s", epochs,
               "epochs_per_ref_s")
    run.timing("epoch_ref_s", "ref_s", [g for r in missions for g in epoch_gaps(r, clock)],
               metric="latency_ref_s_p50")
    run.rows.append(("epochs_per_s", epochs / sum(r["wall_s"] for r in missions), "1/s",
                     epochs))
    run.timing("epoch_s", "s", [g for r in missions for g in epoch_gaps(r)])
    run.host_speed(clock)


def mission_stream_traced(run: Run, seed: int, seconds: float, expected: dict) -> None:
    job = {"missions": mission_list(seed, mission_cycles(seconds / 2, expected)),
           "trace": False}
    w, ref = mission_pass(run, job, expected)
    imports = [w.import_s]
    job = dict(job, trace=True)
    traced = []
    for _ in range(2):
        w, res = mission_pass(run, job, expected)
        imports.append(w.import_s)
        traced.append(res)
    a, b = (t["trace"] for t in traced)
    out = dict(a["metrics"])
    out["io.result_bytes"] = sum(r.get("bytes", 0) for r in traced[0]["missions"])
    finish_trace(run, out, a, b, ref_span(traced[0]), ref_span(ref), imports,
                 wall_s=traced[0]["wall_s"])


# -- service-open ---------------------------------------------------------

def boot(tag: str, trace: bool = False) -> tuple[Server, float]:
    """Start a server and run the warm-up jobs; returns it with its set-up time."""
    t0 = time.perf_counter()
    server = Server(tag, trace)
    try:
        for body in loadgen.warmup_bodies():
            loadgen.solve(server.port, body)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, {}).get("value", 0.0) - before.get(name, {}).get("value", 0.0)


def hist_mean_delta(before: dict, after: dict, name: str) -> float:
    a, b = after.get(name, {}), before.get(name, {})
    count = a.get("count", 0) - b.get("count", 0)
    return (a.get("total", 0.0) - b.get("total", 0.0)) / count if count else 0.0


def service_window(run: Run, server: Server, schedule, seed: int) -> dict:
    """Drive one schedule, apply the byte gates, return the raw figures."""
    before = server.metrics()
    outcomes = loadgen.OpenLoop(server.port, schedule).run()
    after = server.metrics()
    rss = server.peak_rss_mb()
    run.attempted += len(outcomes)
    by_job: dict[str, set] = {}
    for out in outcomes:
        if out.error is not None:
            run.fail(1, out.error)
        else:
            by_job.setdefault(out.job_id, set()).add(out.digest)
    for job_id, digests in by_job.items():
        if len(digests) != 1:
            clients = [o for o in outcomes if o.job_id == job_id]
            run.fail(len(clients), f"job {job_id[:12]}: clients got different bytes")
    uniques = {}
    for out in outcomes:
        if out.error is None and not out.deduplicated:
            uniques.setdefault(out.job_id, out)
    sample = random.Random(f"service-open-sample:{seed}").sample(
        sorted(uniques), min(RECOMPUTE_SAMPLE, len(uniques)))
    if sample:
        res = Worker("recompute").run(
            {"requests": [uniques[j].body for j in sample]})
        for job_id, digest in zip(sample, res["digests"]):
            if digest != uniques[job_id].digest:
                clients = [o for o in outcomes if o.job_id == job_id]
                run.fail(len(clients), f"job {job_id[:12]}: service bytes differ "
                         "from an in-process run_plan_request")
    ok = [o for o in outcomes if o.error is None]
    lateness = [o.sent - o.due for o in outcomes if o.sent is not None]
    return {
        "outcomes": outcomes, "ok": ok, "before": before, "after": after,
        "rss_mb": rss, "lateness": lateness, "busy_s": loadgen.busy_seconds(ok),
    }


def report_lateness(lateness: list[float]) -> None:
    late_max = max(lateness) if lateness else 0.0
    verdict = "valid" if late_max < 0.1 else "INVALID (generator fell behind)"
    print(f"open-loop generator lateness: p50 {statistics.median(lateness or [0]):.4f} s, "
          f"max {late_max:.4f} s over {len(lateness)} sends -> run {verdict}")


def service_open(run: Run, seed: int, seconds: float, expected: dict) -> None:
    setups = []
    for k in range(SETUPS[run.workload]):
        server, setup = boot(f"setup{k}")
        setups.append(setup)
        if k < SETUPS[run.workload] - 1:
            server.stop()
    try:
        schedule = loadgen.build_schedule(seed, expected["service_rate_hz"], seconds)
        win = service_window(run, server, schedule, seed)
    finally:
        server.stop()
    report_lateness(win["lateness"])
    ok, clock = win["ok"], server.output()["clock"]
    busy = loadgen.busy_intervals(ok)
    busy_ref = sum(hostclock.ref_seconds(clock, a, b) for a, b in busy)
    run.report("setup_s", statistics.median(setups), "s", len(setups))
    run.report("peak_rss_mb", win["rss_mb"], "MB", 1)
    # Requests answered per second the service had work outstanding; the
    # open loop's offered rate would not move with the service's speed.
    run.report("throughput_per_ref_s", len(ok) / busy_ref if ok else 0.0, "1/ref_s",
               len(ok), "jobs_per_busy_ref_s")
    run.timing("job_ref_s", "ref_s",
               [hostclock.ref_seconds(clock, o.due, o.received) for o in ok] or [0.0],
               metric="latency_ref_s_p50")
    run.rows.append(("jobs_per_busy_s", len(ok) / win["busy_s"] if ok else 0.0, "1/s",
                     len(ok)))
    run.timing("job_s", "s", [o.latency_s for o in ok] or [0.0])
    run.host_speed(clock)


def service_traced_window(run: Run, tag: str, schedule, seed: int) -> tuple[dict, dict]:
    server, _ = boot(tag, trace=True)
    try:
        win = service_window(run, server, schedule, seed)
        start = win["outcomes"][0].due - 0.05
    finally:
        server.stop()
    data = server.output()
    spans = [tuple(s) for s in data["spans"] if s[2] >= start]
    end = max(s[3] for s in spans) if spans else start
    counters = {k: counter_delta(win["before"], win["after"], k) for k in layers.COUNTERS}
    metrics = layers.layer_metrics(spans, counters)
    ok, outcomes = win["ok"], win["outcomes"]
    metrics.update({
        "service.admit_s_p50": statistics.median(
            [o.admit_s for o in outcomes if o.admit_s is not None] or [0.0]),
        "service.queue_wait_s_mean": hist_mean_delta(
            win["before"], win["after"], "service.queue_wait_s"),
        "service.job_duration_s_mean": hist_mean_delta(
            win["before"], win["after"], "service.job_duration_s"),
        "service.result_fetch_s_p50": statistics.median(
            [o.fetch_s for o in ok] or [0.0]),
        "service.dedup_ratio": layers.ratio(
            sum(o.deduplicated for o in outcomes), len(outcomes)),
        "service.polls_per_job": layers.ratio(sum(o.polls for o in outcomes),
                                              len(outcomes)),
        "service.refused": sum(1 for o in outcomes
                               if o.error and o.error.startswith("refused")),
        "io.result_bytes": sum(o.nbytes for o in ok),
    })
    exact = layers.exact_counts(metrics, counters)
    exact["service.jobs.deduplicated"] = counter_delta(
        win["before"], win["after"], "service.jobs.deduplicated")
    trace = {"metrics": metrics, "exact": exact,
             "covered_s": tracing.covered_time(spans, start, end),
             "wall_s": end - start, "import_s": data["import_s"]}
    return win, trace


def service_open_traced(run: Run, seed: int, seconds: float, expected: dict) -> None:
    schedule = loadgen.build_schedule(seed, expected["service_rate_hz"], seconds / 2)
    server, _ = boot("ref")
    try:
        ref = service_window(run, server, schedule, seed)
    finally:
        server.stop()
    ref_mean = hist_mean_delta(ref["before"], ref["after"], "service.job_duration_s")
    (_, a), (_, b) = (service_traced_window(run, t, schedule, seed) for t in "ab")
    out = dict(a["metrics"])
    # Solve time per job, traced vs plain, is the overhead a job pays.
    finish_trace(run, out, a, b, out["service.job_duration_s_mean"], ref_mean,
                 [a["import_s"], b["import_s"]], wall_s=a["wall_s"])


# -- shared helpers -------------------------------------------------------

def ref_span(rec: dict, clock=None) -> float:
    """A worker record's ``[t0, t1]`` on the reference clock, priced by its
    own probe samples or by ``clock``."""
    return hostclock.ref_seconds(clock if clock is not None else rec["clock"],
                                 rec["t0"], rec["t1"])


def finish_trace(run: Run, out: dict, a: dict, b: dict, traced_s: float, plain_s: float,
                 imports: list[float], wall_s: float | None = None) -> None:
    """Overhead, unattributed share and the exact-count repeat check."""
    wall = wall_s if wall_s is not None else traced_s
    repeat = a["exact"] == b["exact"]
    if not repeat:
        diff = sorted(k for k in a["exact"] if a["exact"][k] != b["exact"].get(k))
        run.fail(1, f"exact counts differ between the two traced runs: {diff}")
    out["setup.import_s"] = statistics.median(imports)
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    out["trace.unattributed_frac"] = 1.0 - a["covered_s"] / wall if wall else 0.0
    out["trace.counts_repeat"] = 1.0 if repeat else 0.0
    for key in ("service.admit_s_p50", "service.queue_wait_s_mean",
                "service.job_duration_s_mean", "service.result_fetch_s_p50",
                "service.dedup_ratio", "service.polls_per_job", "service.refused"):
        out.setdefault(key, 0.0)
    run.metrics = out


WORKLOADS = {
    "paper-holes": (paper_holes, paper_holes_traced),
    "mission-stream": (mission_stream, mission_stream_traced),
    "service-open": (service_open, service_open_traced),
}


# -- entry point ----------------------------------------------------------

def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "nproc": NPROC, "cores": [MEASURED_CORE, DRIVER_CORE], "cpu": cpu,
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    global TMP
    TMP = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    hostclock.pin(DRIVER_CORE)
    run = Run(args.workload)
    try:
        plain, traced = WORKLOADS[args.workload]
        (traced if args.trace else plain)(run, args.seed, args.seconds, expected)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    units = {m["name"]: m["unit"] for m in wanted}
    rows = run.rows if not args.trace else [
        (name, run.metrics[name], units[name], 1) for name in units]
    rows.append(("failed_frac", failed_frac, "ratio", run.attempted))
    for name, value, unit, n in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    for why in run.failures[:20]:
        print(f"FAILED: {why}")
    if args.workload == "mission-stream":
        for key, why in expected["known_defects"].items():
            used = mission_cycles(args.seconds, expected)
            print(f"known defect (this run uses mission seeds 0-{used - 1}): {key}: {why}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
