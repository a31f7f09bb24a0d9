#!/usr/bin/env python
"""Smoke checks over real process boundaries: ``smoke.py NAME``.

Each check drives ``python -m repro`` (or a booted ``repro serve``) the
way a user would and asserts the subsystem's contract; NAME is one of:

service   /healthz, then submit -> poll -> fetch a plan that is
          byte-identical to a direct ``run_scenarios`` run.
chaos     seeded fault sweep: serial and ``--workers 2`` summaries
          byte-identical, every case recovered or typed-unrecoverable.
zoo       invariant campaign: serial/parallel byte-identical, all pass,
          a counterexample triple replays (a tampered one DIVERGES).
scaling   sub-quadratic UDG growth, 10k-robot budgets and the
          ``report --scaling`` section.
load      seeded 200-client burst against a 2-shard fleet: exact dedup,
          zero 5xx, p99 budgets, byte-identical across fresh fleets.
mission   drifting mission: serial/parallel byte-identical, C = 1,
          a disk-map cache hit, an unknown motion rejected.
crash     ``kill -9`` / SIGTERM mid-mission: zero lost acknowledged
          jobs, byte-identical resumed mission documents.

Every check exits 0 on success; any broken assertion exits non-zero.

Run:  PYTHONPATH=src python scripts/smoke.py chaos
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.experiments.crashrec import boot_server, graceful_shutdown


def repro(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro *args``, echoing its command and output."""
    cmd = [sys.executable, "-m", "repro", *args]
    print(f"$ {' '.join(cmd)}")
    proc = subprocess.run(cmd, text=True, capture_output=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc


def serial_vs_parallel(command: str, matrix: list[str], tmp: str) -> dict:
    """Run ``command`` with 1 and 2 workers; both exit 0, same bytes.

    Returns the (shared) summary document.
    """
    payloads = []
    for workers in (1, 2):
        out = Path(tmp) / f"{command}-w{workers}.json"
        proc = repro(command, *matrix, "--workers", str(workers),
                     "--output", str(out))
        assert proc.returncode == 0, f"--workers {workers} exit {proc.returncode}"
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1], (
        f"{command} summaries differ between worker counts"
    )
    print(f"byte-identical summaries: {len(payloads[0])} bytes")
    return json.loads(payloads[0])


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_service() -> None:
    """/healthz ok before and after a plan whose bytes match a direct run.

    Also asserts SIGINT shuts the server down cleanly (exit code 0).
    """
    from repro.experiments import get_scenario, run_scenarios
    from repro.io import dumps_canonical, plan_document
    from repro.service import ServiceClient

    knobs = dict(foi_target_points=200, lloyd_grid_target=600, resolution=12)
    methods = ["ours (a)", "Hungarian"]
    server = boot_server(["--port", "0"])
    try:
        client = ServiceClient(port=server.port, timeout=60.0)
        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz before: ok")

        submitted = client.submit(
            [1], separation_factor=12.0, methods=methods, **knobs
        )
        print(f"submitted {submitted['job_id']} ({submitted['state']})")
        status = client.wait(submitted["job_id"], timeout=600.0, poll_s=0.2)
        assert status["state"] == "done", status
        served = client.result_bytes(submitted["job_id"])
        print(f"fetched result: {len(served)} bytes")

        direct = run_scenarios(
            [get_scenario(1)],
            separation_factor=12.0,
            methods=tuple(methods),
            workers=1,
            **knobs,
        )
        assert served == dumps_canonical(plan_document(direct))
        print("byte-identity vs direct run_scenarios: OK")

        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz after: ok")
    finally:
        code = graceful_shutdown(server)
    print(f"server exited {code}")
    assert code == 0, f"server exited {code}"


def check_chaos() -> None:
    """Serial/parallel byte-identity and the binary-outcome contract.

    Every case ends recovered (with Definition-2 connectivity at every
    sampled instant) or unrecoverable with a typed stage, and at least
    one case recovers.
    """
    matrix = [
        "--scenarios", "1", "2",
        "--archetypes", "single", "cascade", "stuck",
        "--seeds", "0",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        doc = serial_vs_parallel("chaos", matrix, tmp)
    agg = doc["summary"]
    assert agg["cases"] == len(doc["cases"]) > 0, agg
    for case in doc["cases"]:
        outcome = case["outcome"]
        assert outcome in ("recovered", "unrecoverable"), case
        if outcome == "recovered":
            assert case["metrics"]["connected_all"], case
        else:
            assert case["stage"], case
    assert agg["recovered"] + agg["unrecoverable"] == agg["cases"]
    assert agg["recovered"] > 0, "no case recovered - broken executor?"
    print(
        f"{agg['recovered']}/{agg['cases']} recovered, "
        f"{agg['replans_total']} replans; recovery metrics present"
    )


def check_zoo() -> None:
    """Serial/parallel byte-identity, every invariant passing, replay.

    A triple built from a case document replays byte-identically; a
    tampered digest is flagged DIVERGED with a non-zero exit.
    """
    from repro.io import canonical_digest

    with tempfile.TemporaryDirectory() as tmp:
        summary = serial_vs_parallel(
            "zoo", ["--families", "corridor", "star", "--seeds", "2"], tmp
        )
        agg = summary["summary"]
        assert agg["all_pass"], agg
        assert agg["cases"] == len(summary["cases"]) > 0, agg
        assert summary["counterexamples"] == [], summary["counterexamples"]
        for family, fam in summary["families"].items():
            assert fam["passed"] == fam["cases"], (family, fam)
            assert all(v == 0 for v in fam["invariant_failures"].values())

        case = summary["cases"][0]
        entry = {
            "family": case["family"],
            "seed": case["seed"],
            "params": case["params"],
            "case_sha256": canonical_digest(case),
        }
        triple = Path(tmp) / "triple.json"
        triple.write_text(json.dumps(entry))
        proc = repro("zoo", "--replay", str(triple))
        assert proc.returncode == 0, f"replay exit {proc.returncode}"
        assert "byte-identical" in proc.stdout, proc.stdout
        print("replay round-trip: byte-identical")

        entry["case_sha256"] = "0" * 64
        triple.write_text(json.dumps(entry))
        proc = repro("zoo", "--replay", str(triple))
        assert proc.returncode != 0, "tampered replay not flagged"
        assert "DIVERGED" in proc.stdout, proc.stdout
        print("tampered replay flagged: DIVERGED")


def check_scaling() -> None:
    """Hardware-independent scaling guards.

    The n=100/1000 curve finishes inside a wall budget with the
    spatial-hash edge set verified against the brute-force oracle;
    a 10x swarm costs far less than the 100x of a quadratic UDG build;
    the 10 000-robot graph builds in < 2 s inside 100 MB; and
    ``repro report --scaling`` emits one row per pipeline stage.
    """
    import time

    import numpy as np

    from repro.experiments.scaling import (
        _measure,
        format_scaling_table,
        scaling_curve,
        stage_lookup,
        synthetic_swarm_positions,
    )
    from repro.network import udg_edges

    stages = [
        "network.udg_edges",
        "network.adjacency",
        "network.components",
        "robots.sampling",
        "metrics.stable_links",
        "mesh.delaunay",
        "harmonic.solve_cold",
        "harmonic.solve_warm",
        "geometry.locator_build",
        "geometry.locate_batch",
    ]
    t0 = time.perf_counter()
    curve = scaling_curve(sizes=(100, 1_000), verify_max_n=1_000)
    elapsed = time.perf_counter() - t0
    print(format_scaling_table(curve))
    print(f"curve wall-clock: {elapsed:.2f}s")
    assert elapsed < 60.0, f"curve took {elapsed:.1f}s"

    by_key = stage_lookup(curve)
    for stage in stages:
        for n in (100, 1_000):
            assert (stage, n) in by_key, f"missing measurement {stage} @ {n}"
    # The 1e-3 s floor keeps the ratio meaningful when the small size
    # is too fast to time.
    t100 = by_key[("network.udg_edges", 100)]["seconds"]
    t1000 = by_key[("network.udg_edges", 1_000)]["seconds"]
    ratio = t1000 / max(t100, 1e-3)
    print(f"UDG t(1000)/t(100) = {ratio:.1f}")
    assert ratio < 30.0, f"UDG scaling ratio {ratio:.1f}"
    cold = by_key[("harmonic.solve_cold", 1_000)]["seconds"]
    warm = by_key[("harmonic.solve_warm", 1_000)]["seconds"]
    print(f"harmonic solve cold/warm @ 1k: {cold:.3f}s / {warm:.3f}s")

    pts = synthetic_swarm_positions(10_000, comm_range=80.0, seed=0)
    edges, seconds, peak = _measure(lambda: udg_edges(pts, 80.0))
    print(
        f"10k-robot UDG: {len(edges)} edges in {seconds:.3f}s, "
        f"peak {peak / 1e6:.1f} MB"
    )
    assert seconds < 2.0, f"10k UDG took {seconds:.2f}s"
    assert peak < 100e6, f"10k UDG peaked at {peak / 1e6:.0f} MB"
    assert np.all(edges[:, 0] < edges[:, 1]), "edge list not canonical"

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.md"
        proc = repro(
            "report", "--scenarios", "1",
            "--scaling", "--scaling-sizes", "100", "1000",
            "--output", str(out),
        )
        assert proc.returncode == 0, f"exit code {proc.returncode}"
        text = out.read_text()
    assert "## Scaling curves" in text, "report lacks the scaling section"
    for stage in stages:
        assert f"| {stage} |" in text, f"report lacks stage row {stage}"


def check_load() -> None:
    """A seeded burst against two freshly booted 2-shard fleets.

    Dedup is exact (hits = clients - uniques, one job per unique
    content address), zero 5xx, p99 per endpoint under a generous
    budget, SIGINT exits each server 0, and the canonical summary is
    byte-identical across the two fleets.
    """
    from repro.experiments.loadgen import (
        LoadgenConfig,
        loadgen_passed,
        render_loadgen,
        run_loadgen,
        summary_bytes,
    )

    config = LoadgenConfig(
        clients=200,
        duplicate_fraction=0.95,  # 10 unique plans, 190 dedup hits
        arrival_rate_hz=400.0,
        seed=0,
        stream_every=20,  # every 20th client consumes the SSE stream
        foi_target_points=120,
        lloyd_grid_target=300,
        resolution=10,
        timeout_s=600.0,
    )
    # CI runners are slow and shared.  "plan"/"result" are single HTTP
    # round-trips; "job" is end-to-end completion latency (queue wait
    # behind the whole burst + solve), so it gets its own budget.
    p99_budget_ms = {"plan": 5_000.0, "result": 5_000.0, "job": 180_000.0}
    payloads = []
    for label in ("1/2", "2/2"):
        server = boot_server(
            ["--port", "0", "--service-workers", "2", "--workers", "2"]
        )
        try:
            summary = run_loadgen(config, port=server.port)
        finally:
            code = graceful_shutdown(server)
        print(f"--- burst {label} (server exited {code}) ---")
        assert code == 0, f"server exited {code}"
        print(render_loadgen(summary))
        canonical = summary["canonical"]
        assert canonical["dedup_exact"], canonical
        assert canonical["dedup_hits"] == config.clients - canonical["uniques"]
        assert canonical["jobs_created"] == canonical["uniques"]
        assert canonical["zero_5xx"], summary["timing"]["errors"]
        assert canonical["retry_after_correct"]
        assert canonical["all_clients_completed"]
        assert canonical["results_byte_identical"]
        for endpoint, stats in summary["timing"]["endpoints"].items():
            assert stats["p99_ms"] <= p99_budget_ms[endpoint], (endpoint, stats)
        assert loadgen_passed(summary)
        payloads.append(summary_bytes(summary))
    assert payloads[0] == payloads[1], (
        "canonical summary differs across fresh fleets for the same seed"
    )
    print("canonical summary byte-identical across fresh fleets: OK")


def check_mission() -> None:
    """Serial/parallel byte-identity of a drifting mission, C = 1.

    Every cell passes with zero C violations, the drifting target hits
    the translation-canonical disk-map cache at least once, and an
    unknown motion is rejected loudly with a non-zero exit.
    """
    matrix = [
        "--families", "corridor",
        "--motions", "drift",
        "--seeds", "1",
        "--epochs", "3",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        summary = serial_vs_parallel("mission", matrix, tmp)
    agg = summary["summary"]
    assert agg["connected_all"], agg
    assert agg["passed"] == agg["cells"] > 0, agg
    assert agg["errors"] == 0, agg
    assert agg["cache_hits_total"] >= 1, (
        "drifting target never hit the disk-map cache", agg
    )
    for cell in summary["cells"]:
        assert cell["outcome"] == "pass", cell
        assert cell["c_violations"] == 0, cell
        assert cell["mission_sha256"], cell
    print(
        f"C = 1 everywhere; {agg['cache_hits_total']} cache hits over "
        f"{agg['replans_total']} replans"
    )

    proc = repro("mission", "--motions", "teleport")
    assert proc.returncode != 0, "unknown motion not rejected"
    assert "unknown mission motion" in proc.stderr, proc.stderr
    print("unknown motion rejected: OK")


def check_crash() -> None:
    """``kill -9`` at two seeded epochs plus a SIGTERM drain.

    Each case: zero lost acknowledged jobs and a resumed mission
    document byte-identical to an uninterrupted oracle run.  A SIGKILL
    exits -9 and the mission is retried from at least ``kill_epoch``
    streamed epochs (the later kill proves the checkpoint cursor
    advances); SIGTERM checkpoints-and-releases and exits 0.
    """
    from dataclasses import replace

    from repro.experiments.crashrec import (
        CrashRecConfig,
        crashrec_passed,
        render_crashrec,
        run_crashrec,
    )

    base = CrashRecConfig(
        seed=0,
        epochs=3,
        kill_epoch=1,
        plan_jobs=2,
        robot_count=16,
        foi_target_points=100,
        grid_target=300,
        lloyd_max_iterations=8,
        resolution=4,
    )
    cases = [
        ("SIGKILL @ epoch 1", base, "SIGKILL"),
        # >= 2 epochs of runway keep the kill landing while the mission
        # is still running (no completion race).
        ("SIGKILL @ epoch 2", replace(base, epochs=4, kill_epoch=2), "SIGKILL"),
        # The drain interrupt fires at the *next* epoch boundary after
        # the signal, so leave several epochs outstanding.
        ("SIGTERM drain", replace(base, epochs=5), "SIGTERM"),
    ]
    for label, config, sig in cases:
        with tempfile.TemporaryDirectory(prefix="repro-crash-smoke-") as journal:
            summary = run_crashrec(config, journal, sig=sig)
        print(f"--- case {label} ---")
        print(render_crashrec(summary))
        assert crashrec_passed(summary), summary
        canonical = summary["canonical"]
        assert canonical["zero_lost_acked"], canonical["lost_acked"]
        assert canonical["mission_byte_identical"]
        if sig == "SIGKILL":
            assert summary["timing"]["crash_exit_code"] == -9, summary["timing"]
            assert canonical["mission_provenance"] == "retried", canonical
            assert canonical["epochs_streamed_before_crash"] >= config.kill_epoch
        else:
            assert summary["timing"]["crash_exit_code"] == 0, summary["timing"]


CHECKS = {
    "service": check_service,
    "chaos": check_chaos,
    "zoo": check_zoo,
    "scaling": check_scaling,
    "load": check_load,
    "mission": check_mission,
    "crash": check_crash,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=list(CHECKS))
    name = parser.parse_args(argv).name
    CHECKS[name]()
    print(f"{name} smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
