"""One-shot markdown report across all scenarios.

``python -m repro report`` runs every scenario at a chosen separation,
collects the paper's three metrics per method, renders Table I plus a
per-scenario metric table as markdown, and (optionally) writes the
figure panels.  Useful as a single artifact documenting a full
reproduction run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.experiments.harness import DEFAULT_METHODS, ScenarioRun, run_scenarios
from repro.experiments.scenarios import SCENARIOS, get_scenario
from repro.obs import Tracer, activate

__all__ = ["build_report", "write_report"]


def _md_table(headers: Sequence[str], rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def build_report(
    separation_factor: float = 20.0,
    scenario_ids: Sequence[int] | None = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    workers: int | None = None,
    chaos: bool = False,
    chaos_seeds: Sequence[int] = (0,),
    chaos_scenarios: Sequence[int] | None = None,
    zoo: bool = False,
    zoo_seeds: int = 2,
    zoo_families: Sequence[str] | None = None,
    missions: bool = False,
    mission_seeds: int = 1,
    mission_epochs: int = 3,
    mission_families: Sequence[str] | None = None,
    scaling: bool = False,
    scaling_sizes: Sequence[int] | None = None,
    load: bool = False,
    load_clients: int = 200,
    load_seed: int = 0,
    load_service_workers: int = 2,
    **run_kwargs,
) -> str:
    """Run the scenarios and return the markdown report text.

    With ``workers > 1`` the scenarios fan out over worker processes;
    their spans and metrics merge back into the report's tracer (in
    scenario order), so the phase-timing table reflects worker time and
    the metric tables are identical for any worker count (the timing
    table, like any wall-clock measurement, varies run to run).

    With ``chaos=True`` the report appends a resilience section: a
    seeded fault-archetype sweep (:mod:`repro.experiments.chaos`) and
    its recovery metrics.

    With ``zoo=True`` the report appends a scenario-zoo section: a
    procedural-FoI invariant campaign (:mod:`repro.experiments.zoo`)
    with a per-family pass/fail table and any replayable
    counterexample triples.

    With ``missions=True`` the report appends a streaming-replanning
    section (:mod:`repro.experiments.missions`): seeded missions whose
    targets drift and deform across epochs, with per-cell replan /
    cache-hit / C = 1 columns and the campaign's canonical digest.

    With ``scaling=True`` the report appends swarm-size scaling curves
    (:mod:`repro.experiments.scaling`): wall-clock and peak allocation
    per pipeline stage at each size in ``scaling_sizes`` (default
    100 / 1 000 / 10 000).

    With ``load=True`` the report appends a service load-test section
    (:mod:`repro.experiments.loadgen`): a seeded ``load_clients``-strong
    burst against a fresh ``load_service_workers``-shard in-process
    fleet, with per-endpoint latency percentiles and the correctness
    checklist (zero 5xx, Retry-After, exact dedup, byte-identity).
    """
    ids = sorted(scenario_ids or SCENARIOS)
    tracer = Tracer()
    with activate(tracer):
        runs: dict[int, ScenarioRun] = run_scenarios(
            [get_scenario(sid) for sid in ids],
            separation_factor,
            methods,
            workers=workers,
                **run_kwargs,
        )

    parts = [
        "# Optimal Marching - reproduction report",
        "",
        f"All scenarios at separation {separation_factor:g} x communication "
        "range; metrics per Definitions 1-2 of the paper.",
        "",
        "## Table I - global connectivity",
        "",
        _md_table(
            ["Scenario"] + list(methods),
            [
                [f"Scenario {sid}"]
                + [runs[sid].evaluations[m].connectivity_flag for m in methods]
                for sid in ids
            ],
        ),
        "",
        "## Per-scenario metrics",
    ]
    for sid in ids:
        run = runs[sid]
        spec = get_scenario(sid)
        parts.extend([
            "",
            f"### Scenario {sid}: {spec.description}",
            "",
            _md_table(
                ["method", "D (km)", "D / D_Hungarian", "L", "C"],
                [
                    [
                        m,
                        f"{run.evaluations[m].total_distance / 1000:.1f}",
                        f"{run.distance_ratio(m):.3f}",
                        f"{run.evaluations[m].stable_link_ratio:.3f}",
                        run.evaluations[m].connectivity_flag,
                    ]
                    for m in methods
                ],
            ),
        ])
    if chaos:
        from repro.experiments.chaos import DEFAULT_SCENARIOS, chaos_sweep

        summary = chaos_sweep(
            scenario_ids=chaos_scenarios or DEFAULT_SCENARIOS,
            seeds=chaos_seeds,
            workers=workers,
        )
        agg = summary["summary"]
        parts.extend([
            "",
            "## Recovery under failures",
            "",
            f"Seeded fault sweep over scenarios "
            f"{summary['matrix']['scenarios']} x archetypes "
            f"{summary['matrix']['archetypes']} "
            f"({summary['config']['robot_count']} robots per case): "
            f"{agg['recovered']}/{agg['cases']} recovered with "
            f"{agg['replans_total']} replans and "
            f"{agg['rejoins_total']} escort rejoins; post-replan global "
            f"connectivity {'held' if agg['connected_all'] else 'VIOLATED'} "
            "at every sampled instant.",
            "",
            _md_table(
                ["scenario", "archetype", "outcome", "survivors",
                 "replans", "extra D", "t_recover"],
                [
                    [
                        d["scenario_id"],
                        d["archetype"],
                        d["outcome"] if d["outcome"] == "recovered"
                        else f"unrecoverable ({d['stage']})",
                        d["survivors"],
                        d["metrics"]["replan_count"]
                        if d["outcome"] == "recovered" else "-",
                        f"{d['metrics']['extra_distance']:.1f}"
                        if d["outcome"] == "recovered" else "-",
                        f"{d['metrics']['time_to_recover']:.3f}"
                        if d["outcome"] == "recovered" else "-",
                    ]
                    for d in summary["cases"]
                ],
            ),
        ])
    if zoo:
        from repro.experiments.zoo import FAMILIES, INVARIANTS, zoo_campaign
        from repro.io import dumps_canonical

        families = tuple(zoo_families) if zoo_families else FAMILIES
        zoo_summary = zoo_campaign(
            families=families,
            seeds=tuple(range(zoo_seeds)),
            workers=workers,
        )
        zagg = zoo_summary["summary"]
        parts.extend([
            "",
            "## Scenario zoo",
            "",
            f"Procedural invariant campaign over families "
            f"{list(zoo_summary['matrix']['families'])} x seeds "
            f"{list(zoo_summary['matrix']['seeds'])} "
            f"({zoo_summary['config']['robot_count']} robots per case, "
            f"methods {zoo_summary['config']['methods']}): "
            f"{zagg['passed']}/{zagg['cases']} cases passed every "
            "whole-pipeline invariant (C = 1 incl. jump left-limits, "
            "Lemma-1 distance floor, Definition-2 re-verification of the "
            "plan document, canonical-byte stability).",
            "",
            _md_table(
                ["family", "cases", "pass", "fail", "err"]
                + list(INVARIANTS),
                [
                    [family, agg["cases"], agg["passed"], agg["failed"],
                     agg["errors"]]
                    + [
                        "ok" if agg["invariant_failures"][n] == 0
                        else f"{agg['invariant_failures'][n]} FAIL"
                        for n in INVARIANTS
                    ]
                    for family, agg in zoo_summary["families"].items()
                ],
            ),
        ])
        if zoo_summary["counterexamples"]:
            parts.extend([
                "",
                "Replayable counterexamples (each reproduces "
                "byte-identically via `python -m repro zoo --replay`):",
                "",
            ])
            for entry in zoo_summary["counterexamples"]:
                triple = dumps_canonical(
                    {k: entry[k] for k in ("family", "seed", "params")}
                ).decode("utf-8")
                parts.append(f"- `{triple}`")
    if missions:
        from repro.experiments.missions import (
            DEFAULT_FAMILIES,
            mission_campaign,
        )
        from repro.io import canonical_digest

        mission_summary = mission_campaign(
            families=tuple(mission_families or DEFAULT_FAMILIES),
            seeds=tuple(range(mission_seeds)),
            epochs=mission_epochs,
            workers=workers,
        )
        magg = mission_summary["summary"]
        parts.extend([
            "",
            "## Streaming missions",
            "",
            f"Seeded replanning campaign over families "
            f"{list(mission_summary['matrix']['families'])} x motions "
            f"{list(mission_summary['matrix']['motions'])} x seeds "
            f"{list(mission_summary['matrix']['seeds'])} "
            f"({mission_summary['config']['robot_count']} robots, "
            f"{mission_summary['matrix']['epochs']} epochs per mission): "
            f"{magg['passed']}/{magg['cells']} missions held C = 1 at "
            f"every sampled instant (incl. jump left-limits) across "
            f"{magg['replans_total']} incremental replans; "
            f"{magg['cache_hits_total']} translation-canonical disk-map "
            f"cache hits / {magg['cache_misses_total']} misses.  "
            f"Canonical digest `{canonical_digest(mission_summary)}` "
            "(identical for any worker count).",
            "",
            _md_table(
                ["family", "motion", "seed", "outcome", "replans",
                 "hits", "misses", "C viol", "D (km)"],
                [
                    [
                        cell["family"], cell["motion"], cell["seed"],
                        f"error@{cell['epoch']}", "-", "-", "-", "-", "-",
                    ]
                    if cell["outcome"] == "error" else
                    [
                        cell["family"], cell["motion"], cell["seed"],
                        cell["outcome"], cell["replans"],
                        cell["cache_hits"], cell["cache_misses"],
                        cell["c_violations"],
                        f"{cell['total_distance'] / 1000:.2f}",
                    ]
                    for cell in mission_summary["cells"]
                ],
            ),
        ])
    if scaling:
        from repro.experiments.scaling import (
            DEFAULT_SIZES,
            format_scaling_table,
            scaling_curve,
        )

        sizes = list(scaling_sizes) if scaling_sizes else list(DEFAULT_SIZES)
        curve = scaling_curve(sizes=sizes)
        parts.extend([
            "",
            "## Scaling curves",
            "",
            f"Synthetic uniform swarms (constant density, seed "
            f"{curve['seed']}, comm range {curve['comm_range']:g} m) at "
            f"n = {', '.join(str(n) for n in curve['sizes'])}; each cell is "
            "wall-clock / peak allocation (tracemalloc) for one pipeline "
            "stage.  The spatial-hash edge set is verified against the "
            "brute-force oracle at the sizes where the oracle is feasible.",
            "",
            format_scaling_table(curve),
        ])
    if load:
        from repro.experiments.loadgen import (
            LoadgenConfig,
            loadgen_passed,
            run_loadgen_fleet,
        )
        from repro.io import canonical_digest

        config = LoadgenConfig(clients=load_clients, seed=load_seed)
        load_summary = run_loadgen_fleet(
            config, service_workers=load_service_workers
        )
        canonical = load_summary["canonical"]
        timing = load_summary["timing"]
        recovery = load_summary.get("recovery") or {}
        checks = [
            ("all clients completed", canonical["all_clients_completed"]),
            ("zero 5xx", canonical["zero_5xx"]),
            ("429 Retry-After correct", canonical["retry_after_correct"]),
            ("dedup exact", canonical["dedup_exact"]),
            ("results byte-identical", canonical["results_byte_identical"]),
        ]
        if recovery:
            checks.append((
                "restart recovery clean",
                recovery.get("jobs_requeued", 0) == 0
                and recovery.get("jobs_restored", 0) >= canonical["uniques"],
            ))
        digest = canonical_digest({
            "format_version": load_summary["format_version"],
            "config": load_summary["config"],
            "canonical": canonical,
        })
        parts.extend([
            "",
            "## Load testing",
            "",
            f"Seeded open-loop burst: {canonical['clients']} clients "
            f"({canonical['uniques']} unique requests, "
            f"{canonical['dedup_hits']} dedup hits, "
            f"{timing['rejected_429']} x 429) against a fresh "
            f"{load_summary['service_workers']}-shard fleet in "
            f"{timing['elapsed_s']:.2f}s "
            f"({timing['throughput_rps']:.1f} req/s); verdict: "
            f"{'PASS' if loadgen_passed(load_summary) else 'FAIL'}.  "
            f"Canonical summary digest `{digest}` (identical for any "
            "worker count).",
            "",
            _md_table(
                ["endpoint", "n", "p50 ms", "p95 ms", "p99 ms", "max ms"],
                [
                    [
                        endpoint,
                        stats["count"],
                        f"{stats['p50_ms']:.1f}",
                        f"{stats['p95_ms']:.1f}",
                        f"{stats['p99_ms']:.1f}",
                        f"{stats['max_ms']:.1f}",
                    ]
                    for endpoint, stats in timing["endpoints"].items()
                ],
            ),
            "",
            _md_table(
                ["check", "result"],
                [[name, "ok" if ok else "FAIL"] for name, ok in checks],
            ),
        ])
        if recovery:
            parts.extend([
                "",
                "Restart recovery (same journal, fresh fleet): "
                "jobs resumed and journal replay time.",
                "",
                _md_table(
                    ["jobs restored", "requeued", "retried",
                     "journal records", "replay (s)"],
                    [[
                        recovery.get("jobs_restored", 0),
                        recovery.get("jobs_requeued", 0),
                        recovery.get("jobs_retried", 0),
                        recovery.get("journal_records", 0),
                        f"{recovery.get('replay_s', 0.0):.3f}",
                    ]],
                ),
            ])
    parts.extend([
        "",
        "## Phase timings",
        "",
        _md_table(
            ["span", "calls", "total (s)", "self (s)", "mean (ms)"],
            [
                [name, row["calls"], f"{row['total_s']:.3f}",
                 f"{row['self_s']:.3f}", f"{row['mean_s'] * 1000:.2f}"]
                for name, row in tracer.phase_timings().items()
            ],
        ),
    ])
    parts.append("")
    return "\n".join(parts)


def write_report(path, **kwargs) -> Path:
    """Build the report and write it to ``path``."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(build_report(**kwargs))
    return p
