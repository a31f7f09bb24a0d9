"""The measured interpreter for the in-process workloads.

Started by ``run.py`` with ``PYTHONPATH=src`` as
``worker.py MODE [--setup-only] [--core N]``.  It pins itself to core
``N``, imports what its mode needs, reports ``{"event": "ready"}`` on
its protocol stream (the parent times spawn-to-ready as set-up), then
reads one JSON job from stdin, runs it under a
:class:`hostclock.Probe` and writes one JSON result holding the
``perf_counter`` stamps of its work and the probe's samples, from which
the parent prices the work on the reference clock.  With
``--setup-only`` it exits right after ``ready``: an extra set-up sample
that pays exactly the imports of the measured worker.  The program's
own prints go to stderr so they cannot corrupt the protocol stream.

Modes:

* ``paper``     - one cold ``run_scenarios`` batch to canonical bytes;
* ``mission``   - a list of ``run_mission`` calls, in order;
* ``recompute`` - service requests solved in-process, for the byte gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time

_T0 = time.perf_counter()

import hostclock  # noqa: E402  (after _T0: numpy is part of every mode's set-up)


def _send(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Trace:
    """Wrappers plus every ``repro.obs`` registry the job touches."""

    def __init__(self) -> None:
        import layers
        import tracing
        from repro.missions import runner
        from repro.obs import get_metrics
        from repro.obs.metrics import Metrics

        self.layers, self.tracing = layers, tracing
        self.recorder = tracing.Recorder()
        self.registries = [get_metrics()]
        registries = self.registries

        class RecordingMetrics(Metrics):
            def __init__(self) -> None:
                super().__init__()
                registries.append(self)

        self._runner, self._metrics_cls = runner, runner.Metrics
        runner.Metrics = RecordingMetrics
        self.inst = tracing.install(self.recorder, layers.TARGETS)
        self.start = time.perf_counter()

    def finish(self) -> dict:
        end = time.perf_counter()
        self.tracing.uninstall(self.inst)
        self._runner.Metrics = self._metrics_cls
        counters: dict[str, float] = {}
        for registry in self.registries:
            for name, payload in registry.snapshot().items():
                if payload.get("kind") == "counter":
                    counters[name] = counters.get(name, 0.0) + payload["value"]
        spans = self.recorder.spans
        metrics = self.layers.layer_metrics(spans, counters)
        return {
            "metrics": metrics,
            "exact": self.layers.exact_counts(metrics, counters),
            "covered_s": self.tracing.covered_time(spans, self.start, end),
            "spans": len(spans),
        }


def paper(job) -> dict:
    from repro.experiments import get_scenario, run_scenarios
    from repro.io import dumps_canonical, plan_document

    t0 = time.perf_counter()
    runs = run_scenarios(
        [get_scenario(s) for s in job["scenarios"]],
        separation_factor=job["separation"],
        methods=tuple(job["methods"]),
        workers=1,
    )
    data = dumps_canonical(plan_document(runs))
    t1 = time.perf_counter()
    return {
        "t0": t0, "t1": t1, "wall_s": t1 - t0,
        "digest": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "connected": {
            str(sid): {m: bool(e.globally_connected) for m, e in run.evaluations.items()}
            for sid, run in runs.items()
        },
    }


def mission(job) -> dict:
    from repro.errors import ReproError
    from repro.io import dumps_canonical
    from repro.missions import MissionConfig, MissionSpec, run_mission

    records = []
    t0 = time.perf_counter()
    for family, motion, seed in job["missions"]:
        stamps: list[float] = []

        def progress(kind, data, stamps=stamps):
            if kind == "epoch":
                stamps.append(time.perf_counter())

        m0 = time.perf_counter()
        rec = {"mission": [family, motion, seed]}
        try:
            doc = run_mission(MissionSpec(family=family, seed=seed, motion=motion),
                              MissionConfig(), progress=progress)
        except ReproError as exc:
            rec.update(error=f"{type(exc).__name__}: {exc}", epochs=len(stamps))
        else:
            data = dumps_canonical(doc)
            rec.update(
                digest=hashlib.sha256(data).hexdigest(), bytes=len(data),
                epochs=doc["summary"]["epochs"],
                c_violations=doc["summary"]["c_violations"],
            )
        m1 = time.perf_counter()
        rec.update(t0=m0, t1=m1, wall_s=m1 - m0, stamps=stamps)
        records.append(rec)
    t1 = time.perf_counter()
    return {"missions": records, "t0": t0, "t1": t1, "wall_s": t1 - t0}


def recompute(job) -> dict:
    from repro.io import dumps_canonical
    from repro.service.jobs import normalize_plan_request
    from repro.service.server import run_plan_request

    digests = []
    for doc in job["requests"]:
        request, _priority = normalize_plan_request(doc)
        data = dumps_canonical(run_plan_request(request))
        digests.append(hashlib.sha256(data).hexdigest())
    return {"digests": digests}


MODES = {"paper": paper, "mission": mission, "recompute": recompute}

#: Modules each mode imports before ``ready``: everything its job
#: function imports, so no import cost lands inside the timed work.
IMPORTS = {
    "paper": ("repro.experiments", "repro.io"),
    "mission": ("repro.errors", "repro.io", "repro.missions"),
    "recompute": ("repro.io", "repro.service.jobs", "repro.service.server"),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--core", type=int)
    args = parser.parse_args()
    hostclock.pin(args.core)
    proto, sys.stdout = sys.stdout, sys.stderr
    for name in IMPORTS[args.mode]:
        importlib.import_module(name)
    _send(proto, {"event": "ready", "import_s": time.perf_counter() - _T0})
    if args.setup_only:
        return 0
    job = json.loads(sys.stdin.readline())
    trace = _Trace() if job.get("trace") else None
    probe = hostclock.Probe().start()
    result = MODES[args.mode](job)
    result["clock"] = probe.stop()
    if trace is not None:
        result["trace"] = trace.finish()
    result["maxrss_mb"] = _maxrss_mb()
    _send(proto, {"event": "result", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
