"""Run ``repro serve`` on one pinned core under the benchmark's host clock.

Usage::

    python perfbench/serve.py OUT_FILE [--core N] [--trace] -- <repro serve args>

The launcher pins itself to core ``N``, starts a :class:`hostclock.Probe`
and, with ``--trace``, installs the timing wrappers; then it calls
``repro.cli.main(["serve", ...])``, so solve threads and the journal run
on that core (and through the wrappers).  When the service stops
(SIGTERM drains it) the probe's samples, every recorded span and the
interpreter's import time are written to ``OUT_FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_T0 = time.perf_counter()


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("out_file")
    parser.add_argument("--core", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:sep])
    serve_args = argv[sep + 1:]

    import hostclock

    hostclock.pin(args.core)
    import repro.cli
    import repro.service  # noqa: F401
    import_s = time.perf_counter() - _T0

    import layers
    import tracing

    recorder = tracing.Recorder()
    inst = tracing.install(recorder, layers.TARGETS) if args.trace else None
    probe = hostclock.Probe().start()
    try:
        rc = repro.cli.main(["serve", *serve_args])
    finally:
        samples = probe.stop()
        if inst is not None:
            tracing.uninstall(inst)
        with open(args.out_file, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans,
                       "clock": samples}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
