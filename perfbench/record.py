"""Re-record the output digests the correctness gates compare against.

Run from the repository root, only when a change alters the program's
canonical output bytes on purpose::

    python3 perfbench/record.py

It recomputes the ``paper-holes`` plan-document digest and the mission
document digest of every (family, motion, seed) with a seed below
``mission_seeds``, and rewrites those keys of ``perfbench/expected.json``.
A mission that fails its gates (an error, or a connectivity violation)
gets no digest: it is listed under ``known_defects`` instead, so it
stays visible in every run's output without failing every run.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    paper = run.Worker("paper").run(run.paper_job(0, trace=False))
    expected["paper_holes_digest"] = paper["digest"]
    missions = [[f, m, s] for s in range(expected["mission_seeds"])
                for f, m in run.MISSION_COMBOS]
    res = run.Worker("mission").run({"missions": missions})
    digests, defects = {}, {}
    for rec in res["missions"]:
        key = run.mission_key(rec["mission"])
        if "error" in rec:
            defects[key] = rec["error"]
        elif rec["c_violations"]:
            defects[key] = (f"{rec['c_violations']} connectivity violation(s); "
                            f"document digest {rec['digest']}")
        else:
            digests[key] = rec["digest"]
    expected["mission_digests"] = dict(sorted(digests.items()))
    expected["known_defects"] = dict(sorted(defects.items()))
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"recorded paper-holes digest, {len(digests)} mission digests and "
          f"{len(defects)} known defects: {defects}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
