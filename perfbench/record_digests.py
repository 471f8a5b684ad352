"""Record the stdout digest of every valid input the workloads can send.

    python3 perfbench/record_digests.py

Runs each suites/frame CLI job and every entry of the requests catalog once,
in-process, and writes ``perfbench/digests.json`` (argv as JSON -> sha256 of
stdout).  The digests pin the outputs of the tree they were recorded from;
re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs as jobs_mod  # noqa: E402
import workloads  # noqa: E402


def all_valid_jobs() -> list[dict]:
    out = [j for j in workloads.suites_jobs() + workloads.frame_jobs()
           if j["kind"] == "cli"]
    for klass, items in workloads.catalog().items():
        out += [workloads.cli_job(argv, klass) for argv in items]
    return out


def main() -> int:
    import hopftrees.cli  # noqa: F401

    recorded = {}
    for job in all_valid_jobs():
        outcome = jobs_mod.run_job(job)
        if outcome["error"] or outcome["exit"] != 0:
            print(f"cannot record {jobs_mod.job_key(job)}: {outcome}", file=sys.stderr)
            return 1
        recorded[jobs_mod.job_key(job)] = jobs_mod.digest(outcome["stdout"])
    with open(jobs_mod.DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} digests to {jobs_mod.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
