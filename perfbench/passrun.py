"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload W --seed N --pass-index I \
        --trace 0|1 --launched-at T [--spans-out PATH]

Imports ``hopftrees`` from ``src/`` of the checkout, generates the pass's
jobs, runs them in order under the speed probe (``jobs.SpeedProbe``),
checks every output, and prints one JSON record as
the last line of stdout.  ``--launched-at`` is the parent's
``time.monotonic()`` just before it started this interpreter (the clock is
shared by all processes), so ``setup_s`` covers interpreter start, imports
and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import jobs as jobs_mod  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload: str, seed: int, pass_index: int, trace: bool,
             launched_at: float, spans_out: str | None) -> dict:
    import hopftrees.cli  # noqa: F401  (loads every hopftrees module)
    if not os.path.abspath(sys.modules["hopftrees"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hopftrees was not imported from {SRC}")

    jobs = workloads.make_jobs(workload, seed, pass_index)
    digests = jobs_mod.load_digests()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - launched_at
    outcomes = []
    failures = []
    try:
        with jobs_mod.SpeedProbe() as probe:
            for job in jobs:
                outcomes.append(tracer.root(jobs_mod.run_job, job) if tracer
                                else jobs_mod.run_job(job))
    finally:
        if tracer:
            tracer.uninstall()
    latencies = []
    job_reference = []
    for job, outcome in zip(jobs, outcomes):
        why = jobs_mod.check(job, outcome, digests)
        if why is not None:
            failures.append(f"{jobs_mod.job_key(job)[:80]}: {why}")
        in_probe, reference = probe.attribute(outcome["start"], outcome["end"])
        latencies.append(outcome["seconds"] - in_probe)
        job_reference.append(reference)

    record = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "classes": [job["klass"] for job in jobs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:5],
        "repeat_share": workloads.repeat_share(jobs),
        "reference_s": list(probe.seconds),
        "job_reference_s": job_reference,
    }
    if tracer:
        record["layers"] = tracer.metrics()
        if spans_out:
            from tracer import write_spans
            write_spans(tracer.spans, spans_out)
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.pass_index, bool(args.trace),
                      args.launched_at, args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
