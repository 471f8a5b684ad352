"""The hopftrees benchmark.

    python3 perfbench/run.py --workload suites|frame|requests \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``hopftrees`` is imported from its ``src/``.
A run is a sequence of passes.  Each pass is a fresh interpreter
(``passrun.py``) that imports the package, generates that pass's inputs from
the seed, calls ``hopftrees.cli.main`` (and one public API function) on them
in-process with stdout captured, and checks every output.  Passes start
until ``--seconds`` have gone by; every metric is taken per pass and the run
reports its median over the passes.

Times are scaled to a fixed machine speed.  While a pass runs its jobs, a
timer signal times a short fixed reference loop every 50 ms
(``jobs.SpeedProbe``; no hopftrees code).  Each job's time, less the probe's
own time inside it, is multiplied by ``REFERENCE_S`` over the median
reference time during that job (or of the nearest samples, for a short
job); ``setup_s`` and the per-layer times use the median over the pass.
On the shared 2-core virtual machine (Intel Xeon, Python 3.11.7) the
bounds were set on, speed drifted by up to half from minute to minute, and
raw medians of identical work spread by 0.2-0.34 between runs.  The raw
times are printed on the pass lines.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      summed time of the pass's jobs;
* ``req_p50_ms``, ``req_p95_ms``  per-job latency percentiles (nearest rank);
* ``peak_rss_mb`` peak resident memory of the pass (``getrusage``);
* ``setup_s``     interpreter start to the first job (imports, inputs).

``--trace 1`` runs pairs of passes on the inputs of pass 0, one plain and
one traced (see ``tracer.py``), and reports the per-layer metrics of the
traced pass plus ``trace.overhead_ratio`` (traced over plain ``wall_s``).
Counts come from the first traced pass; times are medians over the pairs.
Spans of the first traced pass go to ``.perfbench/spans-<workload>.bin.gz``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (jobs that raised, exited with the wrong code or printed the
wrong output) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSRUN = os.path.join(HERE, "passrun.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Whole run, including the pass that is running when --seconds runs out.
TIME_LIMIT_S = 170.0
# Scaled times read as seconds on a machine where the reference loop takes
# this long (about its median on that machine).
REFERENCE_S = 0.002
MIN_BEYOND = 10

END_TO_END = {"wall_s": "s", "req_p50_ms": "ms", "req_p95_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_pass(workload: str, seed: int, pass_index: int, trace: bool,
             deadline: float, spans_out: str | None = None) -> dict:
    launched = time.monotonic()
    cmd = [sys.executable, PASSRUN, "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--trace", str(int(trace)),
           "--launched-at", repr(launched)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    # a fixed hash seed makes str-keyed dicts and sets lay out alike in
    # every pass, so passes differ only in their inputs
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_index} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - launched
    return record


def speed_scale(record: dict) -> float:
    """REFERENCE_S over the pass's median reference time."""
    return REFERENCE_S / statistics.median(record["reference_s"])


def scaled_latencies(record: dict) -> list[float]:
    """Each job's seconds, scaled by the reference time measured during it."""
    return [seconds * REFERENCE_S / ref
            for seconds, ref in zip(record["latencies_s"], record["job_reference_s"])]


def pass_metrics(record: dict) -> dict[str, float]:
    latencies = scaled_latencies(record)
    ms = [s * 1000 for s in latencies]
    return {"wall_s": sum(latencies), "req_p50_ms": percentile(ms, 0.50),
            "req_p95_ms": percentile(ms, 0.95), "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": record["setup_s"] * speed_scale(record)}


def keep_going(started: float, seconds: float, last_s: float) -> bool:
    """Start another pass while --seconds last and the pass fits the limit."""
    now = time.monotonic()
    return now - started < seconds and now + 1.5 * last_s < started + TIME_LIMIT_S


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    records = []
    while not records or keep_going(started, seconds, records[-1]["elapsed_s"]):
        records.append(run_pass(workload, seed, len(records), False, deadline))
    per_pass = [pass_metrics(r) for r in records]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in END_TO_END}
    return records, metrics


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced = [], []
    while not traced or keep_going(started, seconds,
                                   plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"]):
        plain.append(run_pass(workload, seed, 0, False, deadline))
        spans_out = None if traced else os.path.join(OUT_DIR, f"spans-{workload}.bin.gz")
        traced.append(run_pass(workload, seed, 0, True, deadline, spans_out))
    metrics = dict(traced[0]["layers"])
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(r["layers"][name] * speed_scale(r) for r in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(scaled_latencies(r)) for r in traced)
        / statistics.median(sum(scaled_latencies(r)) for r in plain))
    return plain + traced, metrics


def describe(workload: str, records: list[dict]) -> list[str]:
    """Human-readable lines printed above the result."""
    lines = []
    for i, r in enumerate(records):
        kind = "traced" if "layers" in r else "plain"
        lines.append(f"pass {i} ({kind}): raw wall {r['wall_s']:.3f} s, raw setup "
                     f"{r['setup_s']:.3f} s, speed scale {speed_scale(r):.3f}, peak rss "
                     f"{r['peak_rss_mb']:.1f} MB, {r['attempted']} jobs, {r['failed']} failed")
        lines += [f"  FAILED {f}" for f in r["failures"]]
    n = len(records[0]["latencies_s"])
    beyond = samples_beyond(n, 0.95)
    note = "" if beyond >= MIN_BEYOND else f" (only {beyond} beyond p95: fewer than {MIN_BEYOND})"
    lines.append(f"latency samples: {n} per pass x {len(records)} passes{note}")
    classes = records[0]["classes"]
    mix = {k: classes.count(k) for k in dict.fromkeys(classes)}
    lines.append(f"job classes of pass 0: {mix}")
    if workload == "requests":
        share = statistics.median(r["repeat_share"] for r in records)
        lines.append(f"measured share of repeated inputs: {share:.3f}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    lines.append(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="hopftrees benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopftrees", "cli.py")):
        print(f"error: no hopftrees sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            records, metrics = measure_traced(args.workload, args.seed, args.seconds)
        else:
            records, metrics = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for line in describe(args.workload, records):
        print(line)
    units = END_TO_END if not args.trace else {k: layer_unit(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name:32} {value:16.6f} {units[name]}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
