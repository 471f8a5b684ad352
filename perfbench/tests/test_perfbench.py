"""Tests of the benchmark's own code: inputs, percentiles, output checks,
span arithmetic, and the tracer's wrapping and restoring of hopftrees."""

import fractions
import json
import os
import subprocess
import sys
import time

import pytest

import jobs
import passrun
import run
import workloads
from tracer import COVERED, Spans, Tracer, analyse, read_spans, self_times, write_spans

import hopftrees.cli  # noqa: F401  (loads every module the tracer wraps)


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", ["suites", "frame", "requests", "robustness"])
def test_same_seed_same_inputs(workload):
    assert workloads.make_jobs(workload, 7, 2) == workloads.make_jobs(workload, 7, 2)


def test_seeds_change_requests():
    assert workloads.make_jobs("requests", 1, 0) != workloads.make_jobs("requests", 2, 0)


def test_requests_mix_and_repeats():
    for seed in range(5):
        reqs = workloads.make_jobs("requests", seed, 0)
        classes = [j["klass"] for j in reqs]
        assert len(reqs) == workloads.REQUESTS_PER_PASS
        assert reqs[0]["klass"] == "small"  # so every repeat has an earlier input
        assert {k: classes.count(k) for k in workloads.MIX} == workloads.MIX
        assert workloads.repeat_share(reqs) == pytest.approx(
            workloads.MIX["repeat"] / workloads.REQUESTS_PER_PASS)


def test_every_valid_input_has_a_digest():
    digests = jobs.load_digests()
    for klass, items in workloads.catalog().items():
        for argv in items:
            assert jobs.job_key(workloads.cli_job(argv, klass)) in digests
    for workload in ("suites", "frame"):
        for job in workloads.make_jobs(workload, 0, 0):
            if job["kind"] == "cli":
                assert jobs.job_key(job) in digests


# ---------------------------------------------------------------------------
# percentiles


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert run.percentile(xs, 0.50) == 50
    assert run.percentile(xs, 0.95) == 95
    assert run.percentile([3.0], 0.95) == 3.0
    assert run.samples_beyond(100, 0.95) == 5


def test_percentile_rule_on_requests():
    """At least ten samples lie beyond the reported p95 of a requests pass,
    and the cut point falls inside the large class, not at its edge."""
    n = workloads.REQUESTS_PER_PASS
    beyond = run.samples_beyond(n, 0.95)
    assert beyond >= run.MIN_BEYOND
    assert beyond < workloads.MIX["large"] - 5


def test_times_scale_by_the_reference_measured_during_each_job():
    ref = run.REFERENCE_S
    record = {"latencies_s": [1.0, 2.0], "job_reference_s": [ref, 2 * ref],
              "reference_s": [ref, ref, 2 * ref], "setup_s": 0.5, "peak_rss_mb": 10.0}
    assert run.scaled_latencies(record) == pytest.approx([1.0, 1.0])
    got = run.pass_metrics(record)
    assert got["wall_s"] == pytest.approx(2.0)
    assert got["setup_s"] == pytest.approx(0.5)  # median reference: ref
    assert got["peak_rss_mb"] == 10.0


def test_probe_samples_inside_jobs_and_restores_the_signal_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with jobs.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside, reference = probe.attribute(start, end)
    assert len(probe.seconds) >= 4
    assert 0 < inside < end - start
    assert reference > 0
    # a job too short to hold a sample borrows the nearest ones
    assert probe.attribute(end, end)[0] == 0


def test_reference_loop_is_invisible_to_the_tracer():
    import gc
    tracer = Tracer()
    tracer.install()
    try:
        assert jobs.reference_seconds() > 0
    finally:
        tracer.uninstall()
    assert gc.isenabled()
    assert tracer.fraction_op_count == 0


# ---------------------------------------------------------------------------
# output checks


def _cli(argv, klass="small", exit_code=0):
    return workloads.cli_job(argv, klass, exit_code)


def test_check_accepts_recorded_output():
    job = _cli(["product", "--algebra", "ck", "--input", "f1", "--input", "f2"])
    outcome = jobs.run_job(job)
    assert jobs.check(job, outcome, {jobs.job_key(job): jobs.digest("1*f1 f2\n")}) is None
    assert "differs" in jobs.check(job, outcome, {jobs.job_key(job): jobs.digest("x")})
    assert "no recorded digest" in jobs.check(job, outcome, {})


def test_check_flags_exit_codes_and_failed_rows():
    bad = _cli(["coproduct", "--algebra", "ck", "--input", "f1[["], exit_code=0)
    assert "exit 2" in jobs.check(bad, jobs.run_job(bad), {})
    usage = _cli(["coproduct", "--algebra", "nope", "--input", "f1"], "malformed", 2)
    assert jobs.check(usage, jobs.run_job(usage), {}) is None
    job = _cli(["check", "--suite", "prop53", "--max-weight", "2"])
    outcome = dict(jobs.run_job(job), stdout="FAIL  x\n")
    assert "PASS/INFO" in jobs.check(job, outcome, {})


def test_deep_nesting_is_counted_not_dropped():
    """The input nested past the recursion limit stays in the robustness
    pass; when it raises, it is a failure of that pass."""
    record = passrun.run_pass("robustness", 0, 0, False, time.monotonic(), None)
    assert record["attempted"] == len(workloads.MALFORMED) + 1
    deep = next(j for j in workloads.make_jobs("robustness", 0, 0) if j["klass"] == "deep")
    outcome = jobs.run_job(deep)
    if outcome["error"] is not None:
        assert jobs.check(deep, outcome, {}) is not None
        assert record["failed"] >= 1
        assert any("RecursionError" in f for f in record["failures"])


def test_digests_identical_across_processes():
    code = ("import json, sys; sys.path[:0] = [{bench!r}, {src!r}]\n"
            "import hopftrees.cli, jobs, workloads\n"
            "reqs = workloads.make_jobs('requests', 3, 0)[:60]\n"
            "print(json.dumps([jobs.digest(jobs.run_job(j)['stdout']) for j in reqs]))\n")
    bench = os.path.dirname(jobs.HERE + os.sep)
    src = os.path.join(os.path.dirname(bench), "src")
    outs = []
    for hashseed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code.format(bench=bench, src=src)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONHASHSEED=hashseed))
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    digests = jobs.load_digests()
    for job, got in zip(workloads.make_jobs("requests", 3, 0)[:60], outs[0]):
        if job["exit"] == 0:
            assert digests[jobs.job_key(job)] == got


# ---------------------------------------------------------------------------
# spans


def _synthetic():
    spans = Spans()
    root = spans.add(-1, "bench.job", 0.0, 10.0)
    a = spans.add(root, "words.shuffle", 1.0, 4.0)
    spans.add(a, "words.quasi_shuffle", 1.5, 3.5)
    b = spans.add(root, "words.quasi_shuffle", 5.0, 9.0)
    spans.add(b, "algebra.LinComb.__add__", 6.0, 7.0)
    return spans


def test_self_time_on_synthetic_spans():
    assert list(self_times(_synthetic())) == [3.0, 1.0, 2.0, 3.0, 1.0]
    got = analyse(_synthetic())
    assert got["bench.self_s"] == 3.0
    assert got["words.self_s"] == 6.0
    assert got["algebra.self_s"] == 1.0
    assert got["words.shuffle_s"] == 3.0
    assert got["words.quasi_shuffle_s"] == 4.0  # the one inside shuffle is skipped
    assert got["calls:words.quasi_shuffle"] == 2


def test_nested_enumerators_count_once():
    spans = Spans()
    outer = spans.add(-1, "trees.enumerate_trees", 0.0, 5.0)
    spans.add(outer, "trees.enumerate_forests", 1.0, 4.0)
    spans.add(-1, "trees.enumerate_forests", 6.0, 7.0)
    assert analyse(spans)["trees.enum_s"] == 6.0
    assert set(COVERED) <= set(analyse(spans))


def test_spans_round_trip(tmp_path):
    path = str(tmp_path / "spans.bin.gz")
    write_spans(_synthetic(), path)
    back = read_spans(path)
    assert back.names == _synthetic().names
    assert list(back.parent) == list(_synthetic().parent)
    assert list(back.end) == list(_synthetic().end)


# ---------------------------------------------------------------------------
# wrapping and restoring


def _bindings():
    """Every module attribute, registry value and attribute of a registry
    entry across hopftrees.*, plus the LinComb and Fraction methods."""
    snap = {}
    for name, mod in Tracer.modules().items():
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    snap[(name, attr, key)] = value
                    if hasattr(value, "__dict__") and not callable(value):
                        for field, v in vars(value).items():
                            snap[(name, attr, key, field)] = v
    lincomb = sys.modules["hopftrees.algebra"].LinComb
    for cls in (lincomb, fractions.Fraction):
        for attr, obj in vars(cls).items():
            snap[(cls.__name__, attr)] = obj
    return snap


def test_every_alias_wrapped_then_restored(capsys):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        originals = {id(orig) for orig, _ in tracer.wrapped.values()}
        stale = [k for k, v in during.items() if id(v) in originals]
        assert not stale, f"aliases left unwrapped: {stale[:5]}"
        cli = sys.modules["hopftrees.cli"]
        assert cli.ALGEBRAS["ck"].product.__wrapped__ is before[("hopftrees.cli", "ALGEBRAS", "ck", "product")]
        assert sys.modules["hopftrees.checks"].SUITES["duality"].__wrapped__ is not None
        assert cli.main.__wrapped__ is before[("hopftrees.cli", "main")]
        assert hopftrees.ck_product.__wrapped__ is before[("hopftrees", "ck_product")]
        assert fractions.Fraction.__add__ is not before[("Fraction", "__add__")]
        assert tracer.root(cli.main, ["product", "--algebra", "ck", "--input", "f1",
                                      "--input", "f2[f1]"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"bindings not restored: {changed[:5]}"
    assert not tracer.bindings
    names = {tracer.spans.names[k] for k in tracer.spans.name}
    assert {"bench.job", "cli.main", "trees.parse_forest", "tree_hopf.ck_product",
            "algebra.LinComb.bilinear"} <= names
    capsys.readouterr()


def test_traced_counts_repeat_exactly():
    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            for job in workloads.make_jobs("requests", 5, 0)[:40]:
                tracer.root(jobs.run_job, job)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        return {k: v for k, v in m.items() if not k.endswith("_s")
                and not k.startswith(("gc.", "cache."))}

    # the in-process caches are warm for the second call, so compare two
    # calls made after the same warm-up
    counts()
    assert counts() == counts()
