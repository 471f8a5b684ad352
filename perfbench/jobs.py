"""Running one job in-process and checking what it printed.

A job's outcome records the exit code (``cli.main``'s return value, or the
code of a ``SystemExit``), its stdout, the value an API job returned, and the
exception it raised, if any.  A job fails when it raises, exits with a code
other than the one its input calls for, or prints something other than what
this tree printed when ``digests.json`` was recorded.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


# The speed reference: a fixed loop of the kind of work hopftrees does
# (Fraction sums, tuple keys, dict updates, a sort) that calls no hopftrees
# code.  Timed while jobs run, it measures how fast the machine runs right
# then.  Fraction.__add__ is bound here, before any tracer wraps it, so a
# traced pass neither counts nor slows the reference.
REFERENCE_ITERATIONS = 500
SAMPLE_EVERY_S = 0.05
_fraction_add = Fraction.__add__


def reference_seconds() -> float:
    """Time one run of the reference loop, with the collector paused.
    Everything it allocates is freed before it returns."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple[int, int, int], int] = {}
        acc = Fraction(0)
        for i in range(REFERENCE_ITERATIONS):
            key = (i % 97, i % 13, i * 7 % 5)
            table[key] = table.get(key, 0) + 1
            acc = _fraction_add(acc, Fraction(i % 7 + 1, i % 11 + 1))
        sorted(table.items())
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Times the reference loop every SAMPLE_EVERY_S of wall time, from a
    timer signal, so the samples fall inside the jobs they measure the
    machine for.  ``starts`` and ``seconds`` hold the samples in time order
    (the first is taken on entry), in arrays the collector does not track."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(reference_seconds())

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def attribute(self, start: float, end: float) -> tuple[float, float]:
        """(probe seconds spent inside [start, end), reference time for a
        job that ran then: the median of the samples inside, widened to
        the nearest ones until there are at least three)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        n = len(self.starts)
        while hi - lo < 3 and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return inside, statistics.median(self.seconds[lo:hi])


def job_key(job: dict) -> str:
    if job["kind"] == "cli":
        return json.dumps(job["argv"], separators=(",", ":"))
    return f"{job['call']}({job['arg']})"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def pbw_rank(n: int) -> int:
    """Rank of the PBW elements of the Hall forests of weight n.

    The modules are looked up at call time, so a traced run sees the calls.
    """
    lyndon_hall = sys.modules["hopftrees.lyndon_hall"]
    linsolve = sys.modules["hopftrees.linsolve"]
    return linsolve.exact_rank(lyndon_hall.pbw_element(u) for u in lyndon_hall.hall_forests(n))


def run_job(job: dict) -> dict:
    """Run a job with stdout and stderr captured; time only the call."""
    cli = sys.modules["hopftrees.cli"]
    out = io.StringIO()
    err = io.StringIO()
    outcome = {"exit": None, "value": None, "error": None}
    outcome["start"] = t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                outcome["exit"] = cli.main(job["argv"])
            else:
                outcome["value"] = pbw_rank(job["arg"])
                outcome["exit"] = 0
    except SystemExit as e:
        outcome["exit"] = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except Exception as e:  # a job that raises is a counted failure, not a crash
        outcome["error"] = f"{type(e).__name__}: {str(e)[:120]}"
    outcome["end"] = time.perf_counter()
    outcome["seconds"] = outcome["end"] - t0
    outcome["stdout"] = out.getvalue()
    return outcome


def check(job: dict, outcome: dict, digests: dict[str, str]) -> str | None:
    """None when the outcome is right, else why it is wrong."""
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != job["exit"]:
        return f"exit {outcome['exit']}, expected {job['exit']}"
    stdout = outcome["stdout"]
    if job["exit"] != 0:
        return "printed to stdout on an error exit" if stdout else None
    if job["kind"] == "api":
        want = 2 ** (job["arg"] - 1)
        return None if outcome["value"] == want else f"rank {outcome['value']}, expected {want}"
    if job["argv"][0] == "check":
        bad = [line for line in stdout.splitlines() if not line.startswith(("PASS", "INFO"))]
        if bad or not stdout:
            return f"check rows not PASS/INFO: {bad[:1]}"
    want = digests.get(job_key(job))
    if want is None:
        return "no recorded digest for this input"
    return None if digest(stdout) == want else "stdout differs from the recorded digest"
