"""Seeded inputs for the benchmark workloads.

The program only ever sees what these functions return: argv lists for
``hopftrees.cli.main`` and, for one ``frame`` job, the argument of a public
API call.  Everything here is plain Python over strings, so generating
inputs never imports ``hopftrees``.

A job is a dict with ``kind`` (``"cli"`` or ``"api"``), ``argv`` (cli) or
``call``/``arg`` (api), ``exit`` (the exit code the job must give) and
``klass`` (its size class, for the report).

``requests`` draws its inputs from a fixed catalog (built from a fixed
generator seed, independent of ``--seed``), so that every input it can send
has a stdout digest recorded in ``digests.json``.  The run seed picks which
catalog entries are sent, in what order, and which earlier inputs repeat.
"""

from __future__ import annotations

import random

WORKLOADS = ("suites", "frame", "requests", "robustness")

ALGEBRAS = ("ck", "gl", "foissy", "planar", "shuffle", "qshuffle", "qsym")

# requests per pass and its mix; the percentile cut points (p50, p95) fall
# inside the small and the large class, away from class boundaries.
REQUESTS_PER_PASS = 240
MIX = {"malformed": 4, "large": 24, "medium": 36, "repeat": 36}
MIX["small"] = REQUESTS_PER_PASS - sum(MIX.values())

PBW_WEIGHT = 11

# Deeper than Python's default recursion limit (1000).
DEEP_NESTING = 3000


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator for one pass; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def cli_job(argv: list[str], klass: str, exit_code: int = 0) -> dict:
    return {"kind": "cli", "argv": list(argv), "exit": exit_code, "klass": klass}


# ---------------------------------------------------------------------------
# suites and frame: fixed jobs in a fixed order

def suites_jobs() -> list[dict]:
    """The verification suites, in a fixed order: which suite pays for
    filling the shared caches, and so every per-job latency, depends on the
    order, and the seed must not move those."""
    return [cli_job(["check", "--suite", suite, "--max-weight", str(weight)], "suite")
            for suite, weight in (("hopf-axioms", 6), ("duality", 5),
                                  ("pi-kernel", 6), ("diagrams", 6))]


def frame_jobs() -> list[dict]:
    """The paper's endpoint at high weight, in a fixed order: the seed does
    not change these inputs, since peak memory depends on which job runs
    while the others' caches are full."""
    return [
        cli_job(["frame", "--max-weight", "15", "--format", "json"], "frame"),
        cli_job(["frame", "--max-weight", "12"], "frame"),
        cli_job(["lyndon", "--max-weight", "17"], "frame"),
        cli_job(["hall", "--max-weight", "9"], "frame"),
        cli_job(["zhao", "--max-weight", "7"], "frame"),
        cli_job(["check", "--suite", "prop53", "--max-weight", "7"], "frame"),
        {"kind": "api", "call": "pbw_rank", "arg": PBW_WEIGHT, "exit": 0,
         "klass": "frame"},
    ]


# ---------------------------------------------------------------------------
# text generators for trees, forests, words and compositions

def _tree_text(rng: random.Random, size: int, labels: tuple[int, ...]) -> str:
    """A random rooted tree on `size` vertices (each vertex picks an earlier
    parent); unlabeled when `labels` is empty."""
    parent = [rng.randrange(v) for v in range(1, size)]
    children: list[list[int]] = [[] for _ in range(size)]
    for v, p in enumerate(parent, start=1):
        children[p].append(v)
    names = [f"f{rng.choice(labels)}" if labels else "" for _ in range(size)]

    def text(v: int) -> str:
        if not children[v]:
            return names[v] or "[]"
        return names[v] + "[" + ",".join(text(c) for c in children[v]) + "]"

    return text(0)


def _forest_text(rng: random.Random, size: int, labels: tuple[int, ...]) -> str:
    parts = []
    left = size
    while left:
        k = rng.randint(1, left)
        parts.append(_tree_text(rng, k, labels))
        left -= k
    return " ".join(parts)


def _word_text(letters: list[int]) -> str:
    return ".".join(f"f{a}" for a in letters)


def _random_word(rng: random.Random, length: int, alphabet: int) -> str:
    return _word_text([rng.randint(1, alphabet) for _ in range(length)])


def _random_composition(rng: random.Random, parts: int, largest: int) -> str:
    return "M(" + ",".join(str(rng.randint(1, largest)) for _ in range(parts)) + ")"


def _labels(rng: random.Random) -> tuple[int, ...]:
    """Unlabeled half the time, else letters f1..f3."""
    return () if rng.random() < 0.5 else (1, 2, 3)


def _element(rng: random.Random, algebra: str, size: int, labeled: bool = True) -> str:
    """One basis element of `algebra` with `size` vertices, letters or parts."""
    labels = _labels(rng) if labeled else ()
    if algebra in ("ck", "foissy"):
        return _forest_text(rng, size, labels)
    if algebra in ("gl", "planar"):
        return _tree_text(rng, size, labels)
    if algebra in ("shuffle", "qshuffle"):
        return _random_word(rng, size, 4)
    return _random_composition(rng, size, 3)


def _op_argv(op: str, algebra: str, inputs: list[str]) -> list[str]:
    argv = [op, "--algebra", algebra]
    for text in inputs:
        argv += ["--input", text]
    return argv


# ---------------------------------------------------------------------------
# the requests catalog

CATALOG_SEED = "perfbench-catalog-v1"
SMALL_PER_KIND = 16
MEDIUM_PER_KIND = 5


def _small(rng: random.Random) -> list[list[str]]:
    out = []
    for algebra in ALGEBRAS:
        for _ in range(SMALL_PER_KIND):
            out.append(_op_argv("product", algebra,
                                [_element(rng, algebra, rng.randint(1, 3)),
                                 _element(rng, algebra, rng.randint(1, 3))]))
            out.append(_op_argv("coproduct", algebra,
                                [_element(rng, algebra, rng.randint(2, 5))]))
            # the gl and planar antipodes need an unlabeled root
            out.append(_op_argv("antipode", algebra,
                                [_element(rng, algebra, rng.randint(2, 4),
                                          labeled=algebra not in ("gl", "planar"))]))
    for _ in range(SMALL_PER_KIND):
        out.append(["pi", "--input", _forest_text(rng, rng.randint(2, 5), (1, 2, 3))])
    return out


def _medium(rng: random.Random) -> list[list[str]]:
    out = []
    for _ in range(MEDIUM_PER_KIND):
        out.append(_op_argv("coproduct", "ck", [_forest_text(rng, 9, _labels(rng))]))
        out.append(_op_argv("coproduct", "foissy", [_forest_text(rng, 8, ())]))
        out.append(_op_argv("antipode", "ck", [_tree_text(rng, 7, ())]))
        out.append(_op_argv("product", "gl", [_tree_text(rng, 4, ()), _tree_text(rng, 4, ())]))
        out.append(_op_argv("product", "planar", [_tree_text(rng, 4, ()), _tree_text(rng, 4, ())]))
        out.append(_op_argv("product", "shuffle", [_random_word(rng, 4, 6), _random_word(rng, 4, 6)]))
        out.append(_op_argv("product", "qsym", [_random_composition(rng, 4, 3),
                                               _random_composition(rng, 4, 3)]))
        out.append(["pi", "--input", _forest_text(rng, 6, (1, 2, 3, 4))])
    return out


def _distinct_letters(rng: random.Random, length: int) -> list[int]:
    return rng.sample(range(1, 10), length)


def _large(rng: random.Random) -> list[list[str]]:
    """Shuffles of 6-7 letter words over 7-9 letters, quasi-shuffles of 5-6
    letter words, pi of 8-vertex forests with thousands of linear extensions,
    and antipodes of 8-letter words and compositions."""
    out = []
    for m, n in ((6, 6), (7, 6), (7, 7), (6, 6), (7, 6), (7, 7)):
        out.append(_op_argv("product", "shuffle", [_word_text(_distinct_letters(rng, m)),
                                                   _word_text(_distinct_letters(rng, n))]))
    for m, n in ((5, 5), (6, 5), (6, 6), (5, 5), (6, 5), (6, 6)):
        out.append(_op_argv("product", "qshuffle", [_word_text(_distinct_letters(rng, m)),
                                                    _word_text(_distinct_letters(rng, n))]))
    shapes = ("f{}[f{},f{}] f{} f{}[f{}] f{} f{}", "f{}[f{},f{},f{},f{},f{},f{},f{}]",
              "f{}[f{}] f{}[f{}] f{} f{} f{}[f{}]", "f{}[f{},f{}] f{}[f{},f{}] f{} f{}")
    for shape in shapes * 2:
        out.append(["pi", "--input", shape.format(*_distinct_letters(rng, 8))])
    for _ in range(2):
        out.append(_op_argv("antipode", "qshuffle", [_random_word(rng, 8, 3)]))
        out.append(_op_argv("antipode", "qsym", ["M(" + ",".join(
            str(rng.randint(1, 2)) for _ in range(8)) + ")"]))
    return out


MALFORMED: tuple[list[str], ...] = (
    ["coproduct", "--algebra", "ck", "--input", "f1[["],
    ["product", "--algebra", "shuffle", "--input", "f1..f2", "--input", "f1"],
    ["antipode", "--algebra", "qsym", "--input", "M(2,"],
    ["coproduct", "--algebra", "nope", "--input", "f1"],
    ["product", "--algebra", "ck", "--input", "f1"],
    ["pi", "--input", "f1 ]"],
    ["antipode", "--algebra", "gl", "--input", "f1 f2"],
    ["coproduct", "--algebra", "shuffle", "--input", "fx"],
)


def _dedupe(items: list[list[str]]) -> list[list[str]]:
    seen = set()
    out = []
    for argv in items:
        key = tuple(argv)
        if key not in seen:
            seen.add(key)
            out.append(argv)
    return out


def catalog() -> dict[str, list[list[str]]]:
    """Every valid input `requests` may send, by size class."""
    rng = random.Random(CATALOG_SEED)
    return {"small": _dedupe(_small(rng)), "medium": _dedupe(_medium(rng)),
            "large": _dedupe(_large(rng))}


def requests_jobs(rng: random.Random) -> list[dict]:
    """One closed-loop client's sequence of CLI calls.

    Every large input is sent once, so the p95 cut point sits in the middle
    of the same class in every pass; small and medium inputs are drawn
    without replacement.  A fixed number of positions instead repeat an
    earlier small or medium request exactly.
    """
    cat = catalog()
    fresh = [cli_job(argv, klass) for klass in ("small", "medium", "large")
             for argv in rng.sample(cat[klass], MIX[klass])]
    fresh += [cli_job(argv, "malformed", 2) for argv in rng.sample(MALFORMED, MIX["malformed"])]
    rng.shuffle(fresh)
    # jobs are popped from the end: the first request is a small one, so
    # every later position has an earlier request to repeat
    first_small = max(i for i, job in enumerate(fresh) if job["klass"] == "small")
    fresh[first_small], fresh[-1] = fresh[-1], fresh[first_small]
    repeat_at = set(rng.sample(range(1, REQUESTS_PER_PASS), MIX["repeat"]))
    jobs: list[dict] = []
    for i in range(REQUESTS_PER_PASS):
        if i in repeat_at:
            earlier = [j for j in jobs if j["klass"] in ("small", "medium")]
            jobs.append(dict(rng.choice(earlier), klass="repeat"))
        else:
            jobs.append(fresh.pop())
    return jobs


def robustness_jobs(rng: random.Random) -> list[dict]:
    """Malformed inputs, each of which must exit 2, including one forest
    nested deeper than the interpreter's recursion limit."""
    deep = "[" * DEEP_NESTING + "]" * DEEP_NESTING
    jobs = [cli_job(argv, "malformed", 2) for argv in MALFORMED]
    jobs.append(cli_job(["coproduct", "--algebra", "ck", "--input", deep], "deep", 2))
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int, pass_index: int) -> list[dict]:
    rng = pass_rng(workload, seed, pass_index)
    if workload == "suites":
        return suites_jobs()
    if workload == "frame":
        return frame_jobs()
    if workload == "requests":
        return requests_jobs(rng)
    if workload == "robustness":
        return robustness_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def repeat_share(jobs: list[dict]) -> float:
    """Share of jobs whose argv already appeared earlier in the sequence."""
    seen = set()
    repeats = 0
    for job in jobs:
        key = tuple(job.get("argv", ()))
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs)
