"""Run perfbench on a parent revision and on the working tree, in pairs.

Usage (from the root of a checkout):

    python3 scripts/bench_pair.py --parent HEAD~1 --workload suites \
        --workload frame --pairs 10 --seconds 30 --out BENCH_6.json

For each workload and each seed 1..pairs it runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on a
copy of the parent revision's committed files and once on a copy of the
working tree, alternating which side runs first, and removes every
``__pycache__`` under both copies before each run, so both start from
source.  Both sides run from a copy, so that where the files sit on disk
is the same for both.  The parent's copy is made with ``git archive``; the
working tree's holds its tracked files and its untracked files that are
not ignored, as they are on disk, uncommitted edits included.  Each copy
is in a temporary directory that is deleted afterwards; the repository
itself, ``.git`` included, is not touched.

The output JSON holds both commit SHAs (the working tree's HEAD, with
``dirty`` set if it has uncommitted changes or untracked files that are
not ignored, all of which its copy holds), the Python version, the
per-pair metric values and, per workload and metric, the median and
quartiles of each side, the number of pairs in which the change read
better, the parent's interquartile range (q3 - q1) and ``gain_rule_met``:
true when the change read better in at least nine tenths of the pairs and
its median is below the parent's by more than that range.  Every metric
of perfbench's ``--trace 0`` result is lower-better.  Each end-to-end
metric listed in ``BENCHMARK.json`` also gets its ``bound`` from there and
``within_bound``: true when the change's median is at most the parent's
median times (1 + bound), the benchmark's no-regression check.
After the pairs of a workload it runs ``--trace 1`` once per side, seed 1,
and stores perfbench's per-layer values under ``layers`` as
``{metric: {"parent": value, "change": value}}``; the direction in which
each layer metric is better is listed in ``BENCHMARK.json``.
It also records the lines of ``src/`` added and removed between the parent
and the working tree (``git diff --numstat``; tracked files only) and their
difference, the net change.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked under dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """The working tree's tracked files and its untracked files that are not
    ignored, with their contents on disk, copied under dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file() or source.is_symlink():  # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def clear_bytecode(checkout: Path) -> None:
    for d in checkout.rglob("__pycache__"):
        if ".git" not in d.parts:
            shutil.rmtree(d, ignore_errors=True)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """perfbench's JSON result (its last stdout line) for one run."""
    clear_bytecode(checkout)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def src_lines(rev: str) -> dict:
    """Lines of src/ added and removed from rev to the working tree, and the net."""
    added = removed = 0
    for line in git("diff", "--numstat", rev, "--", "src/").splitlines():
        a, r, _ = line.split("\t", 2)
        if a != "-":  # binary files count no lines
            added += int(a)
            removed += int(r)
    return {"added": added, "removed": removed, "net": added - removed}


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def end_to_end_bounds() -> dict[str, float]:
    """{metric: bound} of the end-to-end metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(pairs: list[dict]) -> dict:
    bounds = end_to_end_bounds()
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        before = [p["parent"]["metrics"][name] for p in pairs]
        after = [p["change"]["metrics"][name] for p in pairs]
        parent, change = quartiles(before), quartiles(after)
        better = sum(a < b for a, b in zip(after, before))
        iqr = parent["q3"] - parent["q1"]
        out[name] = {"parent": parent, "change": change, "change_better": better,
                     "pairs": len(pairs), "parent_iqr": iqr,
                     "gain_rule_met": (10 * better >= 9 * len(pairs)
                                       and parent["median"] - change["median"] > iqr)}
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["within_bound"] = (
                change["median"] <= parent["median"] * (1 + bounds[name]))
    return out


def layer_rows(sides: dict, workload: str, seconds: float) -> dict:
    """{metric: {side: value}} from one ``--trace 1`` run per side, seed 1."""
    traced = {side: run_bench(checkout, workload, 1, seconds, trace=1)["metrics"]
              for side, checkout in sides.items()}
    return {name: {side: traced[side][name] for side in sides}
            for name in traced["parent"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10, help="seeds 1..pairs per workload")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    report = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "src_lines": src_lines(args.parent),
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {},
    }
    with (tempfile.TemporaryDirectory(prefix="bench-parent-") as parent,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change):
        sides = {"parent": Path(parent), "change": Path(change)}
        export(report["parent"], sides["parent"])
        export_worktree(sides["change"])
        for workload in args.workload:
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(sides[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: wall_s "
                      f"{pair['parent']['metrics']['wall_s']:.3f} -> "
                      f"{pair['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs),
                "layers": layer_rows(sides, workload, args.seconds)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
