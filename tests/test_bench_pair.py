"""The per-metric summary and the written JSON of scripts/bench_pair.py, on
synthetic pairs and a stubbed runner."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).parents[1] / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _pairs(parent, change):
    return [{"parent": {"metrics": {"wall_s": b}}, "change": {"metrics": {"wall_s": a}}}
            for b, a in zip(parent, change)]


PARENT = [1.30, 1.32, 1.34, 1.36, 1.38, 1.40, 1.42, 1.44, 1.46, 1.48]


def test_summary_quartiles_and_counts():
    s = bench_pair.summarize(_pairs(PARENT, [x - 0.25 for x in PARENT]))["wall_s"]
    assert s["pairs"] == 10
    assert s["change_better"] == 10
    assert s["parent"]["median"] == pytest.approx(1.39)
    assert s["parent_iqr"] == pytest.approx(s["parent"]["q3"] - s["parent"]["q1"])
    assert s["parent_iqr"] == pytest.approx(0.09)
    assert s["gain_rule_met"] is True


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [x - 0.25 for x in PARENT]
    change[0] = change[1] = 2.0
    s = bench_pair.summarize(_pairs(PARENT, change))["wall_s"]
    assert s["change_better"] == 8
    assert s["parent"]["median"] - s["change"]["median"] > s["parent_iqr"]
    assert s["gain_rule_met"] is False
    change[1] = PARENT[1]  # a tie counts for neither side
    assert bench_pair.summarize(_pairs(PARENT, change))["wall_s"]["gain_rule_met"] is False
    change[1] = PARENT[1] - 0.25
    assert bench_pair.summarize(_pairs(PARENT, change))["wall_s"]["gain_rule_met"] is True


def test_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    s = bench_pair.summarize(_pairs(PARENT, [x - 0.05 for x in PARENT]))["wall_s"]
    assert s["change_better"] == 10
    assert s["parent"]["median"] - s["change"]["median"] < s["parent_iqr"]
    assert s["gain_rule_met"] is False


def test_a_slower_change_never_meets_the_gain_rule():
    s = bench_pair.summarize(_pairs(PARENT, [x + 0.25 for x in PARENT]))["wall_s"]
    assert s["change_better"] == 0
    assert s["gain_rule_met"] is False


def test_each_end_to_end_metric_carries_its_bound_and_the_no_regression_check():
    bounds = bench_pair.end_to_end_bounds()
    assert bounds["wall_s"] == 0.25 and bounds["peak_rss_mb"] == 0.1
    assert set(bounds) == {"wall_s", "req_p50_ms", "req_p95_ms", "peak_rss_mb", "setup_s"}

    def summary(change):
        pairs = [{"parent": {"metrics": {"wall_s": b, "peak_rss_mb": 30.0, "other": b}},
                  "change": {"metrics": {"wall_s": a, "peak_rss_mb": r, "other": a}}}
                 for b, a, r in zip(PARENT, change, [33.5] * 5 + [32.5] * 5)]
        return bench_pair.summarize(pairs)

    s = summary([x + 0.25 for x in PARENT])  # median 1.64 <= 1.39 * 1.25
    assert s["wall_s"]["bound"] == 0.25 and s["wall_s"]["within_bound"] is True
    assert s["peak_rss_mb"]["bound"] == 0.1  # median 33.0 <= 30.0 * 1.1
    assert s["peak_rss_mb"]["within_bound"] is True
    assert "bound" not in s["other"] and "within_bound" not in s["other"]
    s = summary([x * 1.3 for x in PARENT])
    assert s["wall_s"]["within_bound"] is False
    s = summary([x * 1.25 for x in PARENT])  # exactly at the bound still passes
    assert s["wall_s"]["within_bound"] is True


def test_written_json_has_pairs_summary_and_layer_rows(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = checkout.name.split("-")[1]  # bench-parent-* or bench-change-*
        calls.append((side, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"tree_hopf.calls": {"parent": 70, "change": 50}[side],
                                "cache.hit_ratio": 0.5}}
        wall = {"parent": 2.0, "change": 1.5}[side] + seed / 100
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": wall}}

    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pair, "export_worktree", lambda dest: None)
    monkeypatch.setattr(bench_pair, "src_lines", lambda rev: {"added": 2, "removed": 5, "net": -3})
    monkeypatch.setattr(bench_pair, "git", lambda *args: "" if args[0] == "status" else "abc")
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--parent", "HEAD~1", "--workload", "suites",
                            "--pairs", "2", "--seconds", "5", "--out", str(out)]) == 0

    report = json.loads(out.read_text())
    assert report["dirty"] is False and report["src_lines"]["net"] == -3
    suites = report["workloads"]["suites"]
    assert [p["first"] for p in suites["pairs"]] == ["parent", "change"]
    assert suites["summary"]["wall_s"]["change_better"] == 2
    assert suites["layers"] == {"tree_hopf.calls": {"parent": 70, "change": 50},
                                "cache.hit_ratio": {"parent": 0.5, "change": 0.5}}
    traced = [c for c in calls if c[4] == 1]
    assert sorted(traced) == [("change", "suites", 1, 5.0, 1), ("parent", "suites", 1, 5.0, 1)]
    assert len(calls) == 2 * 2 + 2


def test_both_sides_run_from_copies_and_the_change_copy_holds_uncommitted_edits(
        tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    files = {"BENCHMARK.json": '{"end_to_end": []}', ".gitignore": "ignored.txt\n",
             "src/kept.py": "committed\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)
    for name, text in {"src/kept.py": "edited\n", "src/new.py": "untracked\n",
                       "ignored.txt": "ignored\n"}.items():
        (repo / name).write_text(text)
    seen = {}

    def fake_run(checkout, workload, seed, seconds, trace=0):
        seen[checkout.name.split("-")[1]] = checkout, {
            p.relative_to(checkout).as_posix(): p.read_text()
            for p in checkout.rglob("*") if p.is_file()}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": 1.0}}

    monkeypatch.setattr(bench_pair, "ROOT", repo)
    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    assert bench_pair.main(["--parent", "HEAD", "--workload", "suites", "--pairs", "1",
                            "--out", str(tmp_path / "bench.json")]) == 0
    for checkout, _ in seen.values():
        assert not checkout.is_relative_to(repo) and not checkout.exists()
    assert seen["parent"][1] == files
    assert seen["change"][1] == {**files, "src/kept.py": "edited\n", "src/new.py": "untracked\n"}
