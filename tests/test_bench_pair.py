"""The per-metric summary and the written JSON of scripts/bench_pair.py, on
synthetic pairs and a stubbed runner."""

import importlib.util
import json
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


def test_written_json_has_pairs_summary_and_layer_rows(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout != bench_pair.ROOT else "change"
        calls.append((side, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"tree_hopf.calls": {"parent": 70, "change": 50}[side],
                                "cache.hit_ratio": 0.5}}
        wall = {"parent": 2.0, "change": 1.5}[side] + seed / 100
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": wall}}

    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pair, "clear_bytecode", lambda checkout: None)
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
