"""The per-metric summary of scripts/bench_pair.py on synthetic pairs."""

import importlib.util
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
