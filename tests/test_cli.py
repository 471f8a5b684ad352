"""The command-line interface: output shapes, exit codes, golden files,
and byte-for-byte determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopftrees import checks
from hopftrees.checks import MAX_WEIGHTS, SUITES
from hopftrees.cli import main
from hopftrees.trees import MAX_PARSE_DEPTH

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hopftrees", *argv],
        capture_output=True, text=True)
    return proc


# ---------------------------------------------------------------------------
# in-process subcommands


def test_product_ck(capsys):
    assert main(["product", "--algebra", "ck",
                 "--input", "f1", "--input", "f2"]) == 0
    assert capsys.readouterr().out == "1*f1 f2\n"


def test_coproduct_shuffle(capsys):
    assert main(["coproduct", "--algebra", "shuffle", "--input", "f1.f2"]) == 0
    out = capsys.readouterr().out
    assert out == "1*1 (x) f1.f2 + 1*f1 (x) f2 + 1*f1.f2 (x) 1\n"


def test_antipode_quasi_shuffle(capsys):
    assert main(["antipode", "--algebra", "qshuffle", "--input", "f1.f1"]) == 0
    assert capsys.readouterr().out == "1*f2 + 1*f1.f1\n"


def test_pi_shuffles_the_forest(capsys):
    assert main(["pi", "--input", "f1 f2"]) == 0
    assert capsys.readouterr().out == "1*f1.f2 + 1*f2.f1\n"


def test_zhao_elements(capsys):
    assert main(["zhao", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == (
        "k1 = 1*[[]]\n"
        "eps1 = 1*[[]]\n"
        "k2 = 1/2*[[],[]] + 1*[[[]]]\n"
        "eps2 = 1/2*[[],[]]\n"
    )


def test_qsym_product(capsys):
    assert main(["product", "--algebra", "qsym",
                 "--input", "M(1)", "--input", "M(1)"]) == 0
    assert capsys.readouterr().out == "1*M(2) + 2*M(1,1)\n"


def test_qsym_coproduct(capsys):
    assert main(["coproduct", "--algebra", "qsym", "--input", "M(2,1)"]) == 0
    assert capsys.readouterr().out == (
        "1*M() (x) M(2,1) + 1*M(2) (x) M(1) + 1*M(2,1) (x) M()\n")


def test_qsym_antipode(capsys):
    assert main(["antipode", "--algebra", "qsym", "--input", "M(1,2)"]) == 0
    assert capsys.readouterr().out == "1*M(3) + 1*M(2,1)\n"


def test_gl_antipode(capsys):
    assert main(["antipode", "--algebra", "gl", "--input", "[[],[]]"]) == 0
    assert capsys.readouterr().out == "1*[[],[]] + 2*[[[]]]\n"


def test_planar_diamond_unit(capsys):
    assert main(["product", "--algebra", "planar",
                 "--input", "[]", "--input", "[[]]"]) == 0
    assert capsys.readouterr().out == "1*[[]]\n"


def test_foissy_antipode(capsys):
    assert main(["antipode", "--algebra", "foissy", "--input", "[] [[]]"]) == 0
    assert capsys.readouterr().out == "-1*[] [] [] + 1*[[]] []\n"


def test_foissy_coproduct(capsys):
    assert main(["coproduct", "--algebra", "foissy", "--input", "[] []"]) == 0
    assert capsys.readouterr().out == (
        "1*I (x) [] [] + 2*[] (x) [] + 1*[] [] (x) I\n")


def test_lyndon_listing(capsys):
    assert main(["lyndon", "--max-weight", "3"]) == 0
    assert capsys.readouterr().out == "f1\nf2\nf3\nf2.f1\n"


def test_hall_listing(capsys):
    assert main(["hall", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == (
        "f1 | tree=f1 | std=- | E=1*e(-1)\n"
        "f2 | tree=f2 | std=- | E=1*e(-2)\n"
    )


def test_frame_text(capsys):
    assert main(["frame", "--max-weight", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "1 * e(-1) v^1 z^-1\n"
        "1/2 * e(-2) v^2 z^-1\n"
        "1/2 * e(-1)e(-1) v^2 z^-2\n"
    )


def test_check_suite_passes(capsys):
    assert main(["check", "--suite", "all", "--max-weight", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("PASS: ")
    assert "(2 informational)" in out.splitlines()[-1]


# ---------------------------------------------------------------------------
# exit codes


def test_parse_error_exits_2(capsys):
    assert main(["coproduct", "--algebra", "ck", "--input", "[[]"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unbalanced bracket at offset 3\n"


def test_domain_error_exits_1(capsys):
    assert main(["antipode", "--algebra", "gl", "--input", "f1"]) == 1
    err = capsys.readouterr().err
    assert "unlabeled root" in err


def test_pi_needs_labels(capsys):
    assert main(["pi", "--input", "[]"]) == 1
    assert "fully labeled" in capsys.readouterr().err


def test_product_needs_two_inputs():
    with pytest.raises(SystemExit) as exc:
        main(["product", "--algebra", "ck", "--input", "f1"])
    assert exc.value.code == 2


def test_unknown_algebra_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coproduct", "--algebra", "nope", "--input", "f1"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lyndon", "--max-weight", "-1"],
    ["hall", "--max-weight", "0"],
    ["zhao", "--max-weight", "0"],
    ["frame", "--max-weight", "0"],
    ["check", "--suite", "prop53", "--max-weight", "-3"],
])
def test_max_weight_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"argument --max-weight: must be >= 1, got {argv[-1]}")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_registered_suite_is_a_choice(suite, capsys):
    assert main(["check", "--suite", suite, "--max-weight", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS: ")


def _stub_suites(monkeypatch):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda n: [checks.CheckRow("stub", True, f"{n}")])


@pytest.mark.parametrize("suite", [*sorted(SUITES), "all"])
def test_check_runs_up_to_the_suite_ceiling(suite, monkeypatch, capsys):
    _stub_suites(monkeypatch)
    ceiling = min(MAX_WEIGHTS.values()) if suite == "all" else MAX_WEIGHTS[suite]
    assert main(["check", "--suite", suite, "--max-weight", str(ceiling)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("PASS: ") and err == ""

    assert main(["check", "--suite", suite, "--max-weight", str(ceiling + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: suite {suite!r} runs up to --max-weight {ceiling}, "
                   f"got {ceiling + 1}\n")


def test_every_suite_has_a_ceiling_above_the_weights_in_use():
    assert set(MAX_WEIGHTS) == set(SUITES)
    # the prop53 golden file is weight 8; perfbench runs every suite at <= 7
    assert min(MAX_WEIGHTS.values()) >= 8


def test_a_huge_check_weight_is_refused_at_once(monkeypatch, capsys):
    _stub_suites(monkeypatch)
    assert main(["check", "--suite", "pi-kernel",
                 "--max-weight", "99999999999999999999"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_pi_refuses_too_many_linear_extensions(capsys):
    text = " ".join(f"f{k}" for k in range(1, 12))
    start = time.perf_counter()
    assert main(["pi", "--input", text]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a forest of 11 vertices with more than 1,000,000 "
                   "linear extensions is refused\n")


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nope", "--max-weight", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_deep_nesting_is_a_parse_error():
    deep = "[" * 3000 + "]" * 3000
    proc = run_cli("coproduct", "--algebra", "ck", "--input", deep)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: tree nested deeper than {MAX_PARSE_DEPTH} "
                           f"levels at offset {MAX_PARSE_DEPTH}\n")


def test_nesting_at_the_limit_is_accepted(capsys):
    deep = "[" * MAX_PARSE_DEPTH + "]" * MAX_PARSE_DEPTH
    assert main(["coproduct", "--algebra", "ck", "--input", deep]) == 0
    out = capsys.readouterr().out
    assert out.count("(x)") == MAX_PARSE_DEPTH + 1


# ---------------------------------------------------------------------------
# golden files and determinism


def test_frame_json_golden():
    proc = run_cli("frame", "--max-weight", "4", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "frame_w4.json").read_text()
    payload = json.loads(proc.stdout)
    assert payload["max_weight"] == 4
    assert len(payload["terms"]) == 15


def test_lyndon_golden():
    proc = run_cli("lyndon", "--max-weight", "5")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "lyndon_w5.txt").read_text()


def test_hall_golden():
    proc = run_cli("hall", "--max-weight", "4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "hall_w4.txt").read_text()


def test_prop53_golden():
    proc = run_cli("check", "--suite", "prop53", "--max-weight", "8")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "prop53_w8.txt").read_text()


def test_output_is_deterministic():
    first = run_cli("frame", "--max-weight", "4", "--format", "json")
    second = run_cli("frame", "--max-weight", "4", "--format", "json")
    assert first.stdout == second.stdout
    assert run_cli("hall", "--max-weight", "3").stdout == run_cli(
        "hall", "--max-weight", "3").stdout
