"""The command-line interface: output shapes, exit codes, golden files,
and byte-for-byte determinism."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from hopftrees import checks, clear_caches, cli, tree_hopf
from hopftrees.checks import MAX_WEIGHTS, SUITES
from hopftrees.cli import COMMAND_MAX_WEIGHTS, main
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


@pytest.mark.parametrize("argv, first", [
    (["lyndon", "--max-weight", "20"], b"f1\n"),
    (["frame", "--max-weight", "12"], b"1 * e(-1) v^1 z^-1\n"),
    (["hall", "--max-weight", "12"], b"f1 | tree=f1 | std=- | E=1*e(-1)\n"),
], ids=["lyndon", "frame", "hall"])
def test_a_stdout_closed_after_the_first_line_exits_1_without_a_traceback(argv, first):
    # each command prints over 200 kB, more than a pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "hopftrees", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_parse_error_exits_2(capsys):
    assert main(["coproduct", "--algebra", "ck", "--input", "[[]"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unbalanced bracket at offset 3\n"


@pytest.mark.parametrize("argv, error", [
    (["pi", "--input", "f²"], "expected digits at offset 1"),
    (["pi", "--input", "f١"], "expected digits at offset 1"),
    (["pi", "--input", "f" + "1" * 5000], "too many digits at offset 1"),
    (["coproduct", "--algebra", "shuffle", "--input", "f²"], "expected digits at offset 1"),
    (["coproduct", "--algebra", "shuffle", "--input", " f1.f²"], "expected digits at offset 5"),
    (["coproduct", "--algebra", "shuffle", "--input", "f1.f" + "2" * 5000],
     "too many digits at offset 4"),
    (["coproduct", "--algebra", "qsym", "--input", "M(1,²)"], "expected digits at offset 4"),
    (["coproduct", "--algebra", "qsym", "--input", " M(" + "3" * 5000 + ")"],
     "too many digits at offset 3"),
])
def test_a_malformed_number_is_a_parse_error(argv, error, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error}\n"


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


@pytest.mark.parametrize("command", ["coproduct", "antipode"])
def test_a_repeated_input_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--algebra", "ck", "--input", "f1", "--input", "f2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"hopftrees: error: {command} needs exactly one --input expression"


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


def _stub_generators(monkeypatch) -> list[int]:
    """Replace what lyndon, hall, zhao and frame compute with stubs that
    record the weights they are asked for, in the returned list."""
    asked = []

    def stub(value):
        return lambda n: asked.append(n) or value

    for name in ("lyndon_words", "hall_set", "zhao_k", "zhao_eps"):
        monkeypatch.setattr(cli, name, stub([]))
    monkeypatch.setattr(cli, "frame_series", stub(SimpleNamespace(
        json_chunks=lambda: iter(["{}"]), iter_lines=lambda: iter([]))))
    return asked


@pytest.mark.parametrize("command", sorted(COMMAND_MAX_WEIGHTS))
def test_generator_commands_run_up_to_their_ceiling(command, monkeypatch, capsys):
    asked = _stub_generators(monkeypatch)
    ceiling = COMMAND_MAX_WEIGHTS[command]
    assert main([command, "--max-weight", str(ceiling)]) == 0
    assert capsys.readouterr().err == ""
    assert max(asked) == ceiling

    asked.clear()
    assert main([command, "--max-weight", str(ceiling + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and asked == []
    assert err == (f"error: {command} runs up to --max-weight {ceiling}, "
                   f"got {ceiling + 1}\n")


def test_every_generator_ceiling_is_above_the_weights_in_use():
    # perfbench runs frame@15, lyndon@17, hall@9 and zhao@7
    in_use = {"frame": 15, "lyndon": 17, "hall": 9, "zhao": 7}
    assert set(COMMAND_MAX_WEIGHTS) == set(in_use)
    assert all(COMMAND_MAX_WEIGHTS[c] > n for c, n in in_use.items())


def test_pi_refuses_too_many_linear_extensions(capsys):
    text = " ".join(f"f{k}" for k in range(1, 12))
    start = time.perf_counter()
    assert main(["pi", "--input", text]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a forest of 11 vertices with more than 1,000,000 "
                   "linear extensions is refused\n")


@pytest.mark.parametrize("algebra, text", [
    ("qsym", "M(" + ",".join(["1"] * 21) + ")"),
])
def test_antipode_refuses_a_word_over_the_contraction_limit(algebra, text, capsys):
    start = time.perf_counter()
    assert main(["antipode", "--algebra", algebra, "--input", text]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a word of 21 letters, with 2^20 contractions, is refused; "
                   "the limit is 20 letters\n")


def _ladder_text(n):
    return "[" * n + "]" * n


def test_ordered_coproduct_of_twenty_equal_trees_is_refused(capsys):
    # the ordered table of k copies of [[]] grows about 2.6x per copy
    assert tree_hopf.MAX_TERM_VERTICES == 2_300_000
    start = time.perf_counter()
    assert main(["coproduct", "--algebra", "foissy", "--input", " ".join(["[[]]"] * 20)]) == 1
    assert time.perf_counter() - start < 20
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a split table of 95834 terms of 24 vertices is refused; "
                   "the limit is 2300000 vertices in all\n")


@pytest.mark.parametrize("algebra, text, terms", [
    ("foissy", " ".join(["[[]]"] * 6), 377),
    ("foissy", "[" + ",".join(["[[]]"] * 6) + "]", 378),
    ("ck", " ".join(["[[]]"] * 6), 28),
    ("ck", "[" + ",".join(["[[]]"] * 6) + "]", 29),
])
def test_coproduct_just_inside_and_outside_a_lowered_term_limit(algebra, text, terms,
                                                                monkeypatch, capsys):
    # the whole table is the heaviest row: its terms each hold every vertex
    vertices = text.count("[")
    _accepted_at_and_refused_below(["coproduct", "--algebra", algebra, "--input", text],
                                   terms, terms * vertices,
                                   f"a split table of {terms} terms of {vertices} vertices",
                                   monkeypatch, capsys)


def _accepted_at_and_refused_below(argv, terms, budget, refused, monkeypatch, capsys):
    """argv prints its terms from cold caches under a budget of so many
    vertices, and one vertex below it is refused, naming what it built."""
    clear_caches()
    monkeypatch.setattr(tree_hopf, "MAX_TERM_VERTICES", budget)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out.count("*"), err) == (terms, "")
    clear_caches()
    monkeypatch.setattr(tree_hopf, "MAX_TERM_VERTICES", budget - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {refused} is refused; the limit is {budget - 1} vertices in all\n"


@pytest.mark.parametrize("command, algebra, text, terms, budget, refused", [
    # the sum for one tree's antipode
    ("antipode", "ck", _ladder_text(5), 7, 35, "an antipode of 7 terms of 5 vertices"),
    ("antipode", "foissy", _ladder_text(5), 16, 80, "an antipode of 16 terms of 5 vertices"),
    # the product of two ladders' antipodes, 3 x 5 or 4 x 8 terms before they merge
    ("antipode", "ck", _ladder_text(3) + " " + _ladder_text(4), 11, 105,
     "an antipode product of 15 terms of 7 vertices"),
    ("antipode", "foissy", _ladder_text(3) + " " + _ladder_text(4), 32, 224,
     "an antipode product of 32 terms of 7 vertices"),
    # a branch multiset of 2 + 1 equal branches: 3 x 2 terms of 5 + 1 vertices
    ("coproduct", "gl", "[[],[],[[]]]", 6, 36, "a coproduct of 6 terms of 6 vertices"),
], ids=["tree-ck", "tree-foissy", "forest-ck", "forest-foissy", "gl"])
def test_just_inside_and_outside_a_lowered_vertex_budget(command, algebra, text, terms, budget,
                                                         refused, monkeypatch, capsys):
    _accepted_at_and_refused_below([command, "--algebra", algebra, "--input", text],
                                   terms, budget, refused, monkeypatch, capsys)


def test_gl_coproduct_of_many_equal_branches_is_summed_by_multiplicity(capsys):
    start = time.perf_counter()
    assert main(["coproduct", "--algebra", "gl", "--input", "[" + ",".join(["[]"] * 24) + "]"]) == 0
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (out.count("*"), err) == (25, "")


def test_gl_coproduct_over_the_vertex_budget_is_refused_up_front(capsys):
    # 2^17 terms of 19 vertices, one per subset of the distinct leaves
    start = time.perf_counter()
    leaves = ",".join(f"f{i}" for i in range(1, 18))
    assert main(["coproduct", "--algebra", "gl", "--input", f"[{leaves}]"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a coproduct of 131072 terms of 19 vertices is refused; "
                   "the limit is 2300000 vertices in all\n")


PLANAR_PAIR = ["product", "--algebra", "planar", "--input", "[[],[],[]]", "--input", "[[[]],[]]"]


def test_planar_product_just_inside_and_outside_a_lowered_vertex_limit(monkeypatch, capsys):
    # 4 distinct shuffles of the branches, each a tree of 4 + 4 - 1 vertices
    monkeypatch.setattr(tree_hopf, "MAX_PLANAR_PRODUCT_VERTICES", 28)
    assert main(PLANAR_PAIR) == 0
    out, err = capsys.readouterr()
    assert (out.count("*"), err) == (4, "")
    monkeypatch.setattr(tree_hopf, "MAX_PLANAR_PRODUCT_VERTICES", 27)
    assert main(PLANAR_PAIR) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a product of 4 terms of 7 vertices is refused; "
                   "the limit is 27 vertices in all\n")


def _planar_text(branch_sizes):
    return "[" + ",".join(_ladder_text(n) for n in branch_sizes) + "]"


def test_planar_product_of_long_branches_is_refused_at_once(capsys):
    # 8 + 8 distinct ladder branches of 150-165 vertices: 12,870 shuffles
    # of 2,521 vertices each, 65 MB of output under the old branch count
    t, s = _planar_text(range(150, 166, 2)), _planar_text(range(151, 166, 2))
    start = time.perf_counter()
    assert main(["product", "--algebra", "planar", "--input", t, "--input", s]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a product of 12870 terms of 2521 vertices is refused; "
                   "the limit is 20000000 vertices in all\n")


def test_planar_product_of_equal_long_branches_is_one_term(capsys):
    t = _planar_text([150] * 8)
    assert main(["product", "--algebra", "planar", "--input", t, "--input", t]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("12870*" + _planar_text([150] * 16) + "\n", "")


def test_shuffle_antipode_at_the_contraction_limit_is_one_term(capsys):
    letters = [f"f{k}" for k in range(1, 21)]
    start = time.perf_counter()
    assert main(["antipode", "--algebra", "shuffle", "--input", ".".join(letters)]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "1*" + ".".join(reversed(letters)) + "\n"


def test_shuffle_antipode_over_the_contraction_limit_is_one_term(capsys):
    letters = ["f1"] * 21
    start = time.perf_counter()
    assert main(["antipode", "--algebra", "shuffle", "--input", ".".join(letters)]) == 0
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert (out, err) == ("-1*" + ".".join(letters) + "\n", "")


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    assert main(["lyndon", "--max-weight", "2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["lyndon", "--max-weight", "2"]) == 0
    assert main(["product", "--algebra", "ck", "--input", "f1", "--input", "f2"]) == 0
    assert capsys.readouterr().out == "f1\nf2\n" * 2 + "1*f1 f2\n"
    assert built == []


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    """Appended --input lists and subparser defaults do not carry over
    from one call to the next."""
    for argv in (["product", "--algebra", "ck", "--input", "f1", "--input", "f2[f3]"],
                 ["product", "--algebra", "ck", "--input", "f1"],
                 ["coproduct", "--algebra", "shuffle", "--input", "f1.f2"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        if code == 2:
            assert err.startswith("usage: ")
            assert err.splitlines()[-1] == fresh.stderr.splitlines()[-1] == (
                "hopftrees: error: product needs exactly two --input expressions")


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
    for algebra in ("ck", "foissy"):
        assert main(["coproduct", "--algebra", algebra, "--input", deep]) == 0
        out = capsys.readouterr().out
        assert out.count("(x)") == MAX_PARSE_DEPTH + 1, algebra


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


def test_hopf_axioms_golden():
    proc = run_cli("check", "--suite", "hopf-axioms", "--max-weight", "4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "hopf_axioms_w4.txt").read_text()


def test_antipodes_golden(capsys):
    out = []
    for algebra, text in [("qsym", "M(1,1,1,1,1,1,1,1)"), ("qsym", "M(2,1,3,1,2)"),
                          ("qshuffle", "f1.f2.f1.f3.f2.f1.f1"),
                          ("shuffle", "f1.f2.f3.f1.f2.f3"),
                          ("planar", "[f1,[f2],f3,[[],[]]]")]:
        assert main(["antipode", "--algebra", algebra, "--input", text]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / "antipodes.txt").read_text()


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
