"""The acceptance gate.

One test per shipped guarantee, numbered test_c01 .. test_c11; the conftest
hook prints a PASS/FAIL verdict line per criterion at the end of the run.
Every comparison in this module is exact: Fraction arithmetic throughout,
equality on frozen linear combinations, byte equality on golden files.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hopftrees.algebra import LinComb
from hopftrees.checks import (
    hex_report_lines,
    suite_duality,
    suite_hopf_axioms,
)
from hopftrees.linsolve import exact_rank
from hopftrees.lyndon_hall import (
    hall_axiom_report,
    hall_forests,
    hall_tree_of_lyndon,
    lyndon_generate,
    pbw_element,
)
from hopftrees.morphisms import (
    composition,
    diagram_check,
    kernel_generators,
    pi,
    zhao_Zstar,
    zhao_eps,
)
from hopftrees.singular_frame import (
    betaU,
    frame_coefficient,
    iterated_integral,
    prop53_check,
)
from hopftrees.tree_hopf import shuffle_target, universal_cocycle_map
from hopftrees.trees import (
    Forest,
    bplus,
    forest,
    labeled_forests_up_to_weight,
    ladder,
    leaf,
)
from hopftrees.words import (
    ADDITIVE,
    compositions,
    concat,
    hoffman_psi,
    hoffman_tau,
    lie_bracket,
    psi_star,
    quasi_shuffle,
    shuffle,
    tau_star,
    word,
    words_of_weight,
    words_up_to_weight,
)

GOLDEN = Path(__file__).parent / "golden"
CHERRY = bplus(forest(leaf(), leaf()))


def _assert_rows(rows):
    assert rows
    failed = [r for r in rows if r.passed is False]
    assert not failed, "failed checks: " + ", ".join(r.name for r in failed)


def test_c01_hopf_axioms_hold_exactly():
    # coassociativity, counit, antipode laws: unlabeled forests to 6
    # vertices, labeled forests to weight 5, shuffle and quasi-shuffle
    # words to weight 5, ordered forests to 5 vertices
    _assert_rows(suite_hopf_axioms(6, 5, 5, 5))


def test_c02_grafting_and_cutting_are_adjoint():
    _assert_rows(suite_duality(5))


def test_c03_hoffman_exponential_is_an_isomorphism():
    for w in words_up_to_weight(5):
        one = LinComb.term(w)
        assert hoffman_psi(hoffman_tau(w)) == one
        assert hoffman_tau(hoffman_psi(w)) == one
    for u in words_up_to_weight(4):
        for v in words_up_to_weight(4):
            if u.weight + v.weight > 5:
                continue
            assert hoffman_tau(shuffle(u, v)) == quasi_shuffle(
                hoffman_tau(u), hoffman_tau(v), ADDITIVE)
    for w in words_up_to_weight(4):
        one = LinComb.term(w)
        assert psi_star(tau_star(w)) == one
        assert tau_star(psi_star(w)) == one


def test_c04_linear_extension_map_laws_and_kernel():
    forests4 = labeled_forests_up_to_weight(4)
    for u in forests4:
        for a in range(1, 5 - u.weight + 1):
            assert pi(forest(bplus(u, a))) == concat(pi(u), word(a))
    for u, v in itertools.product(forests4, repeat=2):
        if u.weight + v.weight > 5:
            continue
        lhs = pi(Forest(u.trees + v.trees))
        rhs = LinComb.zero()
        for wu, cu in pi(u).items():
            for wv, cv in pi(v).items():
                rhs = rhs + shuffle(wu, wv).scale(cu * cv)
        assert lhs == rhs
    gens = kernel_generators(5)
    assert gens
    for g in gens:
        assert pi(g) == LinComb.zero()
    target = shuffle_target(range(1, 5))
    for u in labeled_forests_up_to_weight(4):
        assert universal_cocycle_map(target, u) == pi(u)


def _free_lie_rank(n):
    # independent oracle: expand every full bracketing of every letter
    # composition of weight n and row-reduce
    def bracketings(letters):
        if len(letters) == 1:
            yield LinComb.term(word(letters[0]))
            return
        for i in range(1, len(letters)):
            for left in bracketings(letters[:i]):
                for right in bracketings(letters[i:]):
                    yield lie_bracket(left, right)

    vectors = []
    for parts in compositions(n):
        vectors.extend(bracketings(parts))
    return exact_rank(vectors)


def test_c05_lyndon_hall_correspondence():
    by_weight = {}
    for w in lyndon_generate(6):
        by_weight.setdefault(w.weight, []).append(w)
    counts = [len(by_weight[n]) for n in range(1, 7)]
    assert counts == [1, 1, 2, 3, 6, 9]
    for n in range(1, 7):
        assert _free_lie_rank(n) == len(by_weight[n])
    for n in range(1, 7):
        for w in by_weight[n]:
            assert hall_tree_of_lyndon(w).foliage == w
    report = hall_axiom_report(5)
    assert report
    assert all(ok for _, ok in report)


def test_c06_pbw_monomials_span_the_words():
    for n in range(1, 6):
        forests = hall_forests(n)
        assert len(forests) == 2 ** (n - 1)
        assert exact_rank(pbw_element(u) for u in forests) == 2 ** (n - 1)


def test_c07_zhao_elements_and_their_qsym_image():
    assert zhao_eps(1) == LinComb.term(ladder(2))
    assert zhao_eps(2) == LinComb.term(CHERRY, Fraction(1, 2))
    got = zhao_Zstar(forest(CHERRY))
    want = LinComb.term(composition(1, 1, 1), 2) + LinComb.term(
        composition(2, 1))
    assert got == want


def test_c08_morphism_diagrams():
    for name in ("thm5", "thm5-dual", "propdiag", "propdiag-dual"):
        rows = diagram_check(name, 4)
        assert rows
        bad = [r.probe for r in rows if not r.ok]
        assert not bad, f"{name} differs at {bad}"
    golden = (GOLDEN / "hex_report_w3.txt").read_text().splitlines()
    assert hex_report_lines(3) == golden


def test_c09_frame_coefficients_match_the_integral_oracle():
    for n in range(1, 7):
        for w in words_of_weight(n):
            assert frame_coefficient(w) == iterated_integral(w)
    assert frame_coefficient(word(1)) == 1
    assert frame_coefficient(word(2)) == Fraction(1, 2)
    assert frame_coefficient(word(1, 1)) == Fraction(1, 2)
    assert frame_coefficient(word(1, 2)) == Fraction(1, 3)
    assert frame_coefficient(word(2, 1)) == Fraction(1, 6)


def test_c10_hall_representation_recovers_the_frame():
    for n in range(1, 6):
        assert prop53_check(n), f"frame identity fails at weight {n}"
    beta = betaU()
    for u in labeled_forests_up_to_weight(5):
        if len(u.trees) >= 2:
            assert beta(u) == 0
    assert beta(forest(bplus(forest(leaf(1)), 2))) == Fraction(1, 12)


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "hopftrees", *argv],
                          capture_output=True, text=True)


def test_c11_cli_contract():
    proc = _cli("frame", "--max-weight", "4", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "frame_w4.json").read_text()
    json.loads(proc.stdout)

    proc = _cli("lyndon", "--max-weight", "5")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "lyndon_w5.txt").read_text()

    proc = _cli("hall", "--max-weight", "4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "hall_w4.txt").read_text()

    proc = _cli("check", "--suite", "all", "--max-weight", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("PASS: ")
