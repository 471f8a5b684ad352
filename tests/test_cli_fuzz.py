"""The CLI's error contract under fuzzing: every command line drawn from the
three text grammars, and mutated, either exits 0 with output on stdout or
exits 1 or 2 with one ``error:`` line on stderr and nothing on stdout."""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hopftrees.checks import ALGEBRAS, SUITES
from hopftrees.cli import main
from hopftrees.trees import MAX_PARSE_DEPTH

# mostly valid numbers; else 0 and -1, over-long, non-ASCII or empty
BAD_NUMBERS = ["0", "-1", "9" * 30, "1" * 5000, "²", "١", ""]
numbers = st.sampled_from(["1", "2", "3"] * 4 + BAD_NUMBERS)
labels = numbers.map("f".__add__)
trees = st.recursive(
    st.one_of(st.just("[]"), labels),
    lambda kids: st.builds("{}[{}]".format, st.one_of(st.just(""), labels),
                           st.lists(kids, min_size=1, max_size=3).map(",".join)),
    max_leaves=3)
forests = st.one_of(st.just("I"), st.lists(trees, max_size=2).map(" ".join))
words = st.one_of(st.just("1"), st.lists(labels, min_size=1, max_size=4).map(".".join))
compositions = st.lists(numbers, max_size=4).map(",".join).map("M({})".format)
GRAMMARS = {"ck": forests, "foissy": forests, "gl": trees, "planar": trees,
            "shuffle": words, "qshuffle": words, "qsym": compositions}


def _deep(depth: int, labeled: bool) -> str:
    """A ladder of depth vertices, labeled f1 or unlabeled."""
    head, leaf = ("f1[", "f1") if labeled else ("[", "[]")
    return head * (depth - 1) + leaf + "]" * (depth - 1)


deep = st.builds(_deep, st.sampled_from([MAX_PARSE_DEPTH, MAX_PARSE_DEPTH + 1]), st.booleans())


@st.composite
def mutated(draw, texts):
    """A drawn text as it is, or with one character dropped or inserted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    inserted = draw(st.sampled_from("[],. \t()fIM1²"))
    return draw(st.sampled_from([text, text, text[:i] + text[i + 1:],
                                 text[:i] + inserted + text[i:]]))


@st.composite
def operations(draw):
    command = draw(st.sampled_from(["coproduct", "antipode", "product"]))
    algebra = draw(st.sampled_from(sorted(ALGEBRAS)))
    texts = st.one_of(GRAMMARS[algebra], GRAMMARS[algebra], trees, words, compositions)
    if command != "product" or algebra != "gl":
        # a gl product attaches each branch of one tree at every vertex of
        # the other, so one deep factor makes it large
        texts = st.one_of(texts, deep)
    wanted = 2 if command == "product" else 1
    count = draw(st.sampled_from([wanted] * 5 + [3 - wanted]))
    inputs = [draw(mutated(texts)) for _ in range(count)]
    return [command, "--algebra", algebra] + [a for x in inputs for a in ("--input", x)]


argvs = st.one_of(
    operations(),
    st.builds(lambda x: ["pi", "--input", x], mutated(st.one_of(forests, deep, words))),
    st.builds(lambda command, w: command + ["--max-weight", w],
              st.sampled_from([["lyndon"], ["hall"], ["zhao"], ["frame"],
                               ["frame", "--format", "json"],
                               *(["check", "--suite", s] for s in [*SUITES, "all"])]),
              st.sampled_from(["1", "2", "3"] * 4 + ["99"] + BAD_NUMBERS)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
@example(["coproduct", "--algebra", "ck", "--input", _deep(MAX_PARSE_DEPTH + 1, False)])
@example(["pi", "--input", _deep(MAX_PARSE_DEPTH, True)])
def test_every_command_line_keeps_the_error_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        assert out, argv
    else:
        assert status in (1, 2), (argv, status)
        assert out == "", argv
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]], argv
