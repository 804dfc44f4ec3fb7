"""Fuzzing the input boundaries: circuit text, permutation text and argv.

Every input must end in a result or in a documented error: a
``CircuitParseError`` from ``parse_circuit``, a ``ValueError`` from
``parse_permutation``, and one of the exit codes 0-4 from ``main``, with a
one-line ``error:`` reason for exit 1.  No other exception may escape.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revpal.circuits import CircuitParseError, parse_circuit, serialize_circuit
from revpal.cli import main
from revpal.perm import Permutation, parse_permutation

CIRCUIT_TOKENS = [
    ".lines", ".ancilla", "t", "v", "v+", "x1", "x2", "x3", "-x1", "-x2", "-x3",
    "x0", "x4", "x007", "-x", "x", "-", "0", "1", "2", "3", "4", "1024", "1025",
    "#", "# note", "²", "٣", "9" * 30, "x" + "9" * 30, "q",
]

# White space that str.split() and the column count must agree on: tab,
# \x1f (also a line break to str.splitlines()), NBSP, em and ideographic
# space.  A plain space comes half the time, so that many files still parse.
separators = st.just(" ") | st.sampled_from(["\t", "\x1f", "\xa0", "\u2003", "\u3000"])

raw_lines = st.lists(
    st.tuples(separators, st.sampled_from(CIRCUIT_TOKENS) | st.text(max_size=3)), max_size=6
).map(lambda pairs: "".join(map("".join, pairs)))


def spaced(draw, tokens):
    """``tokens`` joined by drawn separators."""
    return tokens[0] + "".join(draw(separators) + tok for tok in tokens[1:])


@st.composite
def headed_texts(draw):
    """A ``.lines`` header, maybe an ``.ancilla``, then mostly gate lines."""
    out = [spaced(draw, [".lines", str(draw(st.integers(1, 4)))])]
    if draw(st.booleans()):
        out.append(spaced(draw, [".ancilla", str(draw(st.integers(1, 5)))]))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["t", "v", "v+"]))
        operands = draw(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 5)), min_size=1, max_size=4
            )
        )
        out.append(spaced(draw, [kind] + [("-x" if neg else "x") + str(i) for neg, i in operands]))
    return "\n".join(out + draw(st.lists(raw_lines, max_size=2)))


circuit_texts = st.one_of(headed_texts(), st.lists(raw_lines, max_size=8).map("\n".join))


def assert_points_at_a_token(text, err):
    """``err`` names a line of ``text`` and a column where a token of it starts.

    Only the text before ``#`` counts.  A file without ``.lines`` is named
    at line 1, column 1, whatever that holds.
    """
    if str(err).endswith(": missing .lines header"):
        assert (err.line, err.column) == (1, 1)
        return
    line = text.splitlines()[err.line - 1].split("#", 1)[0]
    pairs = zip(" " + line, line)  # (character before, character)
    starts = [i + 1 for i, (a, b) in enumerate(pairs) if a.isspace() and not b.isspace()]
    assert err.column in starts


@given(circuit_texts)
def test_parse_circuit_returns_a_round_trip_or_a_parse_error(text):
    try:
        c = parse_circuit(text)
    except CircuitParseError as err:
        assert_points_at_a_token(text, err)
        return
    assert parse_circuit(serialize_circuit(c)) == c


# Spellings that int(), str.isdigit(), str.split() or str.splitlines() read
# otherwise than a circuit file's rules do: leading zeros, signs,
# underscores, non-ASCII digits, \x1c (a line break to splitlines), NBSP
# (white space to the tokenizer), a number past any line count.
HOSTILE_TOKENS = [
    ".lines", ".ancilla", "t", "v+", "x1", "x01", "-x1", "-x", "x\u0663", "+x1", "x1_0",
    "#", "\x1c", "\xa0", "9" * 30, "\n", "2", "(", ")", ",", "0", "1", "1_5", "-0", "\u0661",
]


@given(
    st.sampled_from(["", ".lines 2\n", ".lines 3\nt x1 -x2 x3\n"]),
    st.lists(st.sampled_from(HOSTILE_TOKENS), max_size=24).map(" ".join),
)
def test_hostile_text_reaches_only_the_documented_errors(header, text):
    try:
        c = parse_circuit(header + text)
    except CircuitParseError as err:
        assert_points_at_a_token(header + text, err)
    else:
        assert parse_circuit(serialize_circuit(c)) == c
    try:
        parse_permutation(text)
    except ValueError:
        pass


NUMBERS = st.integers(-2, 20) | st.sampled_from([2**16, 10**12, 10**40])
cycle_texts = st.lists(st.lists(NUMBERS, max_size=4), max_size=3).map(
    lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
)
one_line_texts = st.lists(NUMBERS, max_size=9).map(lambda xs: ", ".join(map(str, xs)))
permutation_texts = st.one_of(
    cycle_texts, one_line_texts, st.text(alphabet="0123456789(), -+_x\t", max_size=16)
)


@given(
    permutation_texts,
    st.none() | st.sampled_from([0, 1, 2, 3, 4, 8, 16, -4, 2**16, 2**17, 10**12]),
)
def test_parse_permutation_returns_a_permutation_or_a_value_error(text, degree):
    try:
        p = parse_permutation(text, degree=degree)
    except ValueError:
        return
    assert isinstance(p, Permutation)
    if degree is not None:
        assert p.degree == degree
    assert parse_permutation(" ".join(map(str, p.image))) == p


FILES = {
    "or.rev": ".lines 3\nt -x1 -x2 x3\nt x3\n",
    "half.rev": ".lines 2\nv x1 x2\n",
    "anc.rev": ".lines 3\n.ancilla 3\nt x1 x3\nt x3 x1\nt x1 x3\n",
    "bad.rev": ".lines 2\nt x5\n",
    "wide.rev": ".lines 70\nt x1 x70\n",
}

ARGV_TOKENS = [
    "classify", "synth", "verify", "census", "simulate", "bogus",
    "--perm", "(0 1)", "(0 7)(1 6)", "4 2 6 0 3 1 5 7", "1 0", "(0 3)(1 2)(4 5)",
    "(0 1 2)", "0 1 2", "(", "",
    "--n", "0", "1", "2", "3", "17", "-1", "99999999999",
    "--mode", "auto", "palindrome", "ancilla", "vgate",
    "--circuit", "--ancilla", "--input", "000", "101", "10", "--all",
    "--semiclassical", "--brute-force", "--json", "-o", "out.rev", "-h",
    *FILES, "missing.rev",
]


@st.composite
def argvs(draw):
    head = draw(st.sampled_from(["classify", "synth", "verify", "census", "simulate"]))
    return [head] + draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@given(argv=argvs())
def test_main_ends_in_a_documented_exit_code(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)  # file names, -o included, resolve in the scratch dir
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
