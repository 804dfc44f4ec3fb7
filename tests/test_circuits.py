import copy
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revpal.circuits import (
    GATE_KINDS,
    MAX_CIRCUIT_LINES,
    _BLOCK,
    Circuit,
    CircuitParseError,
    Gate,
    _block_text,
    parse_circuit,
    serialize_circuit,
)
from revpal.gates import MpmctGate, enumerate_gates

FIG_OR = ".lines 3\nt -x1 -x2 x3\nt x3\n"


# References and strategies for the differential tests below: the pairwise
# palindrome test, and the formatter that decodes each gate's controls.


def pairwise_palindromic(circuit):
    g = circuit.gates
    k = len(g)
    return all(g[i] == g[k - 1 - i] for i in range(k // 2))


def reference_text(circuit):
    out = [f".lines {circuit.lines}"]
    if circuit.ancilla is not None:
        out.append(f".ancilla {circuit.ancilla}")
    for g in circuit.gates:
        tokens = [g.kind]
        tokens += [("x" if pol else "-x") + str(line) for line, pol in g.controls]
        tokens.append(f"x{g.target}")
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def twin(g):
    """A gate equal to ``g`` that is another object."""
    return Gate(g.kind, g.target, g.controls)


@st.composite
def gates(draw, lines):
    kind = draw(st.sampled_from(GATE_KINDS))
    target = draw(st.integers(1, lines))
    care = draw(st.integers(0, (1 << lines) - 1)) & ~(1 << (target - 1))
    value = draw(st.integers(0, (1 << lines) - 1))
    lines_used = [i for i in range(1, lines + 1) if care >> (i - 1) & 1]
    return Gate(kind, target, {i: bool(value >> (i - 1) & 1) for i in lines_used})


@st.composite
def near_misses(draw, g):
    """A gate that differs from ``g`` only in its kind or in one polarity."""
    controls = dict(g.controls)
    if controls and draw(st.booleans()):
        line = draw(st.sampled_from(sorted(controls)))
        controls[line] = not controls[line]
        return Gate(g.kind, g.target, controls)
    kind = draw(st.sampled_from([k for k in GATE_KINDS if k != g.kind]))
    return Gate(kind, g.target, controls)


@st.composite
def shared_gate_circuits(draw):
    """Circuits on 1..16 lines that hold a stock of gates and near misses of
    them, each used again as the same object or as a twin."""
    lines = draw(st.integers(1, 16))
    stock = draw(st.lists(gates(lines), min_size=1, max_size=4))
    stock += [draw(near_misses(g)) for g in stock]
    uses = draw(st.lists(st.tuples(st.sampled_from(stock), st.booleans()), max_size=16))
    used = stock + [twin(g) if copied else g for g, copied in uses]
    ancilla = draw(st.none() | st.integers(1, lines))
    return Circuit(lines, draw(st.permutations(used)), ancilla)


#: Lines at the edges of the writer's blocks of _BLOCK lines, and the top
#: lines of the widest circuit a file may declare.
EDGE_LINES = (_BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, *range(1017, 1025))


@st.composite
def block_edge_circuits(draw):
    """Circuits on 1..1,024 lines whose gates mostly use lines at block
    edges; some gates have no controls, and some circuits are palindromes."""
    lines = draw(st.sampled_from(EDGE_LINES) | st.integers(1, MAX_CIRCUIT_LINES))
    line = st.sampled_from([i for i in EDGE_LINES if i <= lines]) | st.integers(1, lines)
    built = []
    for _ in range(draw(st.integers(0, 6))):
        target = draw(line)
        controls = draw(st.dictionaries(line, st.booleans(), max_size=10))
        controls.pop(target, None)
        built.append(Gate(draw(st.sampled_from(GATE_KINDS)), target, controls))
    if draw(st.booleans()):
        built += built[-2::-1] if draw(st.booleans()) else built[::-1]
    return Circuit(lines, built, draw(st.none() | st.integers(1, lines)))


@st.composite
def token_sharing_files(draw):
    """``(lines, gate_lines)``: 1..8 gate lines on 2..5 lines, drawn with
    repeats from a stock of up to five.

    The stocked lines reuse a few line numbers in both signs, in the
    canonical spelling or with leading zeros (``x1``, ``-x1``, ``x01``,
    ``-x001``).  In half the files, most lines carry one fault: a line out
    of range, a negated target, a repeated control or the target among the
    controls.
    """
    lines = draw(st.integers(2, 5))
    faults = [None]
    if draw(st.booleans()):
        faults += ["range", "negated", "repeat", "target"]

    def spell(line, positive):
        zeros = draw(st.sampled_from([0, 0, 1, 2]))
        return ("x" if positive else "-x") + "0" * zeros + str(line)

    def gate_line():
        target = draw(st.integers(1, lines))
        others = [i for i in range(1, lines + 1) if i != target]
        controls = draw(
            st.lists(
                st.tuples(st.sampled_from(others), st.booleans()),
                unique_by=lambda c: c[0],
                max_size=3,
            )
        )
        operands = [spell(line, positive) for line, positive in controls]
        fault = draw(st.sampled_from(faults))
        if fault == "range":
            bad = spell(draw(st.sampled_from([0, lines + 1])), draw(st.booleans()))
            operands.insert(draw(st.integers(0, len(operands))), bad)
        elif fault == "repeat":
            line = draw(st.sampled_from(others))
            operands += [spell(line, draw(st.booleans())), spell(line, draw(st.booleans()))]
        elif fault == "target":
            operands.append(spell(target, draw(st.booleans())))
        operands.append(spell(target, fault != "negated"))
        return " ".join([draw(st.sampled_from(GATE_KINDS)), *operands])

    stock = [gate_line() for _ in range(draw(st.integers(1, 5)))]
    return lines, draw(st.lists(st.sampled_from(stock), min_size=1, max_size=8))


def parsed_or_error(text):
    """The gates of ``text``, or the line, column and message of its error."""
    try:
        return list(parse_circuit(text))
    except CircuitParseError as exc:
        return exc.line, exc.column, str(exc).split(": ", 1)[1]


class TestGate:
    def test_controls_normalized(self):
        a = Gate("t", 3, {2: False, 1: False})
        b = Gate("t", 3, [(1, False), (2, False)])
        assert a == b
        assert a.controls == ((1, False), (2, False))

    def test_hashable(self):
        assert len({Gate("t", 1), Gate("t", 1), Gate("v", 1)}) == 2

    def test_target_among_controls(self):
        with pytest.raises(ValueError):
            Gate("t", 2, {2: True})

    def test_duplicate_control(self):
        with pytest.raises(ValueError):
            Gate("t", 3, [(1, True), (1, False)])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("x", 1)

    def test_repr_and_immutability(self):
        g = Gate("t", 3, {2: False, 1: True})
        assert repr(g) == "Gate(kind='t', target=3, controls=((1, True), (2, False)))"
        assert (g.care, g.value) == (0b011, 0b001)
        with pytest.raises(AttributeError):
            g.kind = "v"
        assert pickle.loads(pickle.dumps(g)) == copy.copy(g) == g

    def test_controls_on_lines_past_64(self):
        g = Gate("t", 1, {200: False, 70: True})
        assert g.controls == ((70, True), (200, False))
        assert repr(g) == "Gate(kind='t', target=1, controls=((70, True), (200, False)))"
        circuit = Circuit(200, [g])
        text = serialize_circuit(circuit)
        assert text == ".lines 200\nt x70 -x200 x1\n"
        assert parse_circuit(text) == circuit

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Gate("x", 1), "unknown gate kind 'x'"),
            (lambda: Gate("t", 1, {0: True}), "control lines must be >= 1"),
        ],
        ids=["kind", "control"],
    )
    def test_each_constructor_check_gives_its_reason(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_a_gate_is_the_tuple_of_its_fields(self):
        g = Gate("t", 3, {2: False, 1: True})
        assert g == ("t", 3, 0b011, 0b001) == tuple(g)
        assert hash(g) == hash(("t", 3, 0b011, 0b001))
        kind, target, care, value = g
        assert (kind, target, care, value) == (g.kind, g.target, g.care, g.value)
        assert g._asdict() == {"kind": "t", "target": 3, "care": 0b011, "value": 0b001}
        flank = MpmctGate(3, 3, {1: True})
        assert flank == ("t", 3, 0b001, 0b001, 3)
        assert flank.circuit_gate() == flank[:4]
        assert flank._fields == ("kind", "target", "care", "value", "lines")

    @pytest.mark.parametrize(
        "build",
        [lambda: Circuit(3, [Gate("t", 10**8)]), lambda: MpmctGate(3, 10**8)],
        ids=["circuit", "mpmct"],
    )
    def test_a_far_target_is_refused_without_its_bit(self, build):
        # The line check compares integers: 1 << (10**8 - 1) alone would
        # take 12.5 MB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="x100000000"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_far_line_is_named_quickly(self):
        # Listing the controls walks the set bits, not every line below them.
        started = time.perf_counter()
        with pytest.raises(ValueError, match="uses line x1000000 but the circuit has 3"):
            Circuit(3, [Gate("t", 1, {10**6: True})])
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: Gate("t", 3, [(1.5, True)]), "float"),  # int() would make it control x1
            (lambda: Gate("t", 3, [("2", True)]), "str"),  # int() would make it control x2
            (lambda: Gate("t", 2.0), "float"),
            (lambda: Circuit(2.5), "float"),
            (lambda: Circuit(2.5, [Gate("t", 1)]), "float"),
            (lambda: Circuit("3"), "str"),
            (lambda: Circuit(3, ancilla=1.5), "float"),
        ],
        ids=[
            "float-control",
            "str-control",
            "float-target",
            "float-lines",
            "float-lines-with-gate",
            "str-lines",
            "float-ancilla",
        ],
    )
    def test_a_line_that_is_no_integer_fails_at_construction(self, build, shown):
        with pytest.raises(TypeError, match=f"'{shown}' object cannot be interpreted as an int"):
            build()

    def test_fires_is_the_mask_test(self):
        g = Gate("t", 3, {1: True, 2: False})
        assert [x for x in range(8) if g.fires(x)] == [1, 5]


class TestCircuit:
    def test_line_range_enforced(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate("t", 3)])
        with pytest.raises(ValueError) as err:
            Circuit(2, [Gate("t", 1), Gate("t", 1, {3: True})])
        assert str(err.value) == (
            "gate Gate(kind='t', target=1, controls=((3, True),)) "
            "uses line x3 but the circuit has 2"
        )

    def test_ancilla_range(self):
        with pytest.raises(ValueError):
            Circuit(2, [], ancilla=3)

    def test_empty_is_even_palindrome(self):
        c = Circuit(2)
        assert c.is_palindromic()
        assert c.parity() == "even"

    def test_mirror_by_construction(self):
        g1 = Gate("t", 2, {1: True})
        g2 = Gate("t", 1)
        c = Circuit(2, [g1, g2, g1])
        assert c.is_palindromic()
        assert c.parity() == "odd"

    def test_mirror_violated(self):
        c = Circuit(2, [Gate("t", 2, {1: True}), Gate("t", 1, {2: True})])
        assert not c.is_palindromic()

    def test_v_mirrors_to_v_only(self):
        v = Gate("v", 2, {1: True})
        vdg = Gate("v+", 2, {1: True})
        t = Gate("t", 1)
        assert Circuit(2, [v, t, v]).is_palindromic()
        assert Circuit(2, [v, t, twin(v)]).is_palindromic()
        assert not Circuit(2, [v, t, vdg]).is_palindromic()
        assert not Circuit(2, [vdg, v, t, twin(vdg), v]).is_palindromic()

    def test_circuit_gate_mirrors_an_equal_plain_gate(self):
        flank = MpmctGate(3, 3, {1: False, 2: True}).circuit_gate()
        plain = Gate("t", 3, {1: False, 2: True})
        assert flank is not plain
        assert Circuit(3, [flank, Gate("t", 1), plain]).is_palindromic()
        assert Circuit(3, [plain, flank]).is_palindromic()
        assert not Circuit(3, [flank, Gate("t", 1, {2: True})]).is_palindromic()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_an_mpmct_gate_is_kept_as_its_plain_gate(self, n):
        flank = enumerate_gates(n)
        c = Circuit(n, flank)
        assert all(type(g) is Gate for g in c.gates)
        assert c == Circuit(n, [g.circuit_gate() for g in flank])
        assert parse_circuit(serialize_circuit(c)) == c
        for g in flank:
            mirrored = Circuit(n, [g, Gate("t", 1), g.circuit_gate()])
            assert mirrored.is_palindromic()
            assert parse_circuit(serialize_circuit(mirrored)) == mirrored
        # A line count past the circuit's is not kept either.
        assert Circuit(2, [MpmctGate(5, 1)]).gates == (Gate("t", 1),)

    @given(st.data())
    def test_is_palindromic_is_the_pairwise_definition(self, data):
        circuit = data.draw(shared_gate_circuits())
        flank = list(circuit.gates)
        middle = data.draw(st.lists(gates(circuit.lines), max_size=1))
        mirror = [twin(g) if data.draw(st.booleans()) else g for g in reversed(flank)]
        spoiled = bool(mirror) and data.draw(st.booleans())
        if spoiled:  # a mirrored gate of another kind: t or v+ to v, v to v+
            i = data.draw(st.integers(0, len(mirror) - 1))
            g = mirror[i]
            kind = {"t": "v", "v": "v+", "v+": "v"}[g.kind]
            mirror[i] = Gate(kind, g.target, g.controls)
        built = Circuit(circuit.lines, flank + middle + mirror)
        assert built.is_palindromic() == (not spoiled) == pairwise_palindromic(built)
        assert circuit.is_palindromic() == pairwise_palindromic(circuit)

    def test_reversed(self):
        g1, g2 = Gate("t", 1), Gate("t", 2, {1: False})
        c = Circuit(2, [g1, g2])
        assert c.reversed().gates == (g2, g1)
        assert c.reversed().lines == 2

    def test_has_quantum_gates(self):
        assert not Circuit(2, [Gate("t", 1)]).has_quantum_gates()
        assert Circuit(2, [Gate("v+", 1)]).has_quantum_gates()


class TestParse:
    def test_two_gate_circuit(self):
        c = parse_circuit(FIG_OR)
        assert c.lines == 3
        assert c.ancilla is None
        assert c.gates == (
            Gate("t", 3, {1: False, 2: False}),
            Gate("t", 3),
        )

    def test_controlled_v(self):
        c = parse_circuit(".lines 3\nv -x1 -x2 x3\n")
        assert c.gates == (Gate("v", 3, {1: False, 2: False}),)

    def test_v_dagger(self):
        c = parse_circuit(".lines 2\nv+ x1 x2\n")
        assert c.gates == (Gate("v+", 2, {1: True}),)

    def test_empty_body(self):
        c = parse_circuit(".lines 2\n")
        assert c.lines == 2
        assert len(c) == 0

    def test_comments_and_blank_lines(self):
        text = "# header comment\n.lines 3\n\nt x3  # flip x3\n"
        c = parse_circuit(text)
        assert c.gates == (Gate("t", 3),)

    def test_ancilla_directive(self):
        c = parse_circuit(".lines 4\n.ancilla 4\nt x4 x3\n")
        assert c.ancilla == 4

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("t x1\n")

    def test_error_carries_position(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(".lines 2\nt x1 y2\n")
        assert err.value.line == 2
        assert err.value.column == 6

    def test_line_out_of_range(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(".lines 2\nt x3\n")

    def test_negated_target_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(".lines 2\nt x1 -x2\n")

    def test_target_among_controls_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(".lines 2\nt x2 x2\n")

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            (".lines 2\n.lines 3\nt x3\n", 2, 1, "duplicate .lines"),
            (".lines 3\n.ancilla 3\n  .ancilla 2\n", 3, 3, "duplicate .ancilla"),
            (".lines 2\n.ancilla 5\n", 2, 10, "ancilla line x5 out of range"),
            ("# header\n.ancilla 5\n.lines 2\n", 2, 10, "ancilla line x5 out of range"),
            # Lines end at \r\n and \r as at \n.
            (".lines 2\r\n.ancilla 5\r\n", 2, 10, "ancilla line x5 out of range"),
            (".lines 2\r.ancilla 5\r", 2, 10, "ancilla line x5 out of range"),
        ],
    )
    def test_directive_errors_at_their_position(self, text, line, column, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "gate_line, column, message",
        [
            ("t x1 -x2 -x1 x3", 14, "duplicate control line x1"),
            ("t  x2 -x1 x2", 11, "target line x2 listed among controls"),
            ("t x3 x1 x3 x3", 12, "duplicate control line x3"),
            ("t x1 x4 x2", 6, "line x4 out of range 1..3"),
            ("t x004 x2", 3, "line x4 out of range 1..3"),
            (
                "t x1 x" + "9" * 5000,
                6,
                f"line x{'9' * 20}... (5000 characters) out of range 1..3",
            ),
            ("t x2 -x3", 6, "the target (last token) cannot be negated"),
            ("t", 1, "gate needs a target line"),
            # One control written two ways: the repeat is found all the same.
            ("t x1 x01 x3", 10, "duplicate control line x1"),
            ("t -x001 x1 x3", 12, "duplicate control line x1"),
            # A form feed, NEL and LINE SEPARATOR separate tokens; they do
            # not end the line, though str.splitlines breaks at them.
            ("t x1\fx9", 6, "line x9 out of range 1..3"),
            ("t x1\x85x9", 6, "line x9 out of range 1..3"),
            ("t x1\u2028x9", 6, "line x9 out of range 1..3"),
        ],
    )
    def test_gate_errors_keep_message_and_column(self, gate_line, column, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(f".lines 3\n{gate_line}\n")
        assert (err.value.line, err.value.column) == (2, column)
        assert str(err.value) == f"line 2, column {column}: {message}"

    def test_a_repeated_control_is_named_once(self):
        # One pair per repeat would make a line of 22,000 characters.
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(".lines 3\nt" + " x1" * 2000 + " x2\n")
        assert str(err.value) == "line 2, column 6003: duplicate control line x1"

    @pytest.mark.parametrize(
        "text, column, message",
        [
            (f".lines {MAX_CIRCUIT_LINES + 1}\n", 8, ".lines wants at most 1024"),
            (".lines \u00b2\n", 8, ".lines wants a positive integer, got '\u00b2'"),
            (".lines 2\n.ancilla " + "9" * 5000 + "\n", 10, ".ancilla wants a positive"),
            # A decimal digit outside ASCII is refused, as in a gate token.
            (".lines \u0663\n", 8, ".lines wants a positive integer, got '\u0663'"),
            (".lines 4\n.ancilla \u0663\n", 10, ".ancilla wants a positive integer, got '\u0663'"),
        ],
    )
    def test_directive_numbers_stay_parse_errors(self, text, column, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert err.value.column == column
        assert message in str(err.value)

    @given(
        kind=st.sampled_from(GATE_KINDS),
        lines=st.integers(1, 5),
        data=st.data(),
    )
    def test_constructor_and_parser_share_the_control_rule(self, kind, lines, data):
        # Repeats and the target among the controls are common draws here.
        target = data.draw(st.integers(1, lines))
        pairs = data.draw(st.lists(st.tuples(st.integers(1, lines), st.booleans()), max_size=6))
        tokens = [("x" if pol else "-x") + str(line) for line, pol in pairs]
        try:
            built = Gate(kind, target, pairs)
        except ValueError as exc:
            built = str(exc)
        try:
            [parsed] = parse_circuit(f".lines {lines}\n{kind} {' '.join(tokens)} x{target}\n")
        except CircuitParseError as exc:
            parsed = str(exc).removeprefix(f"line 2, column {exc.column}: ")
        assert parsed == built

    @given(token_sharing_files())
    def test_a_file_parses_as_its_gate_lines_one_by_one(self, case):
        # A control token is read once per file, then reused, so a token
        # read in one gate line must mean the same in every other.
        lines, body = case
        expected = []
        for lineno, gate_line in enumerate(body, start=2):
            alone = parsed_or_error(f".lines {lines}\n{gate_line}\n")
            if isinstance(alone, tuple):
                expected = (lineno, *alone[1:])
                break
            expected += alone
        assert parsed_or_error(f".lines {lines}\n" + "\n".join(body) + "\n") == expected

    def test_a_token_is_read_against_its_own_files_line_count(self):
        # What one file's tokens meant is kept for that file only.
        assert parse_circuit(".lines 5\nt x5 x1\n").gates == (Gate("t", 1, {5: True}),)
        with pytest.raises(CircuitParseError, match=r"line x5 out of range 1\.\.4"):
            parse_circuit(".lines 4\nt x5 x1\n")

    def test_repeated_gate_lines_parse_alike(self):
        text = ".lines 3\nt -x1 x3\nt x2 x1\nt -x1 x3\n"
        c = parse_circuit(text)
        assert c.gates == (
            Gate("t", 3, {1: False}),
            Gate("t", 1, {2: True}),
            Gate("t", 3, {1: False}),
        )
        assert serialize_circuit(c) == text

    def test_unknown_token(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(".lines 2\nq x1\n")


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        c1 = parse_circuit(FIG_OR)
        text = serialize_circuit(c1)
        c2 = parse_circuit(text)
        assert c1 == c2
        assert serialize_circuit(c2) == text

    def test_whitespace_normalized(self):
        messy = ".lines 3\n t   -x2   -x1   x3 \n"
        c = parse_circuit(messy)
        assert serialize_circuit(c) == ".lines 3\nt -x1 -x2 x3\n"

    def test_ancilla_round_trip(self):
        c = Circuit(4, [Gate("t", 3, {4: True})], ancilla=4)
        assert parse_circuit(serialize_circuit(c)) == c

    def test_v_round_trip(self):
        c = Circuit(3, [Gate("v", 3, {1: False}), Gate("v+", 3, {2: True})])
        assert parse_circuit(serialize_circuit(c)) == c

    def test_serialize_costs_what_the_gates_use_not_the_line_count(self):
        c = Circuit(10**9, [Gate("t", 5, {2: False})])
        assert serialize_circuit(c) == ".lines 1000000000\nt -x2 x5\n"

    def test_serialize_cost_follows_the_controls_not_the_highest_line(self):
        # One control far up: the writer jumps to its block, and neither
        # walks nor spells the million lines below it.
        c = Circuit(10**6, [Gate("t", 10**6, {999_999: True})])
        started = time.perf_counter()
        tracemalloc.start()
        try:
            text = serialize_circuit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1
        assert text == ".lines 1000000\nt x999999 x1000000\n"
        assert peak < 2 << 20

    @given(block_edge_circuits())
    def test_serialize_matches_the_formatter_across_block_edges(self, circuit):
        text = serialize_circuit(circuit)
        assert text == reference_text(circuit)
        assert parse_circuit(text) == circuit
        # The block table only saves work: written from an empty table,
        # the bytes are the same.
        _block_text.cache_clear()
        assert serialize_circuit(circuit) == text

    @given(shared_gate_circuits())
    def test_serialize_matches_the_token_by_token_formatter(self, circuit):
        text = serialize_circuit(circuit)
        assert text == reference_text(circuit)
        assert parse_circuit(text) == circuit

    @pytest.mark.parametrize("length", range(8))
    def test_a_short_palindrome_is_written_gate_by_gate(self, length):
        # A palindrome is written from its first half, middle included; the
        # reference renders every gate.  From two gates on, spoiling the
        # last leaves a circuit that differs from its reverse in one gate.
        stock = [Gate("t", 2, {1: False}), Gate("v", 1), Gate("t", 3, {1: True, 2: False})]
        half = stock[: length // 2]
        gates = half + stock[2:3] * (length % 2) + half[::-1]
        spoiled = gates[:-1] + [Gate("v+", 3)] if gates else []
        for c in (Circuit(3, gates), Circuit(3, spoiled, ancilla=3)):
            assert len(c) == length
            text = serialize_circuit(c)
            assert text == reference_text(c)
            assert parse_circuit(text) == c

    @given(st.data())
    def test_a_palindrome_or_near_miss_is_written_gate_by_gate(self, data):
        # Palindromes of length 0..9, odd and even, their mirrored gates
        # the same objects or twins; half of them then get one gate
        # changed into a near miss of itself.
        lines = data.draw(st.integers(1, 8))
        half = data.draw(st.lists(gates(lines), max_size=4))
        middle = data.draw(st.lists(gates(lines), max_size=1))
        built = half + middle + [twin(g) if data.draw(st.booleans()) else g for g in half[::-1]]
        if built and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(built) - 1))
            built[i] = data.draw(near_misses(built[i]))
        c = Circuit(lines, built, data.draw(st.none() | st.integers(1, lines)))
        text = serialize_circuit(c)
        assert text == reference_text(c)
        assert parse_circuit(text) == c

    @given(st.data())
    def test_builder_outputs_are_written_gate_by_gate_and_equal_checked_circuits(self, data):
        # The builders and the parser make their circuits without the
        # public constructor's per-gate check; each must equal the circuit
        # that constructor builds from the same parts.
        from revpal.alternatives import build_ancilla_circuit, build_v_circuit
        from revpal.perm import Permutation
        from revpal.synth import build_palindrome

        n = data.draw(st.integers(min_value=1, max_value=8))
        size = data.draw(st.integers(min_value=1, max_value=1 << (n - 1)))
        points = data.draw(st.permutations(list(range(1 << n))))
        p = Permutation.from_transpositions(
            zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]), 1 << n
        )
        if size & (size - 1) == 0:
            built = [build_palindrome(p)]
        else:
            built = [build_ancilla_circuit(p), build_v_circuit(p)]
        for c in built:
            assert c == Circuit(c.lines, c.gates, c.ancilla)
            text = serialize_circuit(c)
            assert text == reference_text(c)
            parsed = parse_circuit(text)
            assert parsed == c == Circuit(parsed.lines, parsed.gates, parsed.ancilla)

    @given(token_sharing_files(), st.integers(0, 6))
    def test_a_parsed_file_equals_the_checked_circuit(self, case, ancilla):
        lines, body = case
        header = f".lines {lines}\n" + (f".ancilla {ancilla}\n" if ancilla else "")
        try:
            c = parse_circuit(header + "\n".join(body) + "\n")
        except CircuitParseError:
            return
        assert type(c.gates) is tuple
        assert c == Circuit(c.lines, list(c.gates), c.ancilla)

    def test_the_public_constructor_keeps_every_check(self):
        with pytest.raises(ValueError, match="uses line x4 but the circuit has 3"):
            Circuit(3, (Gate("t", 1), Gate("t", 2, {4: True})))
        for ancilla in (0, 4):
            with pytest.raises(ValueError, match=f"ancilla line x{ancilla} out of range"):
                Circuit(3, (), ancilla)
        for lines in (0, -1):
            with pytest.raises(ValueError, match="at least one line"):
                Circuit(lines)

