import pytest

from revpal.circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    parse_circuit,
    serialize_circuit,
)

FIG_OR = ".lines 3\nt -x1 -x2 x3\nt x3\n"


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


class TestCircuit:
    def test_line_range_enforced(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate("t", 3)])
        with pytest.raises(ValueError):
            Circuit(2, [Gate("t", 1, {3: True})])

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
        assert not Circuit(2, [v, t, vdg]).is_palindromic()

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
        ],
    )
    def test_directive_errors_at_their_position(self, text, line, column, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert message in str(err.value)

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
