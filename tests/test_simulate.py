import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from revpal import cli, simulate
from revpal.alternatives import build_ancilla_circuit, build_v_circuit
from revpal.circuits import Circuit, Gate, serialize_circuit
from revpal.cli import main
from revpal.gates import enumerate_gates
from revpal.perm import Permutation, compose
from revpal.simulate import (
    SimulationError,
    classical_readout,
    equivalent,
    equivalent_with_ancilla,
    is_classical,
    simulate_all,
    simulate_classical,
    simulate_semiclassical,
    truth_table,
)
from revpal.simulate import _outputs, _simulate_columns, _swap_lanes, _words
from revpal.synth import build_palindrome

# Update x3 with x1 or x2: fully negative-controlled flip, then plain flip.
OR_CIRCUIT = Circuit(3, [Gate("t", 3, {1: False, 2: False}), Gate("t", 3)])


def random_toffoli_circuit(rng, lines, length):
    gates = []
    for _ in range(length):
        target = rng.randint(1, lines)
        controls = {
            line: rng.random() < 0.5
            for line in range(1, lines + 1)
            if line != target and rng.random() < 0.5
        }
        gates.append(Gate("t", target, controls))
    return Circuit(lines, gates)


def bit_sliced_runs(circuit, run=_outputs):
    """The gates each bit-sliced evaluator call runs while ``run`` reads
    ``circuit``: one tuple per ``_simulate_columns`` call, in call order,
    up to the gate where that call stopped."""
    runs = []

    def record(lines, gates, *start):
        ran = []
        runs.append(ran)
        return _simulate_columns(lines, (ran.append(g) or g for g in gates), *start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_simulate_columns", record)
        run(circuit)
    return [tuple(ran) for ran in runs]


class TestClassical:
    def test_or_circuit_zero_input(self):
        assert simulate_classical(OR_CIRCUIT, 0) == 0

    def test_or_circuit_x1_set(self):
        # x=1 means x1=1: the control fails, the plain flip fires: x3 set.
        assert simulate_classical(OR_CIRCUIT, 1) == 5

    def test_or_circuit_full_table(self):
        expected = [x ^ (4 if x & 3 else 0) for x in range(8)]
        assert truth_table(OR_CIRCUIT) == Permutation(expected)

    def test_empty_circuit_is_identity(self):
        assert truth_table(Circuit(3)).is_identity()

    def test_input_range(self):
        with pytest.raises(ValueError):
            simulate_classical(OR_CIRCUIT, 8)

    def test_v_rejected(self):
        with pytest.raises(SimulationError):
            simulate_classical(Circuit(1, [Gate("v", 1)]), 0)

    def test_truth_table_is_bijection(self):
        rng = random.Random(2)
        for _ in range(25):
            c = random_toffoli_circuit(rng, rng.randint(1, 4), rng.randint(0, 10))
            truth_table(c)  # Permutation construction validates bijectivity

    def test_reversal_cancels(self):
        rng = random.Random(4)
        for _ in range(25):
            c = random_toffoli_circuit(rng, 3, rng.randint(0, 8))
            both = Circuit(3, c.gates + c.reversed().gates)
            assert truth_table(both).is_identity()


class TestSemiclassical:
    def test_two_half_flips_make_a_not(self):
        c = Circuit(1, [Gate("v", 1), Gate("v", 1)])
        cells = simulate_semiclassical(c, 0)
        assert cells == (2,)
        assert classical_readout(cells) == 1

    def test_single_half_flip_is_not_classical(self):
        cells = simulate_semiclassical(Circuit(1, [Gate("v", 1)]), 0)
        assert cells == (1,)
        assert not is_classical(cells)
        with pytest.raises(SimulationError):
            classical_readout(cells)

    def test_v_not_v_cancels(self):
        c = Circuit(1, [Gate("v", 1), Gate("t", 1), Gate("v", 1)])
        assert classical_readout(simulate_semiclassical(c, 0)) == 0

    def test_v_dagger_undoes_v(self):
        c = Circuit(1, [Gate("v", 1), Gate("v+", 1)])
        assert simulate_semiclassical(c, 0) == (0,)

    def test_controls_respect_polarity(self):
        c = Circuit(2, [Gate("v", 2, {1: True}), Gate("v", 2, {1: True})])
        assert classical_readout(simulate_semiclassical(c, 0)) == 0
        assert classical_readout(simulate_semiclassical(c, 1)) == 3

    def test_input_range(self):
        c = Circuit(2, [Gate("v", 1)])
        for x in (4, 5, 1 << 40):
            with pytest.raises(ValueError, match=f"^input {x} out of range for 2 lines$"):
                simulate_semiclassical(c, x)

    def test_non_classical_control_read_rejected(self):
        c = Circuit(2, [Gate("v", 1), Gate("t", 2, {1: True})])
        with pytest.raises(SimulationError):
            simulate_semiclassical(c, 0)

    def test_agrees_with_classical_on_toffoli_circuits(self):
        rng = random.Random(6)
        for _ in range(30):
            c = random_toffoli_circuit(rng, 3, rng.randint(0, 8))
            for x in range(8):
                cells = simulate_semiclassical(c, x)
                assert classical_readout(cells) == simulate_classical(c, x)

    def test_same_target_gates_commute(self):
        rng = random.Random(8)
        for _ in range(30):
            target = rng.randint(1, 3)
            gates = []
            for _ in range(6):
                controls = {
                    line: rng.random() < 0.5
                    for line in range(1, 4)
                    if line != target and rng.random() < 0.5
                }
                gates.append(Gate("t", target, controls))
            shuffled = gates[:]
            rng.shuffle(shuffled)
            assert truth_table(Circuit(3, gates)) == truth_table(Circuit(3, shuffled))


class TestBridge:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gate_circuit_matches_gate_permutation(self, n):
        for g in enumerate_gates(n):
            c = Circuit(n, [g.circuit_gate()])
            assert truth_table(c) == g.permutation()


class TestEquivalence:
    def test_single_not_gate(self):
        c = Circuit(3, [Gate("t", 3)])
        p = Permutation.from_cycles([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
        assert equivalent(c, p)

    def test_empty_vs_identity(self):
        assert equivalent(Circuit(3), Permutation.identity(8))

    def test_mismatch_detected(self):
        c = Circuit(3, [Gate("t", 3)])
        assert not equivalent(c, Permutation.identity(8))

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            equivalent(Circuit(3), Permutation.identity(4))

    def test_simulation_error_counts_as_nonequivalent(self):
        c = Circuit(2, [Gate("v", 1), Gate("t", 2, {1: True})])
        assert not equivalent(c, Permutation.identity(4))

    def test_unpaired_v_counts_as_nonequivalent(self):
        c = Circuit(1, [Gate("v", 1)])
        assert not equivalent(c, Permutation.identity(2))

    def test_ancilla_equivalence(self):
        # CNOT chain through the ancilla: x2 ^= x1 via the spare line x3.
        c = Circuit(
            3,
            [
                Gate("t", 3, {1: True}),
                Gate("t", 2, {3: True}),
                Gate("t", 3, {1: True}),
            ],
            ancilla=3,
        )
        p = truth_table(Circuit(2, [Gate("t", 2, {1: True})]))
        assert equivalent_with_ancilla(c, p)

    def test_ancilla_not_restored_detected(self):
        c = Circuit(3, [Gate("t", 3, {1: True})], ancilla=3)
        assert not equivalent_with_ancilla(c, Permutation.identity(4))

    def test_ancilla_line_in_the_middle(self):
        # Ancilla on line 2, untouched; data lines 1 and 3 swap via CNOTs.
        c = Circuit(
            3,
            [
                Gate("t", 3, {1: True}),
                Gate("t", 1, {3: True}),
                Gate("t", 3, {1: True}),
            ],
            ancilla=2,
        )
        swap = Permutation([0, 2, 1, 3])
        assert equivalent_with_ancilla(c, swap)

    def test_ancilla_requires_a_marker(self):
        with pytest.raises(ValueError):
            equivalent_with_ancilla(Circuit(3), Permutation.identity(4))
        assert equivalent_with_ancilla(Circuit(3, ancilla=3), Permutation.identity(4))

    def test_ancilla_degree_mismatch_rejected(self):
        with pytest.raises(
            ValueError, match="^circuit on 3 lines with one ancilla cannot match degree 8$"
        ):
            equivalent_with_ancilla(Circuit(3, ancilla=3), Permutation.identity(8))

    def test_dirty_ancilla_inputs_are_unconstrained(self):
        # Acts as the identity whenever the ancilla is clean, but scrambles
        # the data line when it is not; only the clean rows count.
        c = Circuit(2, [Gate("t", 1, {2: True})], ancilla=2)
        assert equivalent_with_ancilla(c, Permutation.identity(2))


class TestBitslicedScale:
    def test_palindrome_at_twelve_lines(self):
        # 2**10 transpositions make 87,339 gates; the per-input oracles would
        # need minutes for the 4096 inputs.
        rng = random.Random(12)
        points = rng.sample(range(1 << 12), 2 * (1 << 10))
        p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 12)
        circuit = build_palindrome(p)
        assert equivalent(circuit, p)
        swap = Permutation.from_cycles([points[:2]], 1 << 12)
        assert not equivalent(circuit, compose(p, swap))


class TestLineCeiling:
    """Sixteen data lines and an ancilla: one line past ``simulate_all``."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = random.Random(17)
        points = rng.sample(range(1 << 16), 6)
        p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 16)
        wrong = compose(p, Permutation.from_cycles([(points[0], points[2])], 1 << 16))
        return build_ancilla_circuit(p), p, wrong

    def test_ancilla_equivalence_by_both_evaluators(self, wide):
        circuit, p, wrong = wide
        a = circuit.ancilla
        assert circuit.lines == 17 and bit_sliced_runs(circuit) == []
        # A half turn read off the ancilla, after the palindrome, leaves
        # no palindrome and ends the lane run: the lane run takes every
        # gate before it, and only the half turn runs bit-sliced.  With
        # the ancilla at 1 it fails every input, which only the dirty
        # inputs may; with the ancilla at 0, every clean input.
        dirty, clean = (
            Circuit(17, [*circuit.gates, Gate("v", 1, {a: at})], a) for at in (True, False)
        )
        for c in (dirty, clean):
            assert bit_sliced_runs(c) == [c.gates[-1:]]
        for c in (circuit, dirty):
            assert equivalent_with_ancilla(c, p)
            assert not equivalent_with_ancilla(c, wrong)
        assert not equivalent_with_ancilla(clean, p)

    def test_running_all_inputs_stops_at_sixteen_lines(self, wide, capsys, tmp_path):
        circuit, _, _ = wide
        with pytest.raises(ValueError, match="on 17 lines"):
            simulate_all(circuit)
        path = tmp_path / "wide.rev"
        path.write_text(serialize_circuit(circuit))
        assert main(["simulate", "--circuit", str(path), "--all"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot run all inputs of a circuit on 17 lines (at most 16)\n"
        )


# Differential tests: every whole-table answer must match a loop over the
# per-input oracles ``simulate_classical`` and ``simulate_semiclassical``.


@st.composite
def gate_lists(draw, lines, max_gates=10):
    """Mixed t/v/v+ gates; each v or v+ is doubled with probability 1/2.

    A doubled half turn reads out classically, a lone one poisons the
    inputs it fires on, so draws range from fully classical circuits to
    partly and wholly non-classical ones.
    """
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(("t", "v", "v+")))
        target = draw(st.integers(1, lines))
        others = [line for line in range(1, lines + 1) if line != target]
        chosen = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        controls = {line: draw(st.booleans()) for line in chosen}
        gate = Gate(kind, target, controls)
        gates.append(gate)
        if kind != "t" and draw(st.booleans()):
            gates.append(gate)
    return gates


@st.composite
def circuits(draw, max_lines=6):
    lines = draw(st.integers(1, max_lines))
    return Circuit(lines, draw(gate_lists(lines)))


def oracle_outputs(circuit, inputs):
    """Per-input semi-classical readout, None where the oracle raises."""
    outputs = []
    for x in inputs:
        try:
            outputs.append(classical_readout(simulate_semiclassical(circuit, x)))
        except SimulationError:
            outputs.append(None)
    return outputs


def candidate_perms(outputs):
    """Permutations to check against: identity, and the oracle's own table
    with and without one extra swap when every output is classical."""
    degree = len(outputs)
    perms = [Permutation.identity(degree)]
    if None not in outputs and len(set(outputs)) == degree:
        table = Permutation(outputs)
        perms.append(table)
        if degree > 1:
            perms.append(compose(table, Permutation.from_cycles([(0, 1)], degree)))
    return perms


def check_equivalent(circuit):
    """``equivalent`` answers as the per-input oracle does."""
    outputs = oracle_outputs(circuit, range(1 << circuit.lines))
    for p in candidate_perms(outputs):
        expected = all(y == p(x) for x, y in enumerate(outputs))
        assert equivalent(circuit, p) == expected


def check_equivalent_with_ancilla(circuit):
    """``equivalent_with_ancilla`` answers as the per-input oracle does on
    the inputs with the ancilla at 0."""
    a = circuit.ancilla
    low = (1 << (a - 1)) - 1
    inputs = [(x & ~low) << 1 | (x & low) for x in range(1 << (circuit.lines - 1))]
    outputs = oracle_outputs(circuit, inputs)
    data_out = [
        None if y is None or y >> (a - 1) & 1 else (y >> 1) & ~low | (y & low)
        for y in outputs
    ]
    for p in candidate_perms(data_out):
        expected = all(y == p(x) for x, y in enumerate(data_out))
        assert equivalent_with_ancilla(circuit, p) == expected


def cell_model(circuit, x):
    """The semi-classical model spelled out per line: one cell mod 4 each,
    a control read only while its cell is 0 or 2."""
    cells = [2 * ((x >> i) & 1) for i in range(circuit.lines)]
    for gate in circuit.gates:
        fired = True
        for line, pol in gate.controls:
            cell = cells[line - 1]
            if cell not in (0, 2):
                return f"control on line x{line} read while non-classical (cell={cell})"
            fired = fired and (cell == 2) == pol
        if fired:
            delta = {"t": 2, "v": 1, "v+": 3}[gate.kind]
            cells[gate.target - 1] = (cells[gate.target - 1] + delta) % 4
    return tuple(cells)


class TestAgainstOracles:
    @given(circuits())
    def test_semiclassical_oracle_is_the_cell_model(self, circuit):
        for x in range(1 << circuit.lines):
            try:
                got = simulate_semiclassical(circuit, x)
            except SimulationError as exc:
                got = str(exc)
            assert got == cell_model(circuit, x)

    @given(circuits())
    def test_truth_table(self, circuit):
        try:
            inputs = range(1 << circuit.lines)
            expected = [simulate_classical(circuit, x) for x in inputs]
        except SimulationError:
            with pytest.raises(SimulationError):
                truth_table(circuit)
            return
        assert list(truth_table(circuit).image) == expected

    @given(circuits())
    def test_equivalent(self, circuit):
        check_equivalent(circuit)

    @given(st.data())
    def test_equivalent_with_ancilla(self, data):
        # A data circuit widened by one untouched line at every position,
        # then optionally disturbed by gates on the full width.
        lines = data.draw(st.integers(2, 6))
        base = Circuit(lines - 1, data.draw(gate_lists(lines - 1)))
        noise = data.draw(gate_lists(lines, max_gates=2))
        for a in range(1, lines + 1):

            def widen(line):
                return line + (line >= a)

            gates = [
                Gate(g.kind, widen(g.target), [(widen(c), pol) for c, pol in g.controls])
                for g in base.gates
            ]
            check_equivalent_with_ancilla(Circuit(lines, gates + noise, ancilla=a))


# Differential tests of the lane-swap evaluator: against the per-input
# oracle and against the bit-sliced evaluator on the same circuit.


@st.composite
def toffoli_circuits(draw, max_lines=6):
    """Toffoli-only circuits, sparse to dense, half of them palindromes.

    Each gate makes every other line a control with one drawn probability:
    1 gives the fully controlled gates of a flank, which run by lane swaps,
    and 0.2 gives gates with several free lines, whose swaps run past the
    budget.  A palindrome mirrors its gates around an optional centre,
    partly as the same objects and partly as equal copies.  Some draws
    mark an ancilla line.
    """
    lines = draw(st.integers(1, max_lines))
    density = draw(st.sampled_from((1.0, 0.8, 0.5, 0.2)))

    def gate():
        target = draw(st.integers(1, lines))
        controls = {
            line: draw(st.booleans())
            for line in range(1, lines + 1)
            if line != target and draw(st.floats(0, 1)) < density
        }
        return Gate("t", target, controls)

    gates = [gate() for _ in range(draw(st.integers(0, 24)))]
    if draw(st.booleans()):
        centre = [gate()] if draw(st.booleans()) else []
        mirror = [Gate(g.kind, g.target, g.controls) if draw(st.booleans()) else g
                  for g in reversed(gates)]
        gates += centre + mirror
    ancilla = draw(st.none() | st.integers(1, lines)) if lines > 1 else None
    return Circuit(lines, gates, ancilla)


def with_ancilla_oracle(circuit, p):
    """``equivalent_with_ancilla`` spelled out with ``simulate_classical``."""
    a = circuit.ancilla - 1
    low = (1 << a) - 1

    def widen(x):
        return (x & ~low) << 1 | (x & low)

    return all(simulate_classical(circuit, widen(x)) == widen(p(x)) for x in range(p.degree))


class TestLaneSwaps:
    @given(toffoli_circuits())
    def test_lane_table_matches_both_oracles(self, circuit):
        inputs = range(1 << circuit.lines)
        expected = [simulate_classical(circuit, x) for x in inputs]
        hi, failed, _, reads = _simulate_columns(circuit.lines, circuit.gates)
        assert (_words(hi, len(inputs)), failed, reads) == (expected, 0, [])
        inv, ran = _swap_lanes(circuit.gates, len(inputs))
        if ran == len(circuit):
            assert sorted(inputs, key=inv.__getitem__) == expected
        assert simulate_all(circuit) == (expected, {})
        assert truth_table(circuit) == Permutation(expected)

    @given(toffoli_circuits())
    def test_equivalence_matches_the_oracle(self, circuit):
        table = truth_table(circuit)
        swap = Permutation.from_cycles([(0, 1)], table.degree)
        for p in (table, compose(table, swap), Permutation.identity(table.degree)):
            assert equivalent(circuit, p) == (p == table)
        if circuit.ancilla is None:
            return
        # Data permutations to check: what the clean inputs give, where the
        # ancilla comes back clean, and the identity.
        a = circuit.ancilla - 1
        clean = [x for x in range(table.degree) if not x >> a & 1]
        outputs = [table(x) for x in clean]
        candidates = [Permutation.identity(len(clean))]
        if not any(y >> a & 1 for y in outputs):
            candidates.append(Permutation([clean.index(y) for y in outputs]))
        for p in candidates:
            assert equivalent_with_ancilla(circuit, p) == with_ancilla_oracle(circuit, p)

    def test_draws_reach_both_evaluators(self):
        # The first draw each way will do; shrinking it would take seconds.
        first = settings(phases=[Phase.generate], database=None)
        for lanes, palindrome in ((True, True), (True, False), (False, False)):
            circuit = find(
                toffoli_circuits(),
                lambda c: len(c) > 8
                and (bit_sliced_runs(c) == []) == lanes
                and c.is_palindromic() == palindrome,
                settings=first,
            )
            assert not circuit.has_quantum_gates()

    def test_a_dense_circuit_runs_bit_sliced(self):
        # Every gate is a plain NOT: 2**5 swaps each, against a budget of
        # half the states, 32, plus two per gate.  The lane run takes the
        # first; the rest run bit-sliced.
        circuit = Circuit(6, [Gate("t", 1 + i % 6) for i in range(12)])
        assert bit_sliced_runs(circuit) == [circuit.gates[1:]]
        assert truth_table(circuit).is_identity()

    def test_a_v_gate_runs_bit_sliced(self):
        # The lane run stops at the first v: the gates from there on run
        # bit-sliced.
        circuit = Circuit(2, [Gate("t", 1, {2: True}), Gate("v", 2), Gate("v", 2)])
        assert bit_sliced_runs(circuit) == [circuit.gates[1:]]
        assert equivalent(circuit, Permutation([2, 3, 1, 0]))

    def test_dense_non_palindromes_run_bit_sliced_whole(self):
        # Like the benchmark's generated check files: 400 gates on 7 lines
        # with at most three controls, so 8 to 64 swaps each.  The lane
        # run stops within the first few gates, and the core, every gate
        # after it, runs bit-sliced whole.
        rng = random.Random(7)
        for _ in range(5):
            gates = []
            for _ in range(400):
                target = rng.randint(1, 7)
                others = [line for line in range(1, 8) if line != target]
                chosen = rng.sample(others, rng.randint(0, 3))
                gates.append(Gate("t", target, {line: rng.random() < 0.5 for line in chosen}))
            circuit = Circuit(7, gates)
            _, k = _swap_lanes(circuit.gates, 1 << 7)
            assert k < 8 and bit_sliced_runs(circuit) == [circuit.gates[k:]]

    def test_a_v_circuit_sends_only_its_middle_bit_sliced(self):
        rng = random.Random(10)
        points = rng.sample(range(1 << 10), 2 * ((1 << 8) - 3))
        p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 10)
        circuit = build_v_circuit(p)
        gates = circuit.gates
        first = next(i for i, g in enumerate(gates) if g.kind != "t")
        middle = gates[first : len(gates) - first]
        # The v halves and the container gate between them.
        turns = ["v"] * (len(middle) // 2)
        assert [g.kind for g in middle] == [*turns, "t", *turns]
        assert bit_sliced_runs(circuit) == [middle]
        assert equivalent(circuit, p)

    @pytest.mark.parametrize("where", ["first", "centre", "last", "random"])
    def test_a_dropped_gate_is_caught_at_ten_lines(self, where):
        rng = random.Random(10)
        points = rng.sample(range(1 << 10), 2 * (1 << 8))
        p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 10)
        circuit = build_palindrome(p)
        assert equivalent(circuit, p)
        gates = list(circuit.gates)
        i = {"first": 0, "centre": len(gates) // 2, "last": len(gates) - 1}.get(
            where, rng.randrange(len(gates))
        )
        del gates[i]
        dropped = Circuit(circuit.lines, gates)
        assert bit_sliced_runs(dropped) == []
        assert not equivalent(dropped, p)


@st.composite
def half_turn_palindromes(draw):
    """Palindromes L . m . L^-1 whose middle m holds v or v+ gates.

    The flank L is a ``toffoli_circuits`` draw's gate list, on its lines and
    with its ancilla mark.  One half of m opens with up to four plain NOTs,
    each of which swaps half the states, so they can stop the lane run on
    budget; then mixed gates from ``gate_lists``, with at least one half
    turn.  A lone half turn, or a control read of a half-turned line,
    fails the inputs it fires on.  The halves mirror around an optional
    centre gate of any kind.
    """
    base = draw(toffoli_circuits())
    lines = base.lines
    nots = [Gate("t", draw(st.integers(1, lines))) for _ in range(draw(st.integers(0, 4)))]
    turns = draw(
        gate_lists(lines, max_gates=4).filter(lambda gs: any(g.kind != "t" for g in gs))
    )
    half = [*base.gates, *nots, *turns]
    centre = draw(gate_lists(lines, max_gates=1))[:1]
    return Circuit(lines, half + centre + half[::-1], base.ancilla)


class TestHalfTurnPalindromes:
    """The split into lane runs and a bit-sliced middle, against the
    per-input oracle and against the whole circuit run bit-sliced."""

    @given(half_turn_palindromes())
    def test_matches_both_oracles(self, circuit):
        states = 1 << circuit.lines
        expected = oracle_outputs(circuit, range(states))
        mask = sum(1 << x for x, y in enumerate(expected) if y is None)
        hi, whole_failed, *_ = _simulate_columns(circuit.lines, circuit.gates)
        whole = _words(hi, states)
        outputs, reasons = simulate_all(circuit)
        assert sum(1 << x for x in reasons) == whole_failed == mask
        # The failing inputs are exactly the ones marked in the table.
        assert sum(1 << x for x, y in enumerate(outputs) if y == states) == mask
        for x, y in enumerate(expected):
            if y is not None:
                assert outputs[x] == whole[x] == y
        check_equivalent(circuit)
        if circuit.ancilla is not None:
            check_equivalent_with_ancilla(circuit)

    @pytest.mark.parametrize("at", [True, False])
    def test_a_failing_centre_counts_only_with_the_ancilla_at_1(self, at):
        # Three Toffoli gates on the data lines leave the ancilla, x4,
        # free: each swaps two pairs of lanes, so the lane run takes the
        # whole left half and only the centre v runs bit-sliced.  The v
        # fails every input with the ancilla at ``at``; the table marks
        # them through the left run.
        half = [Gate("t", 1, {2: True, 3: True}), Gate("t", 2, {1: True, 3: False}),
                Gate("t", 3, {1: False, 2: True})]
        centre = Gate("v", 1, {4: at})
        circuit = Circuit(4, [*half, centre, *half[::-1]], ancilla=4)
        assert bit_sliced_runs(circuit) == [(centre,)]
        outputs, reasons = simulate_all(circuit)
        failing = [x for x in range(16) if x >> 3 == at]
        assert [x for x, y in enumerate(outputs) if y == 16] == failing == sorted(reasons)
        assert equivalent_with_ancilla(circuit, Permutation.identity(8)) == at

    def test_draws_reach_every_split(self):
        # The first draw each way will do; shrinking it would take seconds.
        first = settings(phases=[Phase.generate], database=None)

        def middle_only(c):
            runs = bit_sliced_runs(c)
            return len(runs) == 1 and len(runs[0]) < len(c)

        for wanted in (
            # A lane run on each side, and a middle that fails some inputs.
            lambda c: middle_only(c) and 0 < len(simulate_all(c)[1]) < 1 << c.lines,
            # A lane run stopped on budget, before any half turn.
            lambda c: middle_only(c) and bit_sliced_runs(c)[0][0].kind == "t",
            lambda c: middle_only(c) and c.ancilla is not None,
        ):
            find(half_turn_palindromes(), wanted, settings=first)


def oracle_reasons(circuit):
    """The ``SimulationError`` text of each input the per-input oracle fails."""
    reasons = {}
    for x in range(1 << circuit.lines):
        try:
            classical_readout(simulate_semiclassical(circuit, x))
        except SimulationError as exc:
            reasons[x] = str(exc)
    return reasons


class TestFailureReasons:
    """``simulate_all`` words each failing input's reason from its
    whole-table run, as the per-input oracle words the error it raises."""

    @given(circuits())
    def test_match_the_oracle(self, circuit):
        assert simulate_all(circuit)[1] == oracle_reasons(circuit)

    @given(half_turn_palindromes())
    def test_match_the_oracle_on_half_turn_palindromes(self, circuit):
        assert simulate_all(circuit)[1] == oracle_reasons(circuit)

    def test_draws_reach_a_read_in_the_right_run(self):
        # A middle that leaves a line half-turned, and no control read
        # fails until the right run reads that line.
        def reads(lines, gates):
            return any(lanes for *_, lanes in _simulate_columns(lines, gates)[3])

        def right_run_reads(c):
            runs = bit_sliced_runs(c)
            return (
                len(runs) == 1
                and len(runs[0]) < len(c)
                and reads(c.lines, c.gates)
                and not reads(c.lines, runs[0])
            )

        first = settings(phases=[Phase.generate], database=None)
        find(half_turn_palindromes(), right_run_reads, settings=first)


@st.composite
def late_stopping_circuits(draw):
    """A ``toffoli_circuits`` draw's gate list, then mixed gates, not mirrored.

    The lane run takes the Toffoli gates as far as its budget goes, and may
    stop late, at the first half turn of the tail; the core, the gates
    after it, runs bit-sliced.  The draw keeps the Toffoli draw's lines and
    ancilla mark.
    """
    base = draw(toffoli_circuits())
    tail = draw(gate_lists(base.lines, max_gates=4))
    return Circuit(base.lines, [*base.gates, *tail], base.ancilla)


def core_and_mirror(circuit):
    """The gates ``_outputs`` runs after its lane run, and the mirror run."""
    mirror = _outputs(circuit)[3]
    k = _swap_lanes(circuit.gates, 1 << circuit.lines)[1]
    start = len(mirror) if circuit.is_palindromic() else k
    return circuit.gates[start : len(circuit) - len(mirror)], mirror


class TestOnePlan:
    """A lane prefix, then a core, for every circuit; a palindrome's mirror
    run read off the prefix's table, and run bit-sliced only as far as its
    failing lanes need to word their reasons."""

    @given(late_stopping_circuits())
    def test_late_prefixes_match_both_oracles(self, circuit):
        states = 1 << circuit.lines
        expected = oracle_outputs(circuit, range(states))
        outputs, reasons = simulate_all(circuit)
        assert outputs == [states if y is None else y for y in expected]
        assert reasons == oracle_reasons(circuit)
        check_equivalent(circuit)
        if circuit.ancilla is not None:
            check_equivalent_with_ancilla(circuit)

    def test_draws_reach_every_plan(self):
        # The first draw each way will do; shrinking it would take seconds.
        # About one palindrome draw in six goes on into its mirror run, and
        # one in twenty-five runs it to the end.
        first = settings(phases=[Phase.generate], database=None, max_examples=1000)

        def late_core(c):
            core, _ = core_and_mirror(c)
            return (
                not c.is_palindromic()
                and 0 < len(core) < len(c)
                and bit_sliced_runs(c) == [core]
            )

        def continued(c, whole):
            core, mirror = core_and_mirror(c)
            runs = bit_sliced_runs(c, simulate_all)
            if len(runs) != 2 or runs[0] != core:
                return False
            ends = any(r.startswith("non-classical state") for r in simulate_all(c)[1].values())
            return runs[1] == mirror[: len(runs[1])] and (len(runs[1]) == len(mirror)) == ends == whole

        find(late_stopping_circuits(), late_core, settings=first)
        for whole in (False, True):
            find(half_turn_palindromes(), lambda c: continued(c, whole), settings=first)


def ten_line_palindrome():
    """The ``build_palindrome`` circuit of a seeded 256-pair involution."""
    rng = random.Random(10)
    points = rng.sample(range(1 << 10), 2 * (1 << 8))
    p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 10)
    return build_palindrome(p)


def expected_row(circuit, x):
    """Input x's entry in ``simulate_all``'s table and its reason, per input."""
    try:
        return classical_readout(simulate_semiclassical(circuit, x)), None
    except SimulationError as exc:
        return 1 << circuit.lines, str(exc)


class TestNoSecondPass:
    """``simulate_all`` hands each gate to the bit-sliced evaluator at most
    once, on the failing shapes of the large-n CI run at ten lines."""

    def test_a_half_turned_centre_runs_with_a_short_stretch_of_the_mirror(self):
        gates = list(ten_line_palindrome().gates)
        half = len(gates) // 2
        gates[half] = Gate("v", gates[half].target, gates[half].controls)
        circuit = Circuit(10, gates)
        runs = bit_sliced_runs(circuit, simulate_all)
        ran = [g for run in runs for g in run]
        assert runs[0] == (gates[half],) and len(runs) == 2
        # One stretch from the centre on: no gate twice, and only a few of
        # the mirror run's gates.
        assert ran == gates[half : half + len(ran)] and 1 < len(ran) <= 10
        outputs, reasons = simulate_all(circuit)
        assert 0 < len(reasons) < 1 << 10
        for x in random.Random(1).sample(range(1 << 10), 24):
            assert (outputs[x], reasons.get(x)) == expected_row(circuit, x)

    def test_an_appended_half_turn_runs_alone(self):
        circuit = ten_line_palindrome()
        circuit = Circuit(10, [*circuit.gates, Gate("v", 1)])
        assert bit_sliced_runs(circuit, simulate_all) == [circuit.gates[-1:]]
        outputs, reasons = simulate_all(circuit)
        assert outputs == [1 << 10] * (1 << 10) and len(reasons) == 1 << 10
        for x in random.Random(2).sample(range(1 << 10), 24):
            assert (outputs[x], reasons[x]) == expected_row(circuit, x)


def _bits(value, lines):
    return "".join(str((value >> i) & 1) for i in range(lines))


def scalar_transcript(circuit, path, semi):
    """What ``revpal simulate --all`` prints when run one input at a time."""
    out = ["command: simulate", f"circuit: {path}"]
    out.append(f"mode: {'semiclassical' if semi else 'classical'}")
    err = []
    code = 0
    for x in range(1 << circuit.lines):
        bits = _bits(x, circuit.lines)
        try:
            if semi:
                y = classical_readout(simulate_semiclassical(circuit, x))
            else:
                y = simulate_classical(circuit, x)
            out.append(f"{bits} -> {_bits(y, circuit.lines)}")
        except SimulationError as exc:
            out.append(f"{bits} -> non-classical")
            err.append(f"input {bits}: {exc}")
            code = 4
    return code, "\n".join(out) + "\n", err


class TestSimulateAllCommand:
    @given(circuits(), st.booleans())
    def test_matches_scalar_loop(self, circuit, flag):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "c.rev")
            Path(path).write_text(serialize_circuit(circuit))
            argv = ["simulate", "--circuit", path, "--all"]
            if flag:
                argv.append("--semiclassical")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            semi = flag or circuit.has_quantum_gates()
            expected = scalar_transcript(circuit, path, semi)
        err_lines = err.getvalue().splitlines()
        assert err_lines[-1].startswith("time: ")
        assert (code, out.getvalue(), err_lines[:-1]) == expected


def failing_palindrome(where):
    """An n=8 ``build_palindrome`` circuit that fails on every input.

    ``appended``: with ``v x1`` after it, so every input ends half-turned.
    ``centre``: its centre gate replaced by three ``v x1``, so the middle
    leaves x1 half-turned and the right run reads it.
    """
    rng = random.Random(8)
    points = rng.sample(range(1 << 8), 2 * (1 << 6))
    p = Permutation.from_cycles(zip(points[::2], points[1::2]), 1 << 8)
    gates = build_palindrome(p).gates
    if where == "appended":
        return Circuit(8, [*gates, Gate("v", 1)])
    half = len(gates) // 2
    return Circuit(8, [*gates[:half], *[Gate("v", 1)] * 3, *gates[half + 1 :]])


class TestNoScalarReruns:
    @pytest.mark.parametrize("where", ["appended", "centre"])
    def test_all_reads_every_reason_from_the_whole_table_run(self, tmp_path, monkeypatch, where):
        circuit = failing_palindrome(where)
        path = tmp_path / "c.rev"
        path.write_text(serialize_circuit(circuit))
        expected = scalar_transcript(circuit, str(path), True)
        assert len(expected[2]) == 256

        def refuse(circuit, x):
            raise AssertionError("simulate_semiclassical ran")

        monkeypatch.setattr(simulate, "simulate_semiclassical", refuse)
        monkeypatch.setattr(cli, "simulate_semiclassical", refuse)
        argv = ["simulate", "--circuit", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--all"])
        err_lines = err.getvalue().splitlines()
        assert err_lines[-1].startswith("time: ")
        assert (code, out.getvalue(), err_lines[:-1]) == expected
        with pytest.raises(AssertionError, match="simulate_semiclassical ran"):
            main([*argv, "--input", "0" * 8])
