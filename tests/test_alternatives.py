import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import dense_nearest_conjugator
from revpal.alternatives import (
    build_ancilla_circuit,
    build_v_circuit,
    decompose,
)
from revpal.census import iter_involutions
from revpal.circuits import Circuit, Gate
from revpal.gates import MpmctGate, nearest_gate, transposition_gate
from revpal.perm import Permutation, compose, conjugate, match_pairs
from revpal.simulate import (
    classical_readout,
    equivalent,
    equivalent_with_ancilla,
    simulate_classical,
    simulate_semiclassical,
    truth_table,
)
from revpal.synth import _embedding, build_palindrome, synthesize_permutation

WORKED = Permutation.from_cycles([(0, 1), (3, 5), (2, 7)], 8)


def random_involution_of_size(rng, degree, size):
    points = list(range(degree))
    rng.shuffle(points)
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(size)]
    return Permutation.from_transpositions(pairs, degree)


class TestDecompose:
    def test_worked_example(self):
        # (0 1) lies along x1, so the container flips x1; (0 1) is shared,
        # (2 7) matches (2 3) and (3 5) matches (4 5), one endpoint fixed.
        d = decompose(WORKED)
        assert d.gate == MpmctGate(3, 1)
        assert d.k == 2
        assert sorted(d.inner.transpositions()) == [(0, 1), (2, 3), (4, 5)]
        assert sorted(d.surplus.transpositions()) == [(6, 7)]

    def test_invariants_on_worked_example(self):
        d = decompose(WORKED)
        assert d.inner.cycle_type() == WORKED.cycle_type()
        assert d.inner.transpositions() < d.gate_perm.transpositions()
        assert d.surplus.transpositions() == (
            d.gate_perm.transpositions() - d.inner.transpositions()
        )
        assert compose(d.gate_perm, d.surplus) == d.inner
        assert compose(d.surplus, d.gate_perm) == d.inner
        assert 2 ** (d.k - 1) < WORKED.size() < 2**d.k
        assert d.gate_perm.size() == 2**d.k

    def test_conjugator_property(self):
        from revpal.perm import conjugate

        d = decompose(WORKED)
        assert conjugate(d.conjugator, d.inner) == WORKED

    def test_size_five_in_s16(self):
        rng = random.Random(53)
        p = random_involution_of_size(rng, 16, 5)
        d = decompose(p)
        assert d.k == 3
        assert d.gate_perm.size() == 8
        assert d.surplus.size() == 3

    def test_size_six_and_seven_in_s16(self):
        rng = random.Random(59)
        for size in (6, 7):
            p = random_involution_of_size(rng, 16, size)
            d = decompose(p)
            assert d.k == 3
            assert d.surplus.size() == 8 - size

    def test_rejects_power_of_two_sizes(self):
        p = Permutation.transposition(8, 0, 1)
        with pytest.raises(ValueError):
            decompose(p)

    def test_rejects_identity_and_non_involutions(self):
        with pytest.raises(ValueError):
            decompose(Permutation.identity(8))
        with pytest.raises(ValueError):
            decompose(Permutation.from_cycles([(0, 1, 2)], 8))


class TestContainerGate:
    def test_worked_shape(self):
        g = nearest_gate(WORKED.transpositions(), 3, 2)
        assert g == MpmctGate(3, 1)
        assert sorted(g.transpositions()) == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_controlled_variant(self):
        # On four lines every endpoint has x4 = 0, which the control keeps.
        g = nearest_gate(WORKED.transpositions(), 4, 2)
        assert g == MpmctGate(4, 1, {4: False})
        assert len(g.transpositions()) == 4

    def test_k_range(self):
        with pytest.raises(ValueError):
            nearest_gate(WORKED.transpositions(), 3, 3)


class TestAncillaConstruction:
    def test_worked_example_verifies(self):
        c = build_ancilla_circuit(WORKED)
        assert c.lines == 4
        assert c.ancilla == 4
        assert c.is_palindromic()
        assert c.parity() == "odd"
        assert equivalent_with_ancilla(c, WORKED)

    def test_cnot_sits_in_the_middle(self):
        c = build_ancilla_circuit(WORKED)
        middle = c.gates[len(c) // 2]
        assert middle == Gate("t", 1, {4: True})

    def test_all_sixteen_rows_permute(self):
        c = build_ancilla_circuit(WORKED)
        truth_table(c)  # validates bijectivity over all 16 inputs

    def test_middle_block_alone_computes_inner(self):
        d = decompose(WORKED)
        c = build_ancilla_circuit(WORKED)
        flank_len = (len(c) - 2 * (d.surplus.size() + 1) - 1) // 2
        middle = Circuit(4, c.gates[flank_len : len(c) - flank_len], ancilla=4)
        assert equivalent_with_ancilla(middle, d.inner)

    def test_ancilla_restored_on_all_clean_inputs(self):
        c = build_ancilla_circuit(WORKED)
        for x in range(8):
            assert simulate_classical(c, x) & 8 == 0

    def test_random_sizes_in_s16(self):
        rng = random.Random(61)
        for size in (3, 5, 6, 7):
            p = random_involution_of_size(rng, 16, size)
            c = build_ancilla_circuit(p)
            assert c.is_palindromic()
            assert equivalent_with_ancilla(c, p)


class TestVConstruction:
    def test_worked_example_verifies(self):
        c = build_v_circuit(WORKED)
        assert c.lines == 3
        assert c.is_palindromic()
        assert equivalent(c, WORKED)

    def test_v_gate_controls(self):
        c = build_v_circuit(WORKED)
        vs = [g for g in c.gates if g.kind == "v"]
        assert len(vs) == 2
        # One half-flip per side for the surplus pair (6 7), on the target.
        assert all(g == Gate("v", 1, {2: True, 3: True}) for g in vs)

    def test_middle_is_v_gate_v(self):
        c = build_v_circuit(WORKED)
        mid = len(c) // 2
        assert c.gates[mid] == Gate("t", 1)
        assert c.gates[mid - 1].kind == "v"
        assert c.gates[mid + 1].kind == "v"

    @staticmethod
    def _middle_block(p):
        d = decompose(p)
        c = build_v_circuit(p)
        mid_len = 2 * d.surplus.size() + 1
        flank = (len(c) - mid_len) // 2
        return d, Circuit(c.lines, c.gates[flank : flank + mid_len])

    def test_inner_input_flips_target_only(self):
        # An assignment firing a kept transposition sees only the container
        # gate: the half-flips stay idle.
        d, middle = self._middle_block(WORKED)
        for a, b in d.inner.transpositions():
            cells = simulate_semiclassical(middle, a)
            assert classical_readout(cells) == b

    def test_surplus_input_unchanged(self):
        d, middle = self._middle_block(WORKED)
        for a, b in d.surplus.transpositions():
            assert classical_readout(simulate_semiclassical(middle, a)) == a
            assert classical_readout(simulate_semiclassical(middle, b)) == b

    def test_surplus_only_fires_with_container(self):
        # Every half-flip's control pattern implies the container gate's.
        for p in [WORKED, Permutation.from_transpositions([(0, 3), (1, 6), (2, 5)], 8)]:
            d = decompose(p)
            c = build_v_circuit(p)
            v_gates = [g for g in c.gates if g.kind == "v"]
            for x in range(8):
                for g in v_gates:
                    v_fires = all(
                        (x >> (line - 1)) & 1 == pol for line, pol in g.controls
                    )
                    if v_fires:
                        assert d.gate.fires(x)

    def test_palindromic_with_multiple_surplus_gates(self):
        rng = random.Random(67)
        for size in (5, 6):
            p = random_involution_of_size(rng, 16, size)
            c = build_v_circuit(p)
            assert c.is_palindromic()
            assert equivalent(c, p)

    def test_classical_outputs_everywhere(self):
        c = build_v_circuit(WORKED)
        for x in range(8):
            cells = simulate_semiclassical(c, x)
            classical_readout(cells)


class TestSweep420:
    def test_every_size_three_involution(self):
        count = 0
        for p in iter_involutions(8):
            if p.size() == 3:
                count += 1
                ca = build_ancilla_circuit(p)
                assert ca.is_palindromic() and equivalent_with_ancilla(ca, p)
                cv = build_v_circuit(p)
                assert cv.is_palindromic() and equivalent(cv, p)
        assert count == 420


@given(st.data())
def test_every_builder_output_is_an_odd_verified_palindrome(data):
    # Any involution on 1..8 lines goes through the builder its size picks;
    # the chosen middle gate and matching must never break the circuit.
    n = data.draw(st.integers(min_value=1, max_value=8))
    size = data.draw(st.integers(min_value=1, max_value=1 << (n - 1)))
    points = data.draw(st.permutations(list(range(1 << n))))
    p = Permutation.from_transpositions(
        zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]), 1 << n
    )
    if size & (size - 1) == 0:
        circuits = [(build_palindrome(p), equivalent)]
    else:
        circuits = [
            (build_ancilla_circuit(p), equivalent_with_ancilla),
            (build_v_circuit(p), equivalent),
        ]
    for c, check in circuits:
        assert c.is_palindromic() and len(c) % 2 == 1
        assert check(c, p)


@given(st.data())
def test_one_embedding_matches_the_two_step_recipe(data):
    # Oracle: the recipe from before the three builders shared one
    # embedding and built from the points that move.  p's pairs are matched
    # onto the core a second time, the conjugator is the dense one over
    # every point, the flank comes from its cycles() over every point, and
    # each surplus gate is the transposition_gate of its pair.  The public
    # decompose record, which no builder reads, is held to the same recipe.
    n = data.draw(st.integers(min_value=1, max_value=8))
    power = n < 3 or data.draw(st.booleans())
    sizes = [s for s in range(1, (1 << (n - 1)) + 1) if (s & (s - 1) == 0) == power]
    size = data.draw(st.sampled_from(sizes))
    points = data.draw(st.permutations(list(range(1 << n))))
    p = Permutation.from_transpositions(
        zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]), 1 << n
    )
    pairs = p.transpositions()
    gate = nearest_gate(pairs, n, (size - 1).bit_length())
    gate_pairs = gate.permutation().transpositions()
    core = Permutation.from_transpositions(
        [row[:2] for row in match_pairs(pairs, gate_pairs, n)], 1 << n
    )
    sigma = dense_nearest_conjugator(p, core, match_pairs(pairs, core.transpositions(), n))
    flank = synthesize_permutation(sigma).gates[::-1]
    if power:
        centre = (gate.circuit_gate(),)
        assert build_palindrome(p) == Circuit(n, flank + centre + flank[::-1])
        return
    surplus = gate_pairs - core.transpositions()
    d = decompose(p)
    assert (d.gate, d.gate_perm, d.inner) == (gate, gate.permutation(), core)
    assert d.surplus == Permutation.from_transpositions(surplus, 1 << n)
    assert (d.conjugator, d.k) == (sigma, size.bit_length())
    swaps = [transposition_gate(a, b, n) for a, b in sorted(surplus)]
    anc = n + 1
    left = flank + tuple(Gate("t", anc, g.controls) for g in swaps + [gate])
    cnot = (Gate("t", gate.target, {anc: True}),)
    assert build_ancilla_circuit(p) == Circuit(n + 1, left + cnot + left[::-1], anc)
    left = flank + tuple(Gate("v", gate.target, g.controls) for g in swaps)
    centre = (gate.circuit_gate(),)
    assert build_v_circuit(p) == Circuit(n, left + centre + left[::-1])


@given(st.data())
def test_the_conjugator_read_from_the_rows_matches_the_dense_one(data):
    # Every size on 1..8 lines: the conjugator that _embedding reads from
    # the pairs' endpoints equals the dense reference on every point, in
    # cycles() order, and relabels the core into p.
    n = data.draw(st.integers(min_value=1, max_value=8))
    size = data.draw(st.integers(min_value=1, max_value=1 << (n - 1)))
    points = data.draw(st.permutations(list(range(1 << n))))
    p = Permutation.from_transpositions(
        zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]), 1 << n
    )
    _, rows, sigma, _ = _embedding(p, n)
    core = Permutation.from_transpositions([row[:2] for row in rows], 1 << n)
    dense = dense_nearest_conjugator(p, core, rows)
    assert sigma == tuple(c for c in dense.cycles() if len(c) > 1)
    assert Permutation.from_cycles(sigma, 1 << n) == dense
    assert conjugate(dense, core) == p


def test_sixteen_line_builds_use_only_the_points_that_move(monkeypatch):
    # Between _embedding and the returned circuit, no builder may build or
    # walk a permutation of all 65,536 points.
    degree = 1 << 16
    rng = random.Random(16)
    p16, p17 = (random_involution_of_size(rng, degree, s) for s in (16, 17))
    p16.transpositions(), p17.transpositions()  # derived before the guard

    def refuse(what):
        raise AssertionError(f"{what} on all {degree} points")

    cycles = Permutation.cycles
    from_cycles, bijection = Permutation.from_cycles.__func__, Permutation._bijection.__func__

    def guarded_cycles(self):
        if self.degree == degree:
            refuse("cycles()")
        return cycles(self)

    def guarded_from_cycles(cls, cycle_list, d):
        if d == degree:
            refuse("from_cycles()")
        return from_cycles(cls, cycle_list, d)

    def guarded_bijection(cls, image):
        image = tuple(image)
        if len(image) == degree:
            refuse("a Permutation")
        return bijection(cls, image)

    monkeypatch.setattr(Permutation, "cycles", guarded_cycles)
    monkeypatch.setattr(Permutation, "from_cycles", classmethod(guarded_from_cycles))
    monkeypatch.setattr(Permutation, "_bijection", classmethod(guarded_bijection))
    built = [
        (build_palindrome(p16), equivalent, p16),
        (build_ancilla_circuit(p17), equivalent_with_ancilla, p17),
        (build_v_circuit(p17), equivalent, p17),
    ]
    monkeypatch.undo()
    for circuit, check, p in built:
        assert circuit.is_palindromic() and check(circuit, p)


@pytest.mark.parametrize("build", [build_ancilla_circuit, build_v_circuit])
def test_a_build_matches_its_pairs_once(build, monkeypatch):
    import revpal.alternatives
    import revpal.perm
    import revpal.synth

    calls = []

    def counted(p_pairs, q_pairs, lines):
        calls.append(sorted(p_pairs))
        return match_pairs(p_pairs, q_pairs, lines)

    match_pairs = revpal.perm.match_pairs
    for module in (revpal.perm, revpal.synth, revpal.alternatives):
        if hasattr(module, "match_pairs"):
            monkeypatch.setattr(module, "match_pairs", counted)
    build(WORKED)
    assert calls.count(sorted(WORKED.transpositions())) == 1


@pytest.mark.parametrize("run", [build_ancilla_circuit, build_v_circuit, decompose])
def test_a_container_gate_lists_its_pairs_once(run, monkeypatch):
    # The matching and the surplus read one listing of the gate's pairs.
    calls = []
    transpositions = MpmctGate.transpositions

    def counted(gate):
        calls.append(gate)
        return transpositions(gate)

    monkeypatch.setattr(MpmctGate, "transpositions", counted)
    run(random_involution_of_size(random.Random(7), 1 << 7, 37))
    assert len(calls) == 1
