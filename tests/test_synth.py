import hashlib
import random
from itertools import combinations

import pytest

from revpal.circuits import Circuit, Gate
from revpal.gates import MpmctGate, enumerate_gates, nearest_gate
from revpal.perm import Permutation, conjugate
from revpal.simulate import truth_table
from revpal.synth import (
    IDENTITY,
    NEEDS_ALTERNATIVE,
    NOT_INVOLUTION,
    PALINDROMIC,
    build_palindrome,
    classify,
    synthesize_permutation,
    transposition_chain,
)


def random_perm(rng, degree):
    image = list(range(degree))
    rng.shuffle(image)
    return Permutation(image)


class TestClassify:
    def test_three_transpositions_need_alternative(self):
        p = Permutation.from_cycles([(0, 1), (3, 5), (2, 7)], 8)
        c = classify(p)
        assert c.kind == NEEDS_ALTERNATIVE
        assert c.size == 3

    def test_uncontrolled_not(self):
        p = Permutation.from_cycles([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
        c = classify(p)
        assert c.kind == PALINDROMIC
        assert c.size == 4 and c.k == 3

    def test_identity(self):
        c = classify(Permutation.identity(8))
        assert c.kind == IDENTITY
        assert c.size == 0

    def test_not_involution(self):
        assert classify(Permutation.from_cycles([(0, 1, 2)], 8)).kind == NOT_INVOLUTION

    def test_degree_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            classify(Permutation.identity(6))

    def test_k_covers_all_powers(self):
        for k in (1, 2, 3):
            size = 1 << (k - 1)
            pairs = [(2 * j, 2 * j + 1) for j in range(size)]
            c = classify(Permutation.from_transpositions(pairs, 8))
            assert c.kind == PALINDROMIC and c.k == k


class TestMiddleGate:
    def test_shape(self):
        # A set that is one gate's pairs is nearest to that gate itself.
        for g in enumerate_gates(3):
            free = 3 - 1 - g.num_controls
            assert nearest_gate(g.transpositions(), 3, free) == g

    def test_transposition_count(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                p = _seeded_involution(rng, n, 1 << (k - 1))
                g = nearest_gate(p.transpositions(), n, k - 1)
                assert len(g.transpositions()) == 1 << (k - 1)
                assert g.lines == n

    def test_range(self):
        pairs = [(0, 1)]
        with pytest.raises(ValueError):
            nearest_gate(pairs, 3, 3)
        with pytest.raises(ValueError):
            nearest_gate(pairs, 3, -1)

    def test_subcube_holding_most_endpoints(self):
        # Three of the four endpoints have x3 = 1, and both pairs differ
        # in x2, not in x1.
        g = nearest_gate([(5, 7), (0, 6)], 3, 1)
        assert g == MpmctGate(3, 2, {3: True})

    def test_pairs_are_read_low_point_first(self):
        # A pair given high point first is read as (min, max), so the
        # order within a pair cannot change the gate.
        g = MpmctGate(3, 2, {1: True})
        assert nearest_gate([(1, 2), (5, 6)], 3, 1) == g
        assert nearest_gate([(2, 1), (6, 5)], 3, 1) == g


class TestTranspositionChain:
    def test_adjacent_is_single_gate(self):
        gates = transposition_chain(0, 1, 3)
        assert gates == (Gate("t", 1, {2: False, 3: False}),)

    def test_distance_three_is_five_gates(self):
        gates = transposition_chain(0, 7, 3)
        assert len(gates) == 5
        c = Circuit(3, gates)
        assert truth_table(c) == Permutation.transposition(8, 0, 7)

    def test_chain_is_exact_for_all_pairs(self):
        for a in range(8):
            for b in range(a + 1, 8):
                c = Circuit(3, transposition_chain(a, b, 3))
                assert truth_table(c) == Permutation.transposition(8, a, b)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            transposition_chain(3, 3, 3)
        with pytest.raises(ValueError):
            transposition_chain(3, 8, 3)

    def test_gates_match_the_public_constructor(self):
        # The chain built from (line, polarity) pairs: flip the differing
        # bits lowest line first, each step controlled by all other lines.
        for n in (1, 2, 3, 4):
            for a, b in combinations(range(1 << n), 2):
                steps, u = [], a
                for t in range(1, n + 1):
                    if (a ^ b) >> (t - 1) & 1:
                        controls = [
                            (line, bool((u >> (line - 1)) & 1))
                            for line in range(1, n + 1)
                            if line != t
                        ]
                        steps.append(Gate("t", t, controls))
                        u ^= 1 << (t - 1)
                expected = tuple(steps + steps[-2::-1])
                got = transposition_chain(a, b, n)
                assert got == expected
                assert [hash(g) for g in got] == [hash(g) for g in expected]


class TestSynthesizePermutation:
    def test_identity_is_empty(self):
        assert len(synthesize_permutation(Permutation.identity(8))) == 0

    def test_exactness_random(self):
        rng = random.Random(17)
        for _ in range(500):
            degree = rng.choice((2, 4, 8, 16))
            p = random_perm(rng, degree)
            assert truth_table(synthesize_permutation(p)) == p

    def test_reverse_cancels(self):
        rng = random.Random(19)
        for _ in range(50):
            p = random_perm(rng, 8)
            s = synthesize_permutation(p)
            assert truth_table(Circuit(3, s.gates + s.reversed().gates)).is_identity()

    def test_deterministic(self):
        p = Permutation([4, 2, 6, 0, 3, 1, 5, 7])
        assert synthesize_permutation(p) == synthesize_permutation(p)

    def test_rejects_non_power_degree(self):
        with pytest.raises(ValueError):
            synthesize_permutation(Permutation.identity(6))


class TestBuildPalindrome:
    def test_gate_input_gives_single_gate(self):
        p = Permutation.from_cycles([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
        c = build_palindrome(p)
        assert c.gates == (Gate("t", 3),)
        assert c.is_palindromic() and c.parity() == "odd"
        assert truth_table(c) == p

    def test_single_far_transposition(self):
        p = Permutation.transposition(8, 0, 7)
        c = build_palindrome(p)
        assert c.is_palindromic()
        assert c.parity() == "odd"
        assert truth_table(c) == p

    def test_identity_gives_empty_circuit(self):
        c = build_palindrome(Permutation.identity(8))
        assert len(c) == 0
        assert c.is_palindromic() and c.parity() == "even"

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            build_palindrome(Permutation.from_cycles([(0, 1, 2)], 8))

    def test_rejects_non_power_of_two_size(self):
        p = Permutation.from_cycles([(0, 1), (3, 5), (2, 7)], 8)
        with pytest.raises(ValueError):
            build_palindrome(p)

    def test_exhaustive_degree_four(self):
        # All 9 involutions on 4 points with power-of-two size.
        from revpal.census import iter_involutions

        hits = 0
        for p in iter_involutions(4):
            s = p.size()
            if s >= 1 and s & (s - 1) == 0:
                c = build_palindrome(p)
                assert c.is_palindromic() and c.parity() == "odd"
                assert truth_table(c) == p
                hits += 1
        assert hits == 9

    def test_middle_gate_class_matches_input(self):
        # The middle gate has k-1 free lines when the input has 2**(k-1)
        # transpositions, so both share one cycle type.
        rng = random.Random(29)
        from revpal.census import iter_involutions

        sample = [
            p
            for p in iter_involutions(8)
            if p.size() >= 1 and p.size() & (p.size() - 1) == 0
        ]
        for p in rng.sample(sample, 40):
            c = build_palindrome(p)
            middle = c.gates[len(c) // 2]
            free = 3 - 1 - len(middle.controls)
            assert 1 << free == p.size()


class TestEvenOddPalindromes:
    def test_even_palindromes_are_identity(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 4)
            half = _random_gates(rng, n, rng.randint(0, 6))
            c = Circuit(n, half + half[::-1])
            assert c.is_palindromic()
            assert truth_table(c).is_identity()

    def test_odd_palindromes_conjugate_the_middle(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(1, 4)
            half = _random_gates(rng, n, rng.randint(0, 6))
            middle = rng.choice(enumerate_gates(n))
            c = Circuit(n, half + [middle.circuit_gate()] + half[::-1])
            assert c.is_palindromic()
            p = truth_table(c)
            assert not p.is_identity()
            assert p.cycle_type() == middle.permutation().cycle_type()


def _random_gates(rng, lines, length):
    gates = []
    for _ in range(length):
        target = rng.randint(1, lines)
        controls = {
            line: rng.random() < 0.5
            for line in range(1, lines + 1)
            if line != target and rng.random() < 0.5
        }
        gates.append(Gate("t", target, controls))
    return gates


class TestConjugatorBridge:
    def test_flank_orientation_realizes_conjugation(self):
        # The mirrored flank must implement sigma . middle . sigma^-1.
        rng = random.Random(47)
        for _ in range(50):
            sigma = random_perm(rng, 8)
            middle = rng.choice(enumerate_gates(3))
            flank = synthesize_permutation(sigma)
            c = Circuit(3, flank.gates[::-1] + (middle.circuit_gate(),) + flank.gates)
            assert truth_table(c) == conjugate(sigma, middle.permutation())


def _seeded_involution(rng, n, s):
    points = list(range(1 << n))
    rng.shuffle(points)
    pairs = zip(points[0 : 2 * s : 2], points[1 : 2 * s : 2])
    return Permutation.from_transpositions(pairs, 1 << n)


# sha256 of every builder output below, captured when the flank came to
# rotate each conjugator cycle of three or more points to skip its
# costliest edge instead of the edge into its smallest point, which moved
# the flanks of every draw with such a cycle.  A change to the gates any
# builder emits (flank order, middle gate, surplus blocks) must update it
# on purpose.
BUILDER_BYTES_SHA256 = "45e531fc5a73aa1dfda5e423e5b8a671de9e00bc03f2d8b7e614c36215c8ac47"
# The same draws on nine to eleven lines, captured with the pin above.
BUILDER_BYTES_9_11_SHA256 = "26f3886e1edb3181a08d8ce411f37093ab4d11cfdc032ee8cd4d12d08a8f5dbb"


def test_builder_bytes_are_pinned_for_nine_to_eleven_lines():
    from revpal.alternatives import build_ancilla_circuit, build_v_circuit
    from revpal.circuits import serialize_circuit

    digest = hashlib.sha256()
    for n in range(9, 12):
        rng = random.Random(f"builder-bytes:{n}")
        for s in (1, 1 << (n - 2)):
            p = _seeded_involution(rng, n, s)
            digest.update(serialize_circuit(build_palindrome(p)).encode())
        for s in (3, (1 << (n - 2)) + 1):
            p = _seeded_involution(rng, n, s)
            digest.update(serialize_circuit(build_ancilla_circuit(p)).encode())
            digest.update(serialize_circuit(build_v_circuit(p)).encode())
    assert digest.hexdigest() == BUILDER_BYTES_9_11_SHA256


def test_builder_bytes_are_pinned_for_four_to_eight_lines():
    from revpal.alternatives import build_ancilla_circuit, build_v_circuit
    from revpal.circuits import serialize_circuit

    digest = hashlib.sha256()
    for n in range(4, 9):
        rng = random.Random(f"builder-bytes:{n}")
        for s in (1, 1 << (n - 2)):
            p = _seeded_involution(rng, n, s)
            digest.update(serialize_circuit(build_palindrome(p)).encode())
        for s in (3, (1 << (n - 2)) + 1):
            p = _seeded_involution(rng, n, s)
            digest.update(serialize_circuit(build_ancilla_circuit(p)).encode())
            digest.update(serialize_circuit(build_v_circuit(p)).encode())
    assert digest.hexdigest() == BUILDER_BYTES_SHA256


def _cost(a, b):
    """Gates of the transposition chain swapping a and b: 2d - 1 at distance d."""
    return 2 * (a ^ b).bit_count() - 1


@pytest.mark.parametrize("n", range(3, 10))
def test_each_flank_cycle_skips_a_costliest_edge(n):
    # Seeded draws for all three builders.  _embedding's sigma keeps its
    # canonical cycles; the flank skips the first costliest edge of each,
    # so it costs the sum of its kept edges, no more than when each cycle
    # skipped its closing edge, into its smallest point.
    from revpal.alternatives import build_ancilla_circuit, build_v_circuit
    from revpal.simulate import equivalent, equivalent_with_ancilla
    from revpal.synth import _chain_gates, _embedding

    rng = random.Random(f"rotation:{n}")
    for s in (1 << (n - 2), 1 << (n - 3), 3, (1 << (n - 2)) - 1, (1 << (n - 3)) + 1):
        p = _seeded_involution(rng, n, s)
        _, _, sigma, surplus = _embedding(p, n)
        moved = Permutation.from_cycles(sigma, 1 << n).cycles()
        assert sigma == tuple(c for c in moved if len(c) > 1)
        expected, kept, unrotated = [], 0, 0
        for cycle in sigma:
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            costs = [_cost(a, b) for a, b in edges]
            j = costs.index(max(costs))
            kept += sum(costs) - costs[j]
            unrotated += sum(costs) - costs[-1]
            # A 2-cycle's two edges are one pair; it keeps its orientation.
            path = cycle[j + 1 :] + cycle[: j + 1] if len(cycle) > 2 else cycle
            for a, b in reversed(list(zip(path, path[1:]))):
                expected += transposition_chain(a, b, n)
        flank = _chain_gates(sigma, n)
        assert flank == expected
        assert len(flank) == kept <= unrotated
        assert truth_table(Circuit(n, flank)) == Permutation.from_cycles(sigma, 1 << n)
        if s & (s - 1) == 0:
            built = [(build_palindrome(p), equivalent, 0)]
        else:
            built = [
                (build_ancilla_circuit(p), equivalent_with_ancilla, len(surplus) + 1),
                (build_v_circuit(p), equivalent, len(surplus)),
            ]
        for c, check, half in built:
            assert len(c) == 2 * (kept + half) + 1
            assert check(c, p)
