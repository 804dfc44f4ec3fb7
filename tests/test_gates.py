import copy
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revpal.circuits import Gate
from revpal.gates import (
    MpmctGate,
    SingleTargetGate,
    enumerate_gates,
    enumerate_single_target_gates,
    hamming_one_transpositions,
    line_transpositions,
    nearest_gate,
    recognize_mpmct,
    span_mask,
    transposition_gate,
)
from revpal.perm import Permutation


class TestLineTranspositions:
    def test_h31(self):
        assert line_transpositions(3, 1) == {(0, 1), (2, 3), (4, 5), (6, 7)}

    def test_h33(self):
        assert line_transpositions(3, 3) == {(0, 4), (1, 5), (2, 6), (3, 7)}

    def test_sizes(self):
        for n in (1, 2, 3, 4):
            assert len(hamming_one_transpositions(n)) == n * 2 ** (n - 1)
            for i in range(1, n + 1):
                assert len(line_transpositions(n, i)) == 2 ** (n - 1)

    def test_partition_of_hn(self):
        for n in (2, 3, 4):
            union = set()
            total = 0
            for i in range(1, n + 1):
                part = line_transpositions(n, i)
                total += len(part)
                union |= part
            assert union == hamming_one_transpositions(n)
            assert total == len(union)

    def test_endpoints_differ_in_bit_i(self):
        for i in (1, 2, 3):
            for a, b in line_transpositions(3, i):
                assert a ^ b == 1 << (i - 1)

    def test_line_out_of_range(self):
        with pytest.raises(ValueError):
            line_transpositions(3, 4)


class TestMpmctGate:
    def test_validation(self):
        with pytest.raises(ValueError):
            MpmctGate(3, 4)
        with pytest.raises(ValueError):
            MpmctGate(3, 1, {1: True})
        with pytest.raises(ValueError):
            MpmctGate(3, 1, {5: True})

    @pytest.mark.parametrize(
        "lines, target, controls, message",
        [
            (3, 4, {}, "line x4 out of range 1..3"),
            (3, 1, {5: True, 2: False}, "line x5 out of range 1..3"),
            (3, 0, {}, "target line must be >= 1, got 0"),
            (0, 1, {}, "line x1 out of range 1..0"),
        ],
    )
    def test_one_line_range_rule(self, lines, target, controls, message):
        with pytest.raises(ValueError) as err:
            MpmctGate(lines, target, controls)
        assert str(err.value) == message

    def test_a_line_count_that_is_no_integer_fails_at_construction(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            MpmctGate(3.0, 1)

    def test_not_gate_transpositions(self):
        g = MpmctGate(3, 3)
        assert g.transpositions() == {(0, 4), (1, 5), (2, 6), (3, 7)}

    def test_fully_controlled_transpositions(self):
        g = MpmctGate(3, 3, {1: False, 2: False})
        assert g.transpositions() == {(0, 4)}

    def test_transposition_count(self):
        # 2**(k-1) transpositions for k-1 free lines.
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_gates(n):
                k = n - g.num_controls
                assert len(g.transpositions()) == 2 ** (k - 1)
                # The masks against the per-line definitions: the gate fires
                # where every control line carries its polarity, and swaps
                # each such input with its target-flipped partner.  The
                # pairs, listed by a walk over the free lines, must be those
                # of a fires() scan of every input.
                bit = 1 << (g.target - 1)
                fires = [
                    all((x >> (line - 1)) & 1 == pol for line, pol in g.controls)
                    for x in range(1 << n)
                ]
                assert [g.fires(x) for x in range(1 << n)] == fires
                assert g.transpositions() == {
                    (x, x | bit) for x in range(1 << n) if not x & bit and fires[x]
                }

    def test_permutation_is_involution(self):
        for g in enumerate_gates(3):
            p = g.permutation()
            assert p.is_involution()
            assert p.transpositions() == g.transpositions()

    def test_transposition_gate(self):
        g = transposition_gate(0, 1, 3)
        assert g == MpmctGate(3, 1, {2: False, 3: False})
        assert g.transpositions() == {(0, 1)}
        with pytest.raises(ValueError):
            transposition_gate(0, 3, 3)

    def test_repr_equality_and_hash(self):
        g = MpmctGate(3, 3, {2: False, 1: False})
        assert repr(g) == "MpmctGate(lines=3, target=x3, controls=[-x1, -x2])"
        assert g == MpmctGate(3, 3, [(1, False), (2, False)])
        assert hash(g) == hash(MpmctGate(3, 3, [(1, False), (2, False)]))
        assert g != MpmctGate(4, 3, {1: False, 2: False})
        assert g != g.circuit_gate()
        assert g.circuit_gate() == Gate("t", 3, {1: False, 2: False})
        with pytest.raises(AttributeError):
            g.target = 2
        assert pickle.loads(pickle.dumps(g)) == copy.copy(g) == g


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: transposition_gate(0, 8, 3), "endpoints 0, 8 out of range for 3 lines"),
        (lambda: recognize_mpmct([(0, 9)], 3), "endpoint out of range for 3 lines"),
        (
            lambda: nearest_gate([], 3, 0),
            "the nearest gate to an empty transposition set is undefined",
        ),
    ],
    ids=["transposition_gate", "recognize_mpmct", "nearest_gate"],
)
def test_points_off_the_lines_or_none_at_all_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestSpanMask:
    def test_worked_examples(self):
        assert span_mask({(4, 5), (6, 7)}) == 0b011
        assert span_mask({(2, 3), (4, 5)}) == 0b111
        assert span_mask({(0, 4)}) == 0b100

    def test_independent_of_base_point(self):
        rng = random.Random(3)
        pool = sorted(line_transpositions(4, 2))
        for _ in range(50):
            sub = rng.sample(pool, rng.randint(1, 6))
            masks = set()
            for rotation in range(len(sub)):
                masks.add(span_mask(sub[rotation:] + sub[:rotation]))
            assert len(masks) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            span_mask([])


class TestRecognize:
    def test_one_control_example(self):
        g = recognize_mpmct({(4, 5), (6, 7)}, 3)
        assert g == MpmctGate(3, 1, {3: True})

    def test_rejected_example(self):
        assert recognize_mpmct({(2, 3), (4, 5)}, 3) is None

    def test_not_gate(self):
        assert recognize_mpmct({(0, 4), (1, 5), (2, 6), (3, 7)}, 3) == MpmctGate(3, 3)

    def test_mixed_lines_rejected(self):
        # (0 1) flips line 1 but (2 6) flips line 3.
        assert recognize_mpmct({(0, 1), (2, 6)}, 3) is None
        # These fill a subcube of the right size, but flip several lines.
        assert recognize_mpmct({(0, 1), (2, 3), (4, 6), (5, 7)}, 3) is None
        assert recognize_mpmct({(0, 3), (1, 2)}, 2) is None

    def test_non_power_of_two_rejected(self):
        assert recognize_mpmct({(0, 1), (2, 3), (4, 5)}, 3) is None

    def test_overlapping_rejected(self):
        with pytest.raises(ValueError):
            recognize_mpmct({(0, 1), (1, 3)}, 2)

    def test_empty_set(self):
        assert recognize_mpmct(set(), 3) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_all_gates(self, n):
        for g in enumerate_gates(n):
            assert recognize_mpmct(g.transpositions(), n) == g

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_equivalence(self, n):
        # Accepting exactly the enumerated gates' transposition sets, over
        # every power-of-two-sized subset of every per-line pool.
        gate_sets = {g.transpositions(): g for g in enumerate_gates(n)}
        seen = set()
        for i in range(1, n + 1):
            pool = sorted(line_transpositions(n, i))
            size = 1
            while size <= len(pool):
                for subset in combinations(pool, size):
                    got = recognize_mpmct(subset, n)
                    key = frozenset(subset)
                    if key in gate_sets:
                        assert got == gate_sets[key]
                        seen.add(key)
                    else:
                        assert got is None
                size *= 2
        assert len(seen) == len(gate_sets)

    @given(st.data())
    def test_any_disjoint_pairs(self, data):
        # Pairs at any distance and on any lines, against the enumeration.
        n = data.draw(st.integers(1, 4))
        points = data.draw(st.permutations(range(1 << n)))
        size = 1 << data.draw(st.integers(0, n - 1))
        pairs = [(points[2 * j], points[2 * j + 1]) for j in range(size)]
        key = frozenset((min(ab), max(ab)) for ab in pairs)
        gate_sets = {g.transpositions(): g for g in enumerate_gates(n)}
        assert recognize_mpmct(pairs, n) == gate_sets.get(key)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 27), (4, 108), (5, 405)])
    def test_total(self, n, count):
        assert len(enumerate_gates(n)) == count

    def test_by_target(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                assert len(enumerate_gates(n, target=i)) == 3 ** (n - 1)

    def test_by_class(self):
        from math import comb

        for n in (2, 3, 4):
            for k in range(1, n + 1):
                per_line = comb(n - 1, k - 1) * 2 ** (n - k)
                assert len(enumerate_gates(n, target=1, k=k)) == per_line
                assert len(enumerate_gates(n, k=k)) == n * per_line

    def test_three_uncontrolled_nots(self):
        gates = enumerate_gates(3, k=3)
        assert len(gates) == 3
        assert all(g.num_controls == 0 for g in gates)

    def test_no_duplicates(self):
        gates = enumerate_gates(4)
        assert len(set(gates)) == len(gates)

    def test_filters_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_gates(3, target=0)
        with pytest.raises(ValueError):
            enumerate_gates(3, k=4)


class TestSingleTarget:
    def test_or_control_function(self):
        # g(x1, x2) = x1 or x2 controlling x3: table bit j set for j=1,2,3.
        g = SingleTargetGate(3, 3, 0b1110)
        assert g.permutation() == Permutation([0, 5, 6, 7, 4, 1, 2, 3])
        assert g.transpositions() == {(1, 5), (2, 6), (3, 7)}

    def test_false_control_is_identity(self):
        g = SingleTargetGate(3, 3, 0)
        assert g.permutation().is_identity()
        assert g.transpositions() == frozenset()

    def test_table_width_validation(self):
        with pytest.raises(ValueError):
            SingleTargetGate(3, 3, 1 << 4)
        SingleTargetGate(3, 3, (1 << 4) - 1)

    def test_table_width_check_allocates_little(self):
        # The check reads the table's bit length: a bound of 2**(lines-1)
        # bits to compare against would take 64 GiB at 40 lines.
        for lines in (40, 10**6):
            tracemalloc.start()
            try:
                SingleTargetGate(lines, 1, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize(
        "lines, target, table, message",
        [
            (0, 1, 0, "a gate needs at least one line"),
            (3, 4, 0, "target x4 out of range 1..3"),
            (3, 3, 1 << 4, "control table must fit in 4 bits, got 16"),
        ],
    )
    def test_each_check_gives_its_reason(self, lines, target, table, message):
        with pytest.raises(ValueError) as err:
            SingleTargetGate(lines, target, table)
        assert str(err.value) == message

    def test_repr_equality_and_round_trip(self):
        g = SingleTargetGate(3, 3, 0b1110)
        assert repr(g) == "SingleTargetGate(lines=3, target=x3, table=0xe)"
        assert g == SingleTargetGate(lines=3, target=3, table=14) == (3, 3, 14)
        assert g != SingleTargetGate(3, 2, 0b1110)
        with pytest.raises(AttributeError):
            g.table = 0
        assert pickle.loads(pickle.dumps(g)) == copy.copy(g) == g

    def test_transpositions_stay_on_target_line(self):
        for g in enumerate_single_target_gates(2):
            assert g.transpositions() <= line_transpositions(2, g.target)

    def test_transpositions_match_the_table(self):
        # Scan every input: pack its non-target bits, lowest line first,
        # and look the index up in the table.  The gate fires where that
        # bit is set, whatever its target bit, and swaps each such input
        # with its target-flipped partner, as in the MPMCT check above.
        for n in (1, 2, 3):
            for g in enumerate_single_target_gates(n):
                bit = 1 << (g.target - 1)
                others = [line for line in range(1, n + 1) if line != g.target]
                fires = []
                for x in range(1 << n):
                    index = sum(
                        ((x >> (line - 1)) & 1) << j for j, line in enumerate(others)
                    )
                    fires.append(bool((g.table >> index) & 1))
                assert [g.fires(x) for x in range(1 << n)] == fires
                assert g.transpositions() == {
                    (x, x | bit) for x in range(1 << n) if not x & bit and fires[x]
                }

    def test_enumeration_count(self):
        for n in (1, 2, 3):
            assert len(enumerate_single_target_gates(n)) == n * 2 ** (2 ** (n - 1))

    def test_distinct_functions(self):
        from revpal.census import count_single_target

        for n in (1, 2, 3):
            perms = {g.permutation() for g in enumerate_single_target_gates(n)}
            assert len(perms) == count_single_target(n)


class TestSubsetChain:
    def test_mpmct_within_single_target_within_involutions(self):
        n = 3
        mpmct = {g.permutation() for g in enumerate_gates(n)}
        stg = {g.permutation() for g in enumerate_single_target_gates(n)}
        assert mpmct < stg
        assert all(p.is_involution() for p in stg)

    def test_single_transpositions_have_power_of_two_size(self):
        # Size 1 = 2**0: every plain transposition already sits in the
        # class realizable by odd palindromes.
        from revpal.synth import PALINDROMIC, classify

        p = Permutation.transposition(8, 3, 6)
        assert classify(p).kind == PALINDROMIC
        assert classify(p).k == 1
