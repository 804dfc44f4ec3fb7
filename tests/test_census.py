import itertools
import json
from math import factorial

import pytest

from revpal.census import (
    CensusReport,
    brute_force_census,
    centralizer_order,
    count_involutions,
    count_mpmct,
    count_of_type,
    count_palindromic,
    count_reversible,
    count_single_target,
    count_transpositions,
    double_factorial,
    formula_census,
    iter_involutions,
    partitions,
)
from revpal.perm import MAX_LINES, Permutation


class TestDoubleFactorial:
    @pytest.mark.parametrize(
        "m,expected",
        [(-1, 1), (0, 1), (1, 1), (2, 2), (5, 15), (6, 48), (7, 105), (9, 945)],
    )
    def test_values(self, m, expected):
        assert double_factorial(m) == expected

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-2)

    def test_odd_double_factorial_counts_matchings(self):
        # (2k-1)!! = number of perfect matchings of 2k points; oracle below
        # enumerates matchings directly.
        def matchings(points):
            if not points:
                return 1
            a, rest = points[0], points[1:]
            return sum(
                matchings(rest[:i] + rest[i + 1 :]) for i in range(len(rest))
            )

        for k in range(1, 5):
            assert double_factorial(2 * k - 1) == matchings(list(range(2 * k)))


class TestCycleTypeCounts:
    def test_transpositions_in_s4(self):
        assert centralizer_order((2, 1, 1)) == 4
        assert count_of_type((2, 1, 1)) == 6

    def test_identity_class(self):
        assert count_of_type((1, 1, 1, 1)) == 1

    def test_worked_type_against_scan(self):
        mu = (4, 3, 1)
        assert count_of_type(mu, degree=8) == 3360
        scan = sum(
            1
            for image in itertools.permutations(range(8))
            if Permutation(image).cycle_type() == mu
        )
        assert scan == 3360

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            count_of_type((2, 1), degree=4)

    def test_nonpositive_part(self):
        with pytest.raises(ValueError):
            centralizer_order((2, 0))

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_types_partition_the_group(self, total):
        assert sum(count_of_type(mu) for mu in partitions(total)) == factorial(total)


class TestPartitions:
    def test_small_counts(self):
        # p(n) for n = 0..8: 1 1 2 3 5 7 11 15 22
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for total, want in enumerate(expected):
            assert sum(1 for _ in partitions(total)) == want

    def test_shape(self):
        for mu in partitions(6):
            assert sum(mu) == 6
            assert list(mu) == sorted(mu, reverse=True)

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            list(partitions(17))

    def test_negative_total(self):
        with pytest.raises(ValueError, match="^cannot partition a negative total$"):
            list(partitions(-1))


TABLE = {
    # n: (reversible, self-inverse, palindromic, single-target, mpmct, transposition)
    1: (2, 2, 1, 2, 1, 1),
    2: (24, 10, 9, 7, 6, 6),
    3: (40320, 764, 343, 46, 27, 28),
    4: (20922789888000, 46206736, 3383955, 1021, 108, 120),
    5: (
        263130836933693530167218012160000000,
        22481059424730751232,
        193117190044580251,
        327676,
        405,
        496,
    ),
}


class TestFormulas:
    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_table_row(self, n):
        rev, inv, pal, stg, mpmct, trans = TABLE[n]
        assert count_reversible(n) == rev
        assert count_involutions(n) == inv
        assert count_palindromic(n) == pal
        assert count_single_target(n) == stg
        assert count_mpmct(n) == mpmct
        assert count_transpositions(n) == trans

    def test_involutions_against_recurrence(self):
        # Independent oracle: a(m) = a(m-1) + (m-1) a(m-2) counts the
        # involutions of S_m, identity included.
        a = [1, 1]
        for m in range(2, 513):
            a.append(a[m - 1] + (m - 1) * a[m - 2])
        for n in range(1, 10):
            assert count_involutions(n) == a[1 << n]

    def test_formula_census_line_ceiling(self):
        with pytest.raises(ValueError):
            formula_census(MAX_LINES + 1)

    def test_formula_census_line_floor(self):
        with pytest.raises(ValueError, match="^need at least one line$"):
            formula_census(0)

    def test_palindromic_against_type_counts(self):
        for n in range(1, 9):
            degree = 1 << n
            total = 0
            for j in (1 << e for e in range(n)):
                mu = (2,) * j + (1,) * (degree - 2 * j)
                total += count_of_type(mu)
            assert count_palindromic(n) == total
            assert count_transpositions(n) == count_of_type((2,) + (1,) * (degree - 2))

    def test_involutions_against_small_part_partitions(self):
        for n in (1, 2, 3):
            degree = 1 << n
            total = sum(
                count_of_type(mu)
                for mu in partitions(degree)
                if all(part <= 2 for part in mu)
            )
            assert count_involutions(n) == total

    def test_subset_chain_strict(self):
        for n in range(2, 8):
            assert count_palindromic(n) < count_involutions(n) < count_reversible(n)

    def test_leftover_involutions(self):
        # Involutions needing the ancilla or half-NOT constructions:
        # everything but the power-of-two sizes and the identity.
        assert count_involutions(3) - count_palindromic(3) - 1 == 420
        assert count_of_type((2, 2, 2) + (1,) * 2) == 420


class TestBruteForce:
    def test_n1(self):
        assert brute_force_census(1).rows == {
            "reversible": 2,
            "self-inverse": 2,
            "palindromic": 1,
            "single-target": 2,
            "mpmct": 1,
            "transposition": 1,
        }

    def test_n2_full_scan(self):
        rows = brute_force_census(2).rows
        assert rows["reversible"] == 24
        assert rows["self-inverse"] == 10
        assert rows["palindromic"] == 9

    def test_n3_scan(self):
        rows = brute_force_census(3).rows
        assert rows["reversible"] == 40320
        assert rows["self-inverse"] == 764
        assert rows["palindromic"] == 343
        assert rows["single-target"] == 46
        assert rows["mpmct"] == 27
        assert rows["transposition"] == 28

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_formulas(self, n):
        assert brute_force_census(n).rows == formula_census(n).rows

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_census(4)


class TestIterInvolutions:
    def test_count_matches_formula(self):
        for degree, n in ((2, 1), (4, 2), (8, 3)):
            assert sum(1 for _ in iter_involutions(degree)) == count_involutions(n)

    def test_all_distinct_involutions(self):
        seen = set()
        for p in iter_involutions(8):
            assert p.is_involution()
            seen.add(p)
        assert len(seen) == 764


class TestReport:
    def test_text_shape(self):
        text = formula_census(3).as_text()
        assert "palindromic: 343" in text
        assert text.startswith("n: 3\nmethod: formula\n")

    def test_json_counts_are_strings(self):
        payload = json.loads(formula_census(5).as_json())
        assert payload["rows"]["self-inverse"] == "22481059424730751232"
        assert payload["rows"]["reversible"] == str(count_reversible(5))

    def test_methods_agree_invariant(self):
        report = brute_force_census(2)
        assert isinstance(report, CensusReport)
        assert report.method == "brute-force"
        assert report.rows == formula_census(2).rows
