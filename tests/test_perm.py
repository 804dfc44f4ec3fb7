import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import dense_nearest_conjugator
from revpal import perm
from revpal.perm import (
    Permutation,
    compose,
    conjugate,
    cycle_string,
    find_conjugator,
    lines_for_degree,
    match_pairs,
    one_line,
    parse_permutation,
)
from revpal.perm import _masks_of_weight


def random_perm(rng, degree):
    image = list(range(degree))
    rng.shuffle(image)
    return Permutation(image)


@st.composite
def permutations(draw, max_degree=16):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    return Permutation(draw(st.permutations(list(range(degree)))))


@st.composite
def permutation_pairs(draw, max_degree=16):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    p = Permutation(draw(st.permutations(list(range(degree)))))
    q = Permutation(draw(st.permutations(list(range(degree)))))
    return p, q


class TestBasics:
    def test_identity(self):
        assert Permutation.identity(4).image == (0, 1, 2, 3)
        p8 = Permutation.identity(8)
        assert p8.num_cycles() == 8
        assert p8.cycle_type() == (1,) * 8

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        # The error names the first missing value, not the whole image.
        with pytest.raises(ValueError) as err:
            Permutation([3, 0, 3, 3])
        assert str(err.value) == "not a bijection on 0..3: 1 is missing from the image"
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])
        with pytest.raises(ValueError):
            Permutation([])

    def test_an_entry_that_is_no_integer_fails_at_construction(self):
        # 1.0 == 1, so the bijection test alone would let [1.0, 0.0] through.
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            Permutation([1.0, 0.0])

    @pytest.mark.parametrize(
        "build, kind",
        [
            (lambda: Permutation.from_cycles([("0", 1)], 2), "str"),
            (lambda: Permutation.transposition(4, 0, 1.5), "float"),
            (lambda: Permutation.from_transpositions([(0, 1), (2, 3.0)], 4), "float"),
        ],
        ids=["from_cycles", "transposition", "from_transpositions"],
    )
    def test_a_point_that_is_no_integer_fails_at_construction(self, build, kind):
        # The constructors' own error, not one from the range test or the image write.
        with pytest.raises(TypeError, match=f"'{kind}' object cannot be interpreted as an integer"):
            build()

    def test_rejects_huge_degree(self):
        with pytest.raises(ValueError):
            Permutation.identity((1 << 16) + 1)

    @pytest.mark.parametrize(
        "degree, a, b, message",
        [
            (4, 0, 9, "cycle element 9 out of range 0..3"),
            (4, -1, 2, "cycle element -1 out of range 0..3"),
            (0, 0, 1, "degree must be between 1 and 65536, got 0"),
            (4, 2, 2, "transposition endpoints must differ"),
        ],
    )
    def test_transposition_errors(self, degree, a, b, message):
        with pytest.raises(ValueError) as err:
            Permutation.transposition(degree, a, b)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 1, 2)], "transposition 1 is not a pair of points"),
            ([(0, 1), (2,)], "transposition 2 is not a pair of points"),
            ([(0, 1), (1, 2)], "element 1 appears more than once"),
        ],
    )
    def test_from_transpositions_builds_only_involutions(self, pairs, message):
        with pytest.raises(ValueError) as err:
            Permutation.from_transpositions(pairs, 4)
        assert str(err.value) == message
        assert Permutation.from_transpositions([(0, 3), [2, 1]], 4).image == (3, 2, 1, 0)

    def test_compose_is_right_to_left(self):
        # Oracle: hand-traced table.  q = t(1 2) first, then p = t(0 1):
        # 0 -> q 0 -> p 1;  1 -> q 2 -> p 2;  2 -> q 1 -> p 0;  3 -> 3.
        p = Permutation.transposition(4, 0, 1)
        q = Permutation.transposition(4, 1, 2)
        assert compose(p, q).image == (1, 2, 0, 3)
        assert compose(p, q).cycles()[0] == (0, 1, 2)

    def test_compose_identity_and_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_perm(rng, 8)
            assert compose(p, Permutation.identity(8)) == p
            assert compose(Permutation.identity(8), p) == p
            assert compose(p, p.inverse()).is_identity()
            assert compose(p.inverse(), p).is_identity()

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(4), Permutation.identity(8))

    def test_product_repr_and_equality_with_other_types(self):
        p = Permutation.transposition(4, 0, 1)
        q = Permutation.transposition(4, 1, 2)
        assert p * q == compose(p, q)
        assert repr(Permutation([1, 0])) == "Permutation([1, 0])"
        assert (Permutation([0]) == 0) is False
        assert Permutation([0]) != (0,)


class TestCycles:
    def test_worked_example(self):
        p = Permutation([4, 2, 6, 0, 3, 1, 5, 7])
        # Canonical: longest first, ties by smallest first element.
        assert p.cycles() == ((1, 2, 6, 5), (0, 4, 3), (7,))
        assert p.num_cycles() == 3
        assert p.cycle_type() == (4, 3, 1)
        assert not p.is_involution()

    def test_identity_cycles(self):
        assert Permutation.identity(4).cycles() == ((0,), (1,), (2,), (3,))

    def test_from_cycles(self):
        p = Permutation.from_cycles([(0, 1), (2, 3)], 4)
        assert p.image == (1, 0, 3, 2)

    def test_from_cycles_fixpoints_omitted(self):
        p = Permutation.from_cycles([(0, 4, 3)], 8)
        assert p(7) == 7 and p(0) == 4 and p(3) == 0

    def test_from_cycles_errors(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([(0, 1), (1, 2)], 4)
        with pytest.raises(ValueError):
            Permutation.from_cycles([(0, 9)], 4)

    @pytest.mark.parametrize("cycles", [[(0, 1, 0)], [(0, 1), (2, 0)]])
    def test_a_repeat_is_named_within_and_across_cycles(self, cycles):
        with pytest.raises(ValueError) as err:
            Permutation.from_cycles(cycles, 4)
        assert str(err.value) == "element 0 appears more than once"

    @given(permutations())
    def test_cycle_round_trip(self, p):
        assert Permutation.from_cycles(p.cycles(), p.degree) == p

    @given(permutations())
    def test_cycles_partition_domain(self, p):
        elements = [x for c in p.cycles() for x in c]
        assert sorted(elements) == list(range(p.degree))

    @given(permutations())
    def test_canonical_form(self, p):
        cycles = p.cycles()
        assert all(c[0] == min(c) for c in cycles)
        keys = [(-len(c), c[0]) for c in cycles]
        assert keys == sorted(keys)


class TestInvolutions:
    def test_worked_non_involution(self):
        assert not Permutation([4, 2, 6, 0, 3, 1, 5, 7]).is_involution()

    def test_three_transpositions(self):
        p = Permutation.from_cycles([(0, 1), (3, 5), (2, 7)], 8)
        assert p.is_involution()
        assert p.size() == 3
        assert p.transpositions() == {(0, 1), (2, 7), (3, 5)}

    def test_identity_is_involution(self):
        p = Permutation.identity(8)
        assert p.is_involution()
        assert p.size() == 0
        assert p.transpositions() == frozenset()

    def test_transpositions_rejects_non_involution(self):
        p = Permutation.from_cycles([(0, 1, 2)], 4)
        with pytest.raises(ValueError):
            p.transpositions()
        with pytest.raises(ValueError):
            p.size()

    def test_involution_iff_parts_at_most_two_exhaustive_s4(self):
        import itertools

        for image in itertools.permutations(range(4)):
            p = Permutation(image)
            expected = all(part <= 2 for part in p.cycle_type())
            assert p.is_involution() == expected

    def test_involution_iff_parts_at_most_two_random(self):
        rng = random.Random(11)
        for degree in (8, 16):
            for _ in range(200):
                p = random_perm(rng, degree)
                expected = all(part <= 2 for part in p.cycle_type())
                assert p.is_involution() == expected

    def test_cycle_count_plus_size_is_degree(self):
        from revpal.census import iter_involutions

        for p in iter_involutions(8):
            assert p.num_cycles() + p.size() == 8


class TestConjugation:
    def test_conjugate_by_identity(self):
        p = Permutation([4, 2, 6, 0, 3, 1, 5, 7])
        assert conjugate(Permutation.identity(8), p) == p

    def test_relabeling_rule(self):
        # sigma = t(0 4) relabels t(0 1) into t(4 1) = t(1 4).
        sigma = Permutation.transposition(8, 0, 4)
        p = Permutation.transposition(8, 0, 1)
        assert conjugate(sigma, p).transpositions() == {(1, 4)}

    def test_type_preserved_random(self):
        rng = random.Random(23)
        for _ in range(1000):
            degree = rng.choice((4, 8, 16))
            sigma = random_perm(rng, degree)
            p = random_perm(rng, degree)
            assert conjugate(sigma, p).cycle_type() == p.cycle_type()

    def test_conjugate_matches_explicit_composition(self):
        rng = random.Random(5)
        for _ in range(50):
            sigma = random_perm(rng, 8)
            p = random_perm(rng, 8)
            assert conjugate(sigma, p) == compose(compose(sigma, p), sigma.inverse())

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(Permutation.identity(4), Permutation.identity(8))


class TestFindConjugator:
    def test_same_operand_gives_identity(self):
        p = Permutation([4, 2, 6, 0, 3, 1, 5, 7])
        assert find_conjugator(p, p).is_identity()

    def test_two_transpositions(self):
        p = Permutation.transposition(4, 0, 1)
        q = Permutation.transposition(4, 2, 3)
        sigma = find_conjugator(p, q)
        assert sigma.image == (2, 3, 0, 1)
        assert sigma(2) == 0 and sigma(3) == 1
        assert conjugate(sigma, q) == p

    def test_worked_pair(self):
        p = Permutation.from_cycles([(0, 1), (3, 5), (2, 7)], 8)
        q = Permutation.from_cycles([(1, 5), (2, 6), (3, 7)], 8)
        sigma = find_conjugator(p, q)
        assert conjugate(sigma, q) == p

    def test_type_mismatch(self):
        with pytest.raises(ValueError) as err:
            find_conjugator(
                Permutation.transposition(4, 0, 1),
                Permutation.from_cycles([(0, 1, 2)], 4),
            )
        assert str(err.value) == "cycle types differ: {2: 1, 1: 2} vs {3: 1, 1: 1}"

    def test_random_relabelings(self):
        rng = random.Random(31)
        for _ in range(500):
            degree = rng.choice((4, 8, 16))
            p = random_perm(rng, degree)
            tau = random_perm(rng, degree)
            q = conjugate(tau, p)
            sigma = find_conjugator(p, q)
            assert conjugate(sigma, q) == p

    def test_deterministic(self):
        rng = random.Random(37)
        p = random_perm(rng, 16)
        q = conjugate(random_perm(rng, 16), p)
        assert find_conjugator(p, q) == find_conjugator(p, q)


def canonical_conjugator(p, q):
    """Canonical cycles matched cycle by cycle, element by element: the rule
    of ``find_conjugator`` for every pair of operands but two involutions."""
    image = [0] * p.degree
    for pc, qc in zip(p.cycles(), q.cycles()):
        for px, qx in zip(pc, qc):
            image[qx] = px
    return Permutation(image)


@st.composite
def involution_pairs(draw):
    """Two involutions with as many pairs each on 1..8 lines; q keeps a
    drawn number of p's pairs, so shared pairs and fixpoints occur."""
    degree = 1 << draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=0, max_value=degree // 2))
    points = draw(st.permutations(list(range(degree))))
    p_pairs = list(zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]))
    kept = draw(st.integers(min_value=0, max_value=size))
    shared = {v for ab in p_pairs[:kept] for v in ab}
    rest = draw(st.permutations([x for x in points if x not in shared]))
    fresh = 2 * (size - kept)
    q_pairs = p_pairs[:kept] + list(zip(rest[0:fresh:2], rest[1:fresh:2]))
    return (
        Permutation.from_transpositions(p_pairs, degree),
        Permutation.from_transpositions(q_pairs, degree),
    )


class TestNearestConjugator:
    @given(involution_pairs())
    def test_conjugates_q_onto_p(self, pq):
        p, q = pq
        sigma = find_conjugator(p, q)
        assert conjugate(sigma, q) == p
        lines = (p.degree - 1).bit_length()
        rows = match_pairs(p.transpositions(), q.transpositions(), lines)
        assert sigma == dense_nearest_conjugator(p, q, rows)

    @given(involution_pairs())
    def test_shared_pairs_and_fixpoints_stay_fixed(self, pq):
        p, q = pq
        sigma = find_conjugator(p, q)
        for a, b in p.transpositions() & q.transpositions():
            assert sigma(a) == a and sigma(b) == b
        for x in range(p.degree):
            if p(x) == x == q(x):
                assert sigma(x) == x

    @given(involution_pairs())
    def test_same_operand_gives_identity(self, pq):
        p, q = pq
        assert find_conjugator(p, p).is_identity()
        assert find_conjugator(q, q).is_identity()

    @given(st.data())
    def test_other_cycle_types_keep_the_canonical_matching(self, data):
        degree = data.draw(st.integers(min_value=3, max_value=256))
        p = Permutation(data.draw(st.permutations(list(range(degree)))))
        if p.is_involution():
            p = compose(p, Permutation.from_cycles([(0, 1, 2)], degree))
        if p.is_involution():
            p = Permutation.from_cycles([(0, 1, 2)], degree)
        tau = Permutation(data.draw(st.permutations(list(range(degree)))))
        q = conjugate(tau, p)
        assert find_conjugator(p, q) == canonical_conjugator(p, q)

    def test_more_pairs_than_targets_are_refused(self):
        with pytest.raises(ValueError, match="^fewer pairs to match onto than to match$"):
            match_pairs([(0, 1), (2, 3)], [(0, 1)], 2)

    def test_masks_of_weight_come_in_combinations_order(self):
        # gates.nearest_gate keeps the first best control set, so its
        # choice depends on this order.
        for lines in range(11):
            for weight in range(lines + 1):
                expected = [sum(1 << i for i in c) for c in combinations(range(lines), weight)]
                assert list(_masks_of_weight(lines, weight)) == expected

    def test_match_pairs_does_not_depend_on_mask_order(self, monkeypatch):
        # match_pairs takes the least whole (distance, a, x, y) candidate.
        rng = random.Random(43)
        draws = []
        for _ in range(60):
            lines = rng.randint(1, 8)
            size = rng.randint(0, 1 << (lines - 1))
            p_points = rng.sample(range(1 << lines), 2 * size)
            q_points = rng.sample(range(1 << lines), 2 * size)
            draws.append((list(zip(p_points[::2], p_points[1::2])),
                          list(zip(q_points[::2], q_points[1::2])), lines))
        expected = [match_pairs(*draw) for draw in draws]
        masks = perm._masks_of_weight
        monkeypatch.setattr(perm, "_masks_of_weight", lambda lines, w: masks(lines, w)[::-1])
        assert [match_pairs(*draw) for draw in draws] == expected

    def test_one_differing_pair_moves_four_points(self):
        # p and q differ in one pair; sigma moves only what it must.
        p = Permutation.from_transpositions([(0, 1), (2, 3)], 8)
        q = Permutation.from_transpositions([(0, 1), (6, 7)], 8)
        sigma = find_conjugator(p, q)
        assert conjugate(sigma, q) == p
        assert [x for x in range(8) if sigma(x) != x] == [2, 3, 6, 7]


class TestGroupLaws:
    @given(permutation_pairs())
    def test_closure_and_degree(self, pq):
        p, q = pq
        assert compose(p, q).degree == p.degree

    @given(st.data())
    def test_associativity(self, data):
        degree = data.draw(st.integers(min_value=1, max_value=16))
        perm = st.permutations(list(range(degree))).map(Permutation)
        p, q, r = data.draw(perm), data.draw(perm), data.draw(perm)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(permutations())
    def test_identity_laws(self, p):
        e = Permutation.identity(p.degree)
        assert compose(p, e) == p
        assert compose(e, p) == p

    @given(permutations())
    def test_inverse_laws(self, p):
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()
        assert p.inverse().inverse() == p


class TestParsing:
    def test_one_line(self):
        p = parse_permutation("4 2 6 0 3 1 5 7")
        assert p.image == (4, 2, 6, 0, 3, 1, 5, 7)

    def test_one_line_commas(self):
        assert parse_permutation("1, 0, 3, 2").image == (1, 0, 3, 2)
        assert parse_permutation("1\t0,\xa03\u3000,2").image == (1, 0, 3, 2)

    def test_cycle_form(self):
        p = parse_permutation("(0 4 3)(1 2 6 5)")
        assert p.degree == 8
        assert p.image == (4, 2, 6, 0, 3, 1, 5, 7)

    def test_cycle_form_whitespace_and_commas(self):
        a = parse_permutation("(0, 4, 3)( 1 2 6 5 )")
        b = parse_permutation("(0 4 3)(1 2 6 5)")
        assert a == b
        assert parse_permutation("(0\t4,\xa03)(1\u20032 6 5)") == b

    def test_degree_inference_rounds_to_power_of_two(self):
        assert parse_permutation("(0 2)").degree == 4
        assert parse_permutation("(0 1)").degree == 2
        assert parse_permutation("(0 8)").degree == 16
        assert parse_permutation("(0 3)").degree == 4
        assert parse_permutation("(0 65535)").degree == 65536

    def test_degree_override(self):
        assert parse_permutation("(0 1)", degree=8).degree == 8

    def test_one_line_degree_mismatch(self):
        with pytest.raises(ValueError):
            parse_permutation("0 1 2 3", degree=8)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_permutation("(0 1")
        with pytest.raises(ValueError):
            parse_permutation("(0 a)")
        with pytest.raises(ValueError):
            parse_permutation("")
        with pytest.raises(ValueError):
            parse_permutation("()")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 x 3", "bad integer 'x' at entry 3"),
            ("(0 1)(2, a)", "bad integer 'a' at entry 4"),
            (
                "1 0 " + "7" * 24 + "x",
                "bad integer '77777777777777777777'... (25 characters) at entry 3",
            ),
            (" (0 1", "malformed cycle notation: unclosed '(' at column 2"),
            ("((0 1))", "malformed cycle notation: unclosed '(' at column 1"),
            ("(0 1) 2", "malformed cycle notation: text outside the parentheses at column 7"),
            ("(0 1))", "malformed cycle notation: text outside the parentheses at column 6"),
            ("(0 1)(2 65536)", "cycle element 65536 at entry 4 out of range 0..65535"),
            (
                f"(0 {'9' * 25})",
                "cycle element 99999999999999999999... (25 characters) at entry 2 "
                "out of range 0..65535",
            ),
            # Any white space separates, as in circuit files: tab, NBSP, comma.
            ("0\t1\xa0,x 3", "bad integer 'x' at entry 3"),
            ("(0\t1)(2,\xa0a)", "bad integer 'a' at entry 4"),
        ],
    )
    def test_error_names_the_place_not_the_text(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_permutation(text)
        assert str(err.value) == message

    @given(st.data())
    def test_one_line_form_reads_as_token_by_token(self, data):
        # Oracle: every token read by _parse_int, which names the first
        # entry at fault.  Permutations of 1..8 points with up to two
        # tokens swapped for hostile ones, and free text over digits, white
        # space, commas, signs, underscores and non-ASCII digits.
        from revpal.perm import _parse_int

        hostile = st.sampled_from(
            ["+1", "-0", "1_0", "_", "\u0663", "\u00b2", "\uff15", "0" * 4 + "1", "7" * 5000, "3x"]
        )
        if data.draw(st.booleans()):
            degree = data.draw(st.integers(1, 8))
            tokens = [str(x) for x in data.draw(st.permutations(range(degree)))]
            for i in data.draw(st.lists(st.integers(0, len(tokens) - 1), max_size=2)):
                tokens[i] = data.draw(hostile)
            seps = st.sampled_from([" ", ",", "\t", "\n", ", ", "\xa0", " ,, ", "\u3000"])
            text = data.draw(seps) + "".join(t + data.draw(seps) for t in tokens)
        else:
            text = data.draw(st.text(alphabet="0123456789 ,\t+-_\u0663\u00b2\uff15\xa0"))

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        def token_by_token():
            items = text.replace(",", " ").split()
            if not items:
                raise ValueError("empty permutation")
            return Permutation([_parse_int(tok, i) for i, tok in enumerate(items, 1)])

        assert outcome(lambda: parse_permutation(text)) == outcome(token_by_token)

    def test_round_trip_text_forms(self):
        p = Permutation([4, 2, 6, 0, 3, 1, 5, 7])
        assert parse_permutation(one_line(p)) == p
        assert parse_permutation(cycle_string(p), degree=8) == p
        assert cycle_string(Permutation.identity(4)) == "()"

    @given(st.data())
    def test_cycle_string_renders_the_canonical_cycles(self, data):
        # An involution is rendered from its sorted pairs; the reference is
        # the rendering of cycles() over every point.  Involutions, the
        # identity and other permutations are all drawn.
        degree = data.draw(st.integers(min_value=1, max_value=64))
        points = data.draw(st.permutations(list(range(degree))))
        kind = data.draw(st.sampled_from(["involution", "identity", "any"]))
        if kind == "any":
            p = Permutation(points)
        else:
            size = 0 if kind == "identity" else data.draw(st.integers(0, degree // 2))
            p = Permutation.from_transpositions(
                zip(points[0 : 2 * size : 2], points[1 : 2 * size : 2]), degree
            )
        cycles = [c for c in p.cycles() if len(c) > 1]
        expected = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
        assert cycle_string(p) == expected


class TestLinesForDegree:
    def test_powers(self):
        assert lines_for_degree(2) == 1
        assert lines_for_degree(8) == 3
        assert lines_for_degree(16) == 4

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            lines_for_degree(bad)
