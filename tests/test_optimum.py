"""Gate count against the exact optimum on three lines.

Every gate of ``enumerate_gates`` is self-inverse, so an odd palindrome
``F^R . g . F`` computes the conjugate of g by F's permutation, and
growing the palindrome by one gate on each side conjugates by that gate.
A breadth-first search from the 27 gates of three lines, two gates per
step, therefore reaches every palindromic involution of three lines at its
shortest odd palindrome length, the way Shende, Prasad, Markov and Hayes
(IEEE TCAD 2003) enumerated optimal three-line circuits.
"""

from fractions import Fraction
from functools import cache

from revpal.census import iter_involutions
from revpal.gates import enumerate_gates
from revpal.synth import PALINDROMIC, build_palindrome, classify

#: Mean of built length / optimal length over all 343 inputs, exactly as
#: measured when the flank came to skip each conjugator cycle's costliest
#: edge: 1.307 (1.443 before, since the middle gate became the nearest gate
#: and the conjugator a nearest matching; 4.60 with a fixed gate and
#: cycle-by-cycle matching).  A builder that does better lowers it on purpose.
MEAN_RATIO_BOUND = Fraction(15691, 12005)
#: Mean built length over the same inputs: 6.07 (6.83 before, 20.03 before
#: that; the optimum averages 4.54).
MEAN_GATES_BOUND = Fraction(2083, 343)


@cache
def optimal_palindrome_lengths() -> dict[tuple[int, ...], int]:
    """Shortest odd palindrome length of every palindromic involution on 3 lines."""
    gates = [g.permutation().image for g in enumerate_gates(3)]
    best = {g: 1 for g in gates}
    frontier, length = list(best), 1
    while frontier:
        length += 2
        grown = []
        for p in frontier:
            for g in gates:
                q = tuple(g[p[g[x]]] for x in range(8))
                if q not in best:
                    best[q] = length
                    grown.append(q)
        frontier = grown
    return best


def palindromic_inputs():
    return [p for p in iter_involutions(8) if classify(p).kind == PALINDROMIC]


def test_search_reaches_every_palindromic_involution():
    best = optimal_palindrome_lengths()
    inputs = palindromic_inputs()
    assert len(inputs) == 343
    assert set(best) == {p.image for p in inputs}
    assert Fraction(sum(best.values()), len(best)) == Fraction(1557, 343)  # 4.54


def test_built_palindromes_are_never_shorter_than_optimal():
    best = optimal_palindrome_lengths()
    for p in palindromic_inputs():
        c = build_palindrome(p)
        assert c.is_palindromic() and len(c) % 2 == 1
        assert len(c) >= best[p.image]


def test_mean_gate_count_against_optimal_is_pinned():
    best = optimal_palindrome_lengths()
    lengths = [(len(build_palindrome(p)), best[p.image]) for p in palindromic_inputs()]
    ratio = sum(Fraction(built, opt) for built, opt in lengths) / len(lengths)
    gates = Fraction(sum(built for built, _ in lengths), len(lengths))
    assert ratio <= MEAN_RATIO_BOUND
    assert gates <= MEAN_GATES_BOUND
