"""Counting the reversible-function classes, by formula and by enumeration.

All arithmetic is exact Python integers; the five-line column reaches
~2.6e35 and must not pass through floats.  ``brute_force_census`` is the
independent oracle for small line counts: it tallies the same classes by
enumerating permutations, involutions and gates directly.

For three lines there are 8! = 40,320 reversible functions; the value
40,240 occasionally quoted in summaries of these counts is a typo.
"""

from __future__ import annotations

__all__ = [
    "CensusReport",
    "brute_force_census",
    "centralizer_order",
    "count_involutions",
    "count_mpmct",
    "count_of_type",
    "count_palindromic",
    "count_reversible",
    "count_single_target",
    "count_transpositions",
    "double_factorial",
    "formula_census",
    "iter_involutions",
    "partitions",
]

import itertools
import json
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import comb, factorial, prod

from .gates import enumerate_gates, enumerate_single_target_gates
from .perm import MAX_LINES, Permutation

#: Integer partitions are only ever materialized for small degrees.
MAX_PARTITION_TOTAL = 16

BRUTE_FORCE_MAX_LINES = 3

#: Counts up to this many bits go through ``str`` directly: ~600 digits,
#: under the smallest digit limit CPython lets ``sys.set_int_max_str_digits``
#: set (640).
_STR_BITS = 2000


def double_factorial(m: int) -> int:
    """m!! = m * (m-2) * (m-4) * ...; (-1)!! = 0!! = 1 (empty products)."""
    if m < -1:
        raise ValueError(f"double factorial undefined for {m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def centralizer_order(mu: Iterable[int]) -> int:
    """prod(i**a_i * a_i!) over the multiplicities a_i of part i in ``mu``.

    The symmetric group on sum(mu) points has exactly ``factorial(N) //
    centralizer_order(mu)`` permutations of cycle type ``mu``.
    """
    counts = Counter(mu)  # keys in order of first appearance
    for part in counts:
        if part < 1:
            raise ValueError(f"partition parts must be positive, got {part}")
    return prod(part**a * factorial(a) for part, a in counts.items())


def count_of_type(mu: Iterable[int], degree: int | None = None) -> int:
    """Number of permutations with cycle type ``mu`` (a partition of the degree)."""
    parts = tuple(mu)
    total = sum(parts)
    if degree is not None and degree != total:
        raise ValueError(f"{parts} is a partition of {total}, not of {degree}")
    return factorial(total) // centralizer_order(parts)


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Yield all integer partitions of ``total`` as non-increasing tuples."""
    if total < 0:
        raise ValueError("cannot partition a negative total")
    if total > MAX_PARTITION_TOTAL:
        raise ValueError(f"partitions are materialized only up to {MAX_PARTITION_TOTAL}")
    yield from _partitions(total, total)


def _partitions(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(largest, total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def count_reversible(n: int) -> int:
    """(2**n)! bijections on n-bit words."""
    return factorial(1 << n)


def _with_pairs(points: int, counts: Iterable[int]) -> int:
    """Involutions on ``points`` points with j swapped pairs, over each j in ``counts``.

    For each j: the ways to choose the 2j moved points times the (2j-1)!!
    perfect matchings of them.  The three involution rows are this sum.
    """
    return sum(double_factorial(2 * j - 1) * comb(points, 2 * j) for j in counts)


def count_involutions(n: int) -> int:
    """Self-inverse bijections on n-bit words, the identity included: any pair count."""
    return _with_pairs(1 << n, range((1 << n) // 2 + 1))


def count_palindromic(n: int) -> int:
    """Involutions whose transposition count is a power of two.

    Exactly the functions realizable as an odd palindromic circuit on n
    lines; the identity (zero transpositions) is not among them.
    """
    return _with_pairs(1 << n, (1 << j for j in range(n)))


def count_single_target(n: int) -> int:
    """Distinct functions of the n * 2**(2**(n-1)) single-target gates.

    All n gates with a false control function collapse onto the identity,
    hence n * (2**(2**(n-1)) - 1) + 1.
    """
    return n * ((1 << (1 << (n - 1))) - 1) + 1


def count_mpmct(n: int) -> int:
    """n * 3**(n-1): every non-target line is free, positive or negative."""
    return n * 3 ** (n - 1)


def count_transpositions(n: int) -> int:
    """Involutions with one pair: the 2**(n-1) * (2**n - 1) pairs of n-bit words."""
    return _with_pairs(1 << n, (1,))


#: The six classes of the counting table, in the order reports list them.
_FORMULAS = {
    "reversible": count_reversible,
    "self-inverse": count_involutions,
    "palindromic": count_palindromic,
    "single-target": count_single_target,
    "mpmct": count_mpmct,
    "transposition": count_transpositions,
}


def _decimal_text(count: int) -> str:
    """The decimal digits of a non-negative count of any size.

    ``str`` refuses ints beyond the interpreter's digit limit (4300 by
    default), and (2**11)! has 5,895 digits.  Splitting by a power of ten
    into parts ``str`` accepts leaves that interpreter-wide limit alone.
    """
    if count.bit_length() <= _STR_BITS:
        return str(count)
    k = count.bit_length() * 3 // 20  # about half the digits (log10(2) ~ 0.3)
    high, low = divmod(count, 10**k)
    return _decimal_text(high) + _decimal_text(low).zfill(k)


@dataclass(frozen=True)
class CensusReport:
    """Counts of the six function classes for a fixed line count."""

    n: int
    method: str  # "formula" or "brute-force"
    rows: dict[str, int]

    def as_text(self) -> str:
        out = [f"n: {self.n}", f"method: {self.method}"]
        out += [f"{name}: {_decimal_text(self.rows[name])}" for name in _FORMULAS]
        return "\n".join(out) + "\n"

    def as_json(self) -> str:
        # Counts are serialized as strings: the n=5 column overflows the
        # 64-bit integers many JSON consumers assume.
        payload = {
            "n": self.n,
            "method": self.method,
            "rows": {name: _decimal_text(self.rows[name]) for name in _FORMULAS},
        }
        return json.dumps(payload, indent=2) + "\n"


def formula_census(n: int) -> CensusReport:
    """All six class counts by closed formula."""
    if n < 1:
        raise ValueError("need at least one line")
    if n > MAX_LINES:
        raise ValueError(f"the census counts at most {MAX_LINES} lines, got {n}")
    return CensusReport(n, "formula", {name: fn(n) for name, fn in _FORMULAS.items()})


def iter_involutions(degree: int) -> Iterator[Permutation]:
    """Yield every involution on {0..degree-1}, the identity included."""
    image = list(range(degree))

    def rec(points: list[int]) -> Iterator[None]:
        if not points:
            yield None
            return
        a = points[0]
        rest = points[1:]
        yield from rec(rest)  # a stays fixed
        for idx, b in enumerate(rest):
            image[a], image[b] = b, a
            yield from rec(rest[:idx] + rest[idx + 1 :])
            image[a], image[b] = a, b

    for _ in rec(list(range(degree))):
        yield Permutation(image)


def brute_force_census(n: int) -> CensusReport:
    """The six class counts by direct enumeration; supports n <= 3.

    Reversible functions are counted by enumerating S_{2**n} outright; the
    involution classes from one tally of the generated involutions by
    transposition count; the gate classes from enumerating every gate and
    collecting distinct permutations.
    """
    if not 1 <= n <= BRUTE_FORCE_MAX_LINES:
        raise ValueError(
            f"brute-force census supports 1..{BRUTE_FORCE_MAX_LINES} lines, got {n}"
        )
    degree = 1 << n
    sizes = Counter(p.size() for p in iter_involutions(degree))
    # One count per row of _FORMULAS, in its order.
    counts = (
        sum(1 for _ in itertools.permutations(range(degree))),
        sum(sizes.values()),
        sum(count for s, count in sizes.items() if s and not s & (s - 1)),
        len({g.permutation() for g in enumerate_single_target_gates(n)}),
        len({g.permutation() for g in enumerate_gates(n)}),
        sizes[1],
    )
    return CensusReport(n, "brute-force", dict(zip(_FORMULAS, counts)))
