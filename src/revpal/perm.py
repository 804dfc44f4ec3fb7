"""Exact arithmetic on permutations of {0, ..., N-1}.

Permutations are the semantic carrier for reversible functions: a circuit
on n lines computes a bijection on its 2**n input assignments.  Everything
here is exact and immutable: composition, inversion, cycle analysis,
involution structure, and conjugator construction.

Two conventions are fixed for the whole package:

* indices are 0-based, so the identity on N points maps x to x;
* ``compose(p, q)`` applies ``q`` first, i.e. ``compose(p, q)(x) == p(q(x))``.
"""

from __future__ import annotations

__all__ = [
    "Permutation",
    "Transposition",
    "compose",
    "conjugate",
    "cycle_string",
    "find_conjugator",
    "lines_for_degree",
    "one_line",
    "parse_permutation",
]

import contextlib
import functools
import operator
import re
from collections import Counter
from collections.abc import Iterable
from itertools import combinations, compress

#: The most lines run on every input at once, or counted by the census.
MAX_LINES = 16
MAX_DEGREE = 1 << MAX_LINES

#: A 2-cycle, stored canonically as ``(a, b)`` with ``a < b``.
Transposition = tuple[int, int]


class Permutation:
    """A bijection on {0, ..., N-1} in one-line form: ``image[x]`` is p(x).

    A permutation never changes, so its pair set (None when it is no
    involution) is derived once, on first use, and kept.
    """

    __slots__ = ("_image", "_pairs")

    def __init__(self, image: Iterable[int]):
        img = tuple(map(operator.index, image))
        if not 1 <= len(img) <= MAX_DEGREE:
            raise ValueError(
                f"degree must be between 1 and {MAX_DEGREE}, got {len(img)}"
            )
        if sorted(img) != list(range(len(img))):
            missing = min(set(range(len(img))).difference(img))
            raise ValueError(
                f"not a bijection on 0..{len(img) - 1}: {missing} is missing from the image"
            )
        self._image = img

    @classmethod
    def _bijection(cls, image: Iterable[int]) -> "Permutation":
        """A permutation of ``image``, which its caller has built as a bijection."""
        p = object.__new__(cls)
        p._image = tuple(image)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls.from_cycles((), degree)

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        """The permutation swapping ``a`` and ``b`` and fixing everything else."""
        if a == b:
            raise ValueError("transposition endpoints must differ")
        return cls.from_cycles([(a, b)], degree)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles; omitted elements are fixpoints.

        ``identity``, ``transposition`` and ``from_transpositions`` build
        through this one check.
        """
        if not 1 <= degree <= MAX_DEGREE:  # before building the image
            raise ValueError(f"degree must be between 1 and {MAX_DEGREE}, got {degree}")
        image = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            # operator.index, as in the constructor: 1.5 and "1" are no points.
            cyc = list(map(operator.index, cycle))
            for x in cyc:
                if not 0 <= x < degree:
                    shown = _clip(str(x), str)
                    raise ValueError(f"cycle element {shown} out of range 0..{degree - 1}")
                if x in seen:
                    raise ValueError(f"element {x} appears more than once")
                seen.add(x)
            for i, x in enumerate(cyc):
                image[x] = cyc[(i + 1) % len(cyc)]
        return cls._bijection(image)

    @classmethod
    def from_transpositions(
        cls, transpositions: Iterable[tuple[int, int]], degree: int
    ) -> "Permutation":
        """Product of pairwise-disjoint transpositions (an involution).

        An entry that is not two points is rejected by its 1-based
        position, so the result is always an involution.
        """
        pairs = list(transpositions)
        for entry, pair in enumerate(pairs, 1):
            if len(pair) != 2:
                raise ValueError(f"transposition {entry} is not a pair of points")
        return cls.from_cycles(pairs, degree)

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    @property
    def degree(self) -> int:
        return len(self._image)

    def __call__(self, x: int) -> int:
        return self._image[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._image == other._image

    def __hash__(self) -> int:
        return hash(self._image)

    def __repr__(self) -> str:
        return f"Permutation({list(self._image)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """``(p * q)(x) == p(q(x))``; q acts first."""
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self._image):
            inv[y] = x
        return Permutation._bijection(inv)

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self._image))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition in canonical form, fixpoints included.

        Each cycle starts at its minimum element; cycles are sorted by
        decreasing length, ties broken by increasing first element.
        """
        return _cycles(self._image, range(self.degree))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in non-increasing order: an integer partition of the degree."""
        return tuple(map(len, self.cycles()))

    def num_cycles(self) -> int:
        """Number of cycles, fixpoints included."""
        return len(self.cycles())

    def _involution_pairs(self) -> frozenset[Transposition] | None:
        """The 2-cycles if ``self`` is an involution, else None; derived once."""
        try:
            return self._pairs
        except AttributeError:
            pass
        img = self._image
        points = range(len(img))
        pairs = None
        if all(map(operator.eq, map(img.__getitem__, img), points)):
            pairs = frozenset(compress(zip(points, img), map(operator.lt, points, img)))
        self._pairs = pairs
        return pairs

    def is_involution(self) -> bool:
        return self._involution_pairs() is not None

    def transpositions(self) -> frozenset[Transposition]:
        """The 2-cycles of an involution, as canonical ``(a, b)`` pairs with a < b."""
        pairs = self._involution_pairs()
        if pairs is None:
            raise ValueError("transpositions() requires an involution")
        return pairs

    def size(self) -> int:
        """Number of transpositions of an involution."""
        return len(self.transpositions())


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation applying ``q`` first, then ``p``."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation._bijection(map(p.image.__getitem__, q.image))


def conjugate(sigma: Permutation, p: Permutation) -> Permutation:
    """Relabel ``p`` by ``sigma``: returns sigma * p * sigma^-1.

    The result has the same cycle type as ``p``; each cycle (i1, i2, ...)
    becomes (sigma(i1), sigma(i2), ...).
    """
    if sigma.degree != p.degree:
        raise ValueError(f"degree mismatch: {sigma.degree} vs {p.degree}")
    si = sigma.image
    image = [0] * p.degree
    for x, y in enumerate(p.image):
        image[si[x]] = si[y]
    return Permutation._bijection(image)


def find_conjugator(p: Permutation, q: Permutation) -> Permutation:
    """A permutation ``sigma`` with ``conjugate(sigma, q) == p``.

    Exists iff the cycle types agree, and ``find_conjugator(p, p)`` is the
    identity.  For two involutions sigma is a nearest matching: it fixes
    the pairs and fixpoints the two share and sends the other pairs of
    ``q`` to pairs of ``p`` by ``match_pairs``.  Those steps string the
    points into chains, each from a fixpoint of ``p`` that q moves to a
    fixpoint of ``q`` that p moves, and sigma sends each chain's end back
    to its own start.  Every other cycle type is matched cycle by cycle,
    element by element, in canonical cycle form.  The builders do not call
    this: ``synth._embedding`` picks their gate and core by the same
    matching and reads the conjugator's cycles from its rows, matching
    once, so no builder holds sigma as a permutation of every point.
    """
    if p.degree == q.degree and p.is_involution() and q.is_involution():
        p_pairs, q_pairs = p.transpositions(), q.transpositions()
        if len(p_pairs) == len(q_pairs):
            rows = match_pairs(p_pairs, q_pairs, (p.degree - 1).bit_length())
            return Permutation.from_cycles(_nearest_conjugator(rows), p.degree)
    p_cycles, q_cycles = p.cycles(), q.cycles()
    # Canonical cycles come longest first, so their lengths are the cycle type.
    p_type, q_type = tuple(map(len, p_cycles)), tuple(map(len, q_cycles))
    if p_type != q_type:
        # Length -> count, longest first; one length per cycle would run to
        # thousands of characters.
        raise ValueError(f"cycle types differ: {dict(Counter(p_type))} vs {dict(Counter(q_type))}")
    image = [0] * p.degree
    for pc, qc in zip(p_cycles, q_cycles):
        for px, qx in zip(pc, qc):
            image[qx] = px
    return Permutation(image)


def match_pairs(
    p_pairs: Iterable[tuple[int, int]], q_pairs: Iterable[tuple[int, int]], lines: int
) -> list[tuple[int, int, int, int]]:
    """Send every pair of ``p_pairs`` to its own pair of ``q_pairs``, nearest first.

    Returns ``(a, b, c, d)`` rows, read as sigma(a) = c and sigma(b) = d
    for the pair ``(a, b)`` of q and ``(c, d)`` of p.  The pairs of p are
    taken in sorted order, once per Hamming radius r = 0, 1, 2, ...: each
    takes the free pair of q with an endpoint at distance r from one of its
    own, in either orientation, the other endpoints nearest.  So a pair the
    two sets share is kept as it is: at radius 0 it finds itself, at
    distance 0.  Needs as many pairs in q as in p or more; the pairs of q
    left over are not returned.
    """
    free: dict[int, int] = {}
    for a, b in q_pairs:
        free[a], free[b] = b, a
    rows, todo = [], sorted(p_pairs)
    for radius in range(lines + 1):
        masks = _masks_of_weight(lines, radius)
        left = []
        for c, d in todo:
            near = [((free[x ^ m] ^ y).bit_count(), x ^ m, x, y)
                    for x, y in ((c, d), (d, c)) for m in masks if x ^ m in free]
            if not near:
                left.append((c, d))
                continue
            _, a, x, y = min(near)
            b = free.pop(a)
            del free[b]
            rows.append((a, b, x, y))
        todo = left
        if not todo:
            return rows
    raise ValueError("fewer pairs to match onto than to match")


def _nearest_conjugator(rows) -> tuple[tuple[int, ...], ...]:
    """``find_conjugator``'s sigma for two involutions, as the cycles it moves.

    ``rows`` are ``match_pairs``' rows for the pairs of p onto the pairs
    of q; the caller matches, so a caller that chose q by that very
    matching does not match twice.  Only the rows' points are read: a
    point no row holds is a fixpoint of sigma.  The cycles come in
    ``Permutation.cycles`` order.
    """
    image = {}
    for a, b, c, d in rows:
        image[a], image[b] = c, d
    # Each chain runs from a fixpoint of p that q moves, through points
    # both move, to a fixpoint of q that p moves.  Its end goes back to its
    # own start, so each chain is a cycle of its own, of which the flank
    # builds every step but one.
    for start in set(image).difference(image.values()):
        end = image[start]
        while end in image:
            end = image[end]
        image[end] = start
    return _cycles(image, sorted(x for x, y in image.items() if x != y))


def _cycles(image, points) -> tuple[tuple[int, ...], ...]:
    """The cycles of ``image`` through ``points``, in canonical form.

    ``image`` maps each point to its image, as a one-line tuple or a dict
    of moved points; ``points`` come in increasing order, so each cycle
    starts at its minimum element.  Cycles are sorted by decreasing
    length, ties broken by increasing first element.
    """
    seen, out = set(), []
    for start in points:
        if start in seen:
            continue
        cycle = [start]
        while (x := image[cycle[-1]]) != start:
            cycle.append(x)
        seen.update(cycle)
        out.append(tuple(cycle))
    return tuple(sorted(out, key=lambda c: (-len(c), c[0])))


@functools.lru_cache(maxsize=None)
def _masks_of_weight(lines: int, weight: int) -> tuple[int, ...]:
    """Every mask on ``lines`` bits with ``weight`` bits set, in ``combinations`` order."""
    return tuple(map(sum, combinations([1 << i for i in range(lines)], weight)))


def lines_for_degree(degree: int) -> int:
    """The line count n with 2**n == degree; rejects non-powers of two."""
    n = degree.bit_length() - 1
    if degree < 2 or degree != 1 << n:
        raise ValueError(f"degree {degree} is not a power of two >= 2")
    return n


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse a permutation from one-line or cycle notation.

    One-line form lists every image: ``"4 2 6 0 3 1 5 7"``.  Cycle form
    wraps each cycle in parentheses: ``"(0 4 3)(1 2 6 5)"``; elements not
    mentioned are fixpoints.  Separators are whitespace or commas.  For
    cycle form the degree defaults to the smallest power of two that
    contains all elements (at least 2); pass ``degree`` to override.

    Errors name the place of the fault, not the text: the 1-based entry
    of a bad integer or of a cycle element past every degree, counted
    across all cycles, or the 1-based column of a cycle form's first
    stray character.
    """
    if "(" in text or ")" in text:
        # Blank out every cycle; the first character left is out of place.
        stray = re.search(r"\S", _CYCLE_RE.sub(lambda m: " " * len(m[0]), text))
        if stray:
            fault = "unclosed '('" if stray[0] == "(" else "text outside the parentheses"
            raise ValueError(f"malformed cycle notation: {fault} at column {stray.start() + 1}")
        cycles, elements = [], []
        for body in _CYCLE_RE.findall(text):
            items = body.replace(",", " ").split()
            cycles.append([_parse_int(tok, len(elements) + i) for i, tok in enumerate(items, 1)])
            elements += cycles[-1]
        if degree is None:
            if not elements:
                raise ValueError("cannot infer degree from an empty cycle form")
            top = max(elements)
            if top >= MAX_DEGREE:  # named here: the degree it implies can run to pages
                shown = f"{_clip(str(top), str)} at entry {elements.index(top) + 1}"
                raise ValueError(f"cycle element {shown} out of range 0..{MAX_DEGREE - 1}")
            degree = 1 << max(top, 1).bit_length()
        return Permutation.from_cycles(cycles, degree)
    items = text.replace(",", " ").split()
    if not items:
        raise ValueError("empty permutation")
    digits, image = "".join(items), None
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # more digits than int() reads
            image = list(map(int, items))
    if image is None:  # name the first entry at fault
        image = [_parse_int(tok, i) for i, tok in enumerate(items, 1)]
    if degree is not None and degree != len(image):
        raise ValueError(
            f"one-line form has {len(image)} entries but degree {degree} was requested"
        )
    return Permutation(image)


def one_line(p: Permutation) -> str:
    """One-line text form: the images separated by spaces."""
    return " ".join(str(x) for x in p.image)


def cycle_string(p: Permutation) -> str:
    """Cycle text form with fixpoints omitted; ``"()"`` for the identity."""
    # An involution's sorted pairs are its non-trivial cycles, in order; any
    # other permutation is walked from the points it moves only.
    cycles = sorted(p.transpositions()) if p.is_involution() else _cycles(
        p.image, [x for x, y in enumerate(p.image) if x != y])
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


def _parse_int(token: str, entry: int) -> int:
    """``token`` read as a number of ASCII digits only, as in circuit files."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() reads
            pass
    raise ValueError(f"bad integer {_clip(token)} at entry {entry}")


def _clip(token: str, show=repr) -> str:
    """``show(token)`` for an error line; past 20 characters, its start and length.

    A whole token can run to thousands of characters.
    """
    return show(token) if len(token) <= 20 else f"{show(token[:20])}... ({len(token)} characters)"
