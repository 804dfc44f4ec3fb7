"""The bridge between reversible gates and sets of transpositions.

A reversible gate flips at most one line per application, so its permutation
pairs inputs at Hamming distance 1.  This module generates those pairings
(``hamming_one_transpositions`` and its per-line slices), expands gates into
the transpositions they swap, recognizes which transposition sets come
from a single Toffoli-family gate, and picks the gate of a given size whose
pairs lie nearest a set (``nearest_gate``).

Recognition is ``nearest_gate`` on an exact set, and a subcube argument is
why that gives the gate back: a gate with ``2**(k-1)`` pairs moves exactly
the ``2**k`` points of a k-dimensional subcube, whose constant bits are its
controls.  No other subcube of that dimension holds all of those points, so
the nearest gate has the same controls, and every pair crosses the target,
so it has the same target too.  A set whose nearest gate swaps other pairs
is no gate's: its pairs flip several lines, or vary in more than k
positions.

``MpmctGate`` is a circuit ``Gate`` plus its line count, a named tuple
whose fifth field is ``lines``: it swaps ``value`` plus each assignment of
the free lines with its partner across the target.
From endpoints ``a``, ``b`` the target bit is ``a ^ b``, ``care`` is every
other line and ``value`` is ``a & care``.
"""

from __future__ import annotations

__all__ = [
    "MpmctGate",
    "SingleTargetGate",
    "enumerate_gates",
    "enumerate_single_target_gates",
    "hamming_one_transpositions",
    "line_transpositions",
    "nearest_gate",
    "recognize_mpmct",
    "span_mask",
    "transposition_gate",
]

import operator
from collections import Counter
from collections.abc import Iterable
from typing import NamedTuple

from .circuits import Gate, set_bits
from .perm import Permutation, Transposition, _masks_of_weight


class _Swaps:
    """A gate on ``lines`` lines that flips ``target`` on the inputs it ``fires`` on."""

    __slots__ = ()

    def transpositions(self) -> frozenset[Transposition]:
        """The pairs ``(x, x | target bit)`` over the inputs ``x`` it fires on."""
        bit = 1 << (self.target - 1)
        inputs = range(1 << self.lines)
        return frozenset((x, x | bit) for x in inputs if not x & bit and self.fires(x))

    def permutation(self) -> Permutation:
        return Permutation.from_cycles(self.transpositions(), 1 << self.lines)


class _MpmctFields(NamedTuple):
    kind: str
    target: int
    care: int
    value: int
    lines: int


class MpmctGate(_MpmctFields, Gate, _Swaps):
    """A mixed-polarity multiple-control Toffoli gate on ``lines`` lines.

    A ``t`` :class:`Gate` plus its line count: it flips ``target`` iff
    every control line matches its polarity (True for positive: the line
    must carry 1; False for negative).  No controls means a plain NOT.
    Lines that are neither target nor control are free.  ``lines`` is its
    fifth field, so it never equals its plain gate.
    """

    __slots__ = ()

    def __new__(cls, lines: int, target: int, controls=()):
        lines = operator.index(lines)
        gate = Gate("t", target, controls)
        if gate.max_line() > lines:
            raise ValueError(f"line x{gate.max_line()} out of range 1..{lines}")
        return tuple.__new__(cls, (*gate, lines))

    def __getnewargs__(self):
        return self.lines, self.target, self.controls

    @property
    def num_controls(self) -> int:
        return self.care.bit_count()

    def transpositions(self) -> frozenset[Transposition]:
        """The pairs ``(x, x | target bit)``, one per assignment of the free lines.

        Only the pairs are walked: no input outside them is looked at.
        """
        bit = 1 << (self.target - 1)
        starts = [self.value]  # doubled by each free line, lowest first
        for i in set_bits(((1 << self.lines) - 1) ^ self.care ^ bit):
            starts += [x | 1 << i for x in starts]
        return frozenset((x, x | bit) for x in starts)

    def __repr__(self) -> str:
        ctrl = ", ".join(("x" if pol else "-x") + str(line) for line, pol in self.controls)
        return f"MpmctGate(lines={self.lines}, target=x{self.target}, controls=[{ctrl}])"

    def circuit_gate(self) -> Gate:
        return tuple.__new__(Gate, self[:4])


def _mpmct(lines: int, target: int, care: int, value: int) -> MpmctGate:
    """An unchecked MpmctGate, like ``Gate._from_masks``."""
    return tuple.__new__(MpmctGate, ("t", target, care, value, lines))


class _SingleTargetFields(NamedTuple):
    lines: int
    target: int
    table: int


class SingleTargetGate(_SingleTargetFields, _Swaps):
    """Gate flipping ``target`` iff a Boolean function of the other lines holds.

    The control function is a truth-table bitmask over the ``2**(n-1)``
    assignments of the non-target lines, packed in ascending line order
    (lowest non-target line = least significant index bit).
    """

    __slots__ = ()

    def __new__(cls, lines: int, target: int, table: int):
        if lines < 1:
            raise ValueError("a gate needs at least one line")
        if not 1 <= target <= lines:
            raise ValueError(f"target x{target} out of range 1..{lines}")
        # By bit length: a 2**(lines-1)-bit bound to compare against would
        # take 64 GiB at 40 lines.
        if table < 0 or table.bit_length() > 1 << (lines - 1):
            raise ValueError(
                f"control table must fit in {1 << (lines - 1)} bits, got {table}"
            )
        return tuple.__new__(cls, (lines, target, table))

    def __repr__(self) -> str:
        return f"SingleTargetGate(lines={self.lines}, target=x{self.target}, table={self.table:#x})"

    def fires(self, x: int) -> bool:
        """True iff the table bit indexed by ``x`` without its target bit is set."""
        t = self.target - 1
        index = (x & ((1 << t) - 1)) | (x >> (t + 1)) << t
        return bool(self.table >> index & 1)


def line_transpositions(n: int, i: int) -> frozenset[Transposition]:
    """All transpositions whose endpoints differ exactly in bit ``i-1``.

    These are the pairs a single gate with target line ``i`` can swap;
    there are ``2**(n-1)`` of them.
    """
    if not 1 <= i <= n:
        raise ValueError(f"line x{i} out of range 1..{n}")
    return MpmctGate(n, i).transpositions()


def hamming_one_transpositions(n: int) -> frozenset[Transposition]:
    """All transpositions of {0..2**n-1} with endpoints at Hamming distance 1.

    The disjoint union of ``line_transpositions(n, i)`` over the n lines,
    ``n * 2**(n-1)`` in total; each element corresponds to one fully
    controlled Toffoli gate.
    """
    out: set[Transposition] = set()
    for i in range(1, n + 1):
        out |= line_transpositions(n, i)
    return frozenset(out)


def transposition_gate(a: int, b: int, n: int) -> MpmctGate:
    """The fully controlled Toffoli swapping exactly ``a`` and ``b``.

    Requires Hamming distance 1: the differing bit names the target and the
    shared bits become controls with their constant values as polarities.
    """
    diff = a ^ b
    if diff == 0 or diff & (diff - 1):
        raise ValueError(f"{a} and {b} are not at Hamming distance 1")
    if not 0 <= a < 1 << n or not 0 <= b < 1 << n:
        raise ValueError(f"endpoints {a}, {b} out of range for {n} lines")
    care = ((1 << n) - 1) ^ diff
    return _mpmct(n, diff.bit_length(), care, a & care)


def span_mask(transpositions: Iterable[Transposition]) -> int:
    """Bitmask of the positions in which the endpoints of a set vary.

    Computed as the OR of ``v XOR v0`` over all endpoints ``v`` for a fixed
    endpoint ``v0``; the result does not depend on the choice of ``v0``
    because a bit is set exactly when the endpoints disagree there.
    """
    endpoints = [v for ab in transpositions for v in ab]
    if not endpoints:
        raise ValueError("span of an empty transposition set is undefined")
    v0 = endpoints[0]
    mask = 0
    for v in endpoints:
        mask |= v ^ v0
    return mask


def recognize_mpmct(
    transpositions: Iterable[Transposition], n: int
) -> MpmctGate | None:
    """The unique Toffoli-family gate swapping exactly these pairs, if any.

    Returns None when the set is not realizable by one gate: endpoints on
    several target lines, a non-power-of-two count, or ``2**(k-1)`` pairs
    varying in other than k positions.  The input must be pairwise disjoint.
    The candidate is ``nearest_gate``, which gives a gate's own pairs back.
    """
    ts = {(min(ab), max(ab)) for ab in transpositions}
    if not ts:
        return None
    endpoints = [v for ab in ts for v in ab]
    if len(set(endpoints)) != len(endpoints):
        raise ValueError("transpositions must be pairwise disjoint")
    if any(not 0 <= v < 1 << n for v in endpoints):
        raise ValueError(f"endpoint out of range for {n} lines")
    if len(ts) & (len(ts) - 1):
        return None
    gate = nearest_gate(ts, n, len(ts).bit_length() - 1)
    return gate if gate.transpositions() == ts else None


def nearest_gate(transpositions: Iterable[Transposition], n: int, free: int) -> MpmctGate:
    """The gate with ``2**free`` pairs whose moved points lie nearest these pairs.

    Its moved points form a subcube of dimension ``free + 1``: the one,
    over every choice and polarity of the ``n - free - 1`` controls, that
    holds the most endpoints.  Its target is the spanned line that the
    most pairs differ in: a pair matched onto the gate can keep one
    endpoint, and its other endpoint then moves one bit less when the pair
    differs in the target.  Ties go to the line along which the most pairs
    in the subcube lie, then to the lowest line.  A set that is one gate's
    pairs gives that gate back.
    """
    if not 0 <= free <= n - 1:
        raise ValueError(f"a gate on {n} lines has 0..{n - 1} free lines, got {free}")
    ts = sorted(transpositions)
    if not ts:
        raise ValueError("the nearest gate to an empty transposition set is undefined")
    endpoints = [v for ab in ts for v in ab]
    full = (1 << n) - 1
    best = (-1, 0, 0)
    for care in _masks_of_weight(n, n - 1 - free):
        # The most common corner of the endpoints projected onto the controls.
        [(value, hits)] = Counter(map(care.__and__, endpoints)).most_common(1)
        if hits > best[0]:
            best = (hits, care, value)
    _, care, value = best
    span = full ^ care
    shared = Counter(a ^ b for a, b in ts if a & care == value)
    crossing = Counter(i for a, b in ts for i in set_bits(span & (a ^ b)))
    target = max(set_bits(span), key=lambda i: (crossing[i], shared[1 << i], -i))
    return _mpmct(n, target + 1, care, value)


def enumerate_gates(
    n: int, target: int | None = None, k: int | None = None
) -> list[MpmctGate]:
    """All Toffoli-family gates on n lines, in a fixed deterministic order.

    ``target`` restricts to one target line (``3**(n-1)`` gates each).
    ``k`` restricts to gates with ``n-k`` controls, i.e. ``k-1`` free lines
    and ``2**(k-1)`` transpositions; there are ``C(n-1, k-1) * 2**(n-k)``
    per target line.  Overall there are ``n * 3**(n-1)`` gates.
    """
    if target is not None and not 1 <= target <= n:
        raise ValueError(f"target x{target} out of range 1..{n}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    targets = [target] if target is not None else list(range(1, n + 1))
    out: list[MpmctGate] = []
    for t in targets:
        others = [1 << (line - 1) for line in range(1, n + 1) if line != t]
        # Lowest other line fastest, each one free, positive, then negative.
        for code in range(3 ** (n - 1)):
            care = value = 0
            for bit in others:
                code, digit = divmod(code, 3)
                care |= bit if digit else 0
                value |= bit if digit == 1 else 0
            if k is None or care.bit_count() == n - k:
                out.append(_mpmct(n, t, care, value))
    return out


def enumerate_single_target_gates(n: int) -> list[SingleTargetGate]:
    """All ``n * 2**(2**(n-1))`` single-target gates on n lines."""
    tables = range(1 << (1 << (n - 1)))
    return [SingleTargetGate(n, t, table) for t in range(1, n + 1) for table in tables]
