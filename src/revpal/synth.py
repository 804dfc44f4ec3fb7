"""Classify self-inverse functions and build odd palindromic circuits.

An involution whose transposition count is a power of two is conjugate to
the permutation of every Toffoli-family gate with as many transpositions
(they share one cycle type).  It can therefore be realized as a
mirror-symmetric cascade of odd length: a flank that undoes the conjugator,
the gate in the middle, and the flank replayed in reverse.  The flank pays
about two gates per bit each point moves, so the middle gate is the one
nearest the involution and the conjugator a nearest matching.  Involutions
with any other transposition count admit no such circuit on n lines;
:mod:`revpal.alternatives` covers them.  One function, ``_embedding``,
picks the gate, the core and the conjugator for all three builders, and
matches the involution's pairs onto the gate's once.  The conjugator
moves only points that the involution or its gate moves, so it is read
from the matching's rows as the cycles it moves, and the flank is built
from those cycles: no builder builds or scans a permutation of all 2**n
points on its way to the circuit.  A cycle of m points costs m - 1 of its
m edges, so the flank rotates each cycle to skip its costliest edge; the
conjugator's cycles themselves stay in canonical form.
"""

from __future__ import annotations

__all__ = [
    "Classification",
    "build_palindrome",
    "classify",
    "synthesize_permutation",
    "transposition_chain",
]

from dataclasses import dataclass

from .circuits import Circuit, Gate
from .gates import MpmctGate, nearest_gate
from .perm import Permutation, _nearest_conjugator, lines_for_degree, match_pairs

NOT_INVOLUTION = "not-involution"
IDENTITY = "identity"
PALINDROMIC = "palindromic"
NEEDS_ALTERNATIVE = "needs-alternative"


@dataclass(frozen=True)
class Classification:
    """Where a permutation falls for palindromic realizability.

    kind is one of:

    * ``"not-involution"``: not self-inverse at all;
    * ``"identity"``: realizable only by even palindromes (empty included);
    * ``"palindromic"``: involution with ``2**(k-1)`` transpositions, so an
      odd palindromic circuit on n lines exists; ``k`` is set;
    * ``"needs-alternative"``: involution whose transposition count is not
      a power of two; use an ancilla or square-root-of-NOT construction.
    """

    kind: str
    size: int | None = None
    k: int | None = None


def classify(p: Permutation) -> Classification:
    """Classify ``p``; the degree must be a power of two (2**n inputs)."""
    lines_for_degree(p.degree)
    if not p.is_involution():
        return Classification(NOT_INVOLUTION)
    s = p.size()
    if s == 0:
        return Classification(IDENTITY, size=0)
    if s & (s - 1) == 0:
        return Classification(PALINDROMIC, size=s, k=s.bit_length())
    return Classification(NEEDS_ALTERNATIVE, size=s)


def transposition_chain(a: int, b: int, n: int) -> tuple[Gate, ...]:
    """Gates realizing the swap of words ``a`` and ``b``, everything else fixed.

    Walks a bit-flip path from a to b (differing bits flipped lowest line
    first) and conjugates the final step by the earlier ones; every gate is
    a fully controlled Toffoli, and the chain has 2d-1 gates for Hamming
    distance d.
    """
    if a == b:
        raise ValueError("transposition endpoints must differ")
    if not 0 <= a < 1 << n or not 0 <= b < 1 << n:
        raise ValueError(f"endpoints {a}, {b} out of range for {n} lines")
    return tuple(_swap_gates(a, b, (1 << n) - 1))


def _swap_gates(a: int, b: int, full: int) -> list[Gate]:
    """``transposition_chain(a, b, n)``'s gates for distinct valid words, ``full`` = 2**n - 1."""
    steps = []
    diff = a ^ b
    while diff:
        bit = diff & -diff
        care = full ^ bit
        steps.append(Gate._from_masks("t", bit.bit_length(), care, a & care))
        a ^= bit
        diff ^= bit
    return steps + steps[-2::-1]


def synthesize_permutation(p: Permutation) -> Circuit:
    """An exact Toffoli-family realization of an arbitrary permutation.

    Splits each cycle into adjacent transpositions, skipping its costliest
    edge, and realizes each by a ``transposition_chain``; the output is
    deterministic but makes no further attempt at minimality.
    """
    n = lines_for_degree(p.degree)
    return Circuit(n, _chain_gates(p.cycles(), n))


def _chain_gates(cycles, n: int) -> list[Gate]:
    """``synthesize_permutation``'s gates for ``cycles``, each valid on ``n`` lines.

    A cycle of m points is m - 1 transpositions, one per edge but one, so
    each cycle of three or more points is first rotated to skip its
    costliest edge: a swap at Hamming distance d costs 2d - 1 gates.  On a
    tie the first such edge in the cycle's own order is skipped.
    """
    full = (1 << n) - 1
    gates: list[Gate] = []
    for cycle in cycles:
        if len(cycle) > 2:
            # Edge j runs from cycle[j] to cycle[j + 1], the last back to the first.
            dist = [(a ^ b).bit_count() for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            j = dist.index(max(dist)) + 1
            cycle = cycle[j:] + cycle[:j]
        # (i1 .. im) = t(i1 i2) . t(i2 i3) . ... applied right to left, so
        # the circuit emits the chains in reverse factor order.
        for j in range(len(cycle) - 1, 0, -1):
            gates += _swap_gates(cycle[j - 1], cycle[j], full)
    return gates


def build_palindrome(p: Permutation) -> Circuit:
    """An odd palindromic circuit on n lines computing the involution ``p``.

    Requires ``classify(p).kind == "palindromic"``.  The middle gate and
    the conjugator are ``_embedding``'s, with the whole gate as the core:
    the gate is ``p`` itself when ``p`` is a single gate.  The identity is
    accepted and returns the empty circuit, which is palindromic but even;
    the odd-length guarantee covers only non-identity inputs.
    """
    c = classify(p)
    n = lines_for_degree(p.degree)
    if c.kind == IDENTITY:
        return Circuit(n)
    if c.kind != PALINDROMIC:
        raise ValueError(
            f"no odd palindromic circuit on {n} lines exists for kind {c.kind!r}"
        )
    gate, _, sigma, _ = _embedding(p, n)
    return _palindrome(sigma, n, [], gate.circuit_gate())


def _embedding(p: Permutation, n: int) -> tuple[MpmctGate, list, tuple, list]:
    """The gate, matching rows, conjugator and surplus that embed the involution ``p`` on n lines.

    The gate is the one with ``2**ceil(log2 s)`` pairs nearest ``p``'s s
    pairs (``nearest_gate``).  ``match_pairs`` sends ``p``'s pairs onto s
    of its pairs, the core, nearest first: a row ``(a, b, c, d)`` holds a
    core pair ``(a, b)`` and the pair ``(c, d)`` of ``p`` it goes to.  The
    conjugator, read from those rows and given by the cycles it moves,
    satisfies p = conjugator . core . conjugator^-1.  The surplus is the
    gate's pairs outside the core, sorted; when s is a power of two the
    core is the whole gate and the surplus empty.  The gate's pairs are
    listed once, and nothing here builds or scans a permutation of all
    2**n points.
    """
    pairs = p.transpositions()
    gate = nearest_gate(pairs, n, (len(pairs) - 1).bit_length())
    gate_pairs = gate.transpositions()
    rows = match_pairs(pairs, gate_pairs, n)
    surplus = []
    if len(rows) < len(gate_pairs):
        surplus = sorted(gate_pairs - {tuple(sorted(r[:2])) for r in rows})
    return gate, rows, _nearest_conjugator(rows), surplus


def _palindrome(sigma, n: int, half, centre, ancilla=None) -> Circuit:
    """The flank of ``sigma``'s cycles on n lines, then ``half``, mirrored around ``centre``.

    All three builders end here, so every circuit they return is a
    palindrome by construction.  Its gates are valid by construction too,
    on n lines, or n + 1 with ``ancilla``, the line n + 1, so the circuit
    is made without the public constructor's per-gate check.
    """
    # Gates run left to right, so the mirror of the sigma-flank comes first:
    # the cascade computes sigma . (half, centre, half mirrored) . sigma^-1.
    left = _chain_gates(sigma, n)[::-1] + list(half)
    lines = n if ancilla is None else ancilla
    return Circuit._valid(lines, (*left, centre, *left[::-1]), ancilla)
