"""Palindromic constructions for involutions no n-line palindrome can reach.

When the transposition count s of an involution is not a power of two,
no single gate shares its cycle type.  Both constructions here embed the
function into the nearest larger gate instead: pick the container gate
with 2**k transpositions (2**(k-1) < s < 2**k) nearest the involution,
keep the s of its transpositions that the involution's pairs match as the
conjugated core, and cancel the surplus ones.  ``synth._embedding``, which
also serves the odd palindrome, picks gate, core and conjugator in one
place, from one matching.

* The ancilla construction evaluates "core fires" into an extra
  zero-initialized line, copies it onto the target with one CNOT, then
  uncomputes; every gate sits mirror-symmetrically around the CNOT.
* The square-root-of-NOT construction sandwiches the container gate
  between half-NOT ``v`` gates, one per surplus transposition, on the same
  target.  A surplus assignment fires the gate (+2) and its ``v`` twice
  (+1 each), totalling 0 mod 4, while core assignments fire only the gate.
"""

from __future__ import annotations

__all__ = [
    "TargetDecomposition",
    "build_ancilla_circuit",
    "build_v_circuit",
    "decompose",
]

from dataclasses import dataclass

from .circuits import Circuit, Gate
from .gates import MpmctGate, transposition_gate
from .perm import Permutation, lines_for_degree
from .synth import NEEDS_ALTERNATIVE, _embedding, _palindrome, classify


@dataclass(frozen=True)
class TargetDecomposition:
    """How an involution embeds into a single container gate.

    ``inner`` has the input's cycle type and its transpositions are a
    subset of the gate's; ``surplus`` is the product of the remaining
    gate transpositions, so ``inner == gate_perm * surplus`` in either
    order.  ``conjugator`` relabels: input = conjugator . inner .
    conjugator^-1.  ``k`` satisfies 2**(k-1) < size(input) < 2**k, and the
    gate swaps exactly 2**k pairs.
    """

    gate: MpmctGate
    gate_perm: Permutation
    inner: Permutation
    surplus: Permutation
    conjugator: Permutation
    k: int


def decompose(p: Permutation) -> TargetDecomposition:
    """Split ``p`` into container gate, conjugated core, and surplus.

    Only defined for involutions whose transposition count is not a power
    of two.  Gate, core and conjugator are ``synth._embedding``'s: the
    container is ``nearest_gate`` with ``2**k`` pairs, and the core the
    ``s`` pairs of it that ``p``'s pairs match, nearest first, so the
    conjugator moves few points.
    """
    c = classify(p)
    if c.kind != NEEDS_ALTERNATIVE:
        raise ValueError(
            f"decompose applies to involutions of non-power-of-two size, got {c.kind!r}"
        )
    gate, inner, sigma = _embedding(p, lines_for_degree(p.degree))
    ts = gate.transpositions()
    surplus = Permutation.from_cycles(ts - inner.transpositions(), p.degree)
    gate_perm = Permutation.from_cycles(ts, p.degree)
    return TargetDecomposition(gate, gate_perm, inner, surplus, sigma, c.size.bit_length())


def _surplus_gates(d: TargetDecomposition, kind: str, target: int) -> list[Gate]:
    """One fully controlled ``kind`` gate on ``target`` per surplus pair."""
    n = d.gate.lines
    swaps = (transposition_gate(a, b, n) for a, b in sorted(d.surplus.transpositions()))
    return [Gate._from_masks(kind, target, g.care, g.value) for g in swaps]


def build_ancilla_circuit(p: Permutation) -> Circuit:
    """A palindromic Toffoli circuit for ``p`` on n+1 lines, one ancilla.

    For every input with the ancilla at 0, the data lines map per ``p`` and
    the ancilla returns to 0.  The middle gate is the single CNOT from the
    ancilla onto the container gate's target; everything else mirrors
    around it, so the length is odd.
    """
    d = decompose(p)
    n = d.gate.lines
    anc = n + 1
    compute = _surplus_gates(d, "t", anc)
    compute.append(Gate._from_masks("t", anc, d.gate.care, d.gate.value))
    cnot = Gate("t", d.gate.target, {anc: True})
    return _palindrome(d.conjugator, compute, cnot, n + 1, anc)


def build_v_circuit(p: Permutation) -> Circuit:
    """A palindromic circuit for ``p`` on n lines using half-NOT gates.

    Each surplus transposition contributes one fully controlled ``v`` on
    each side of the container gate; the second block is emitted in reverse
    order (the gates share a target and commute) so the whole cascade is
    palindromic.  Semi-classically, every classical input maps to the
    classical output ``p(x)``.
    """
    d = decompose(p)
    halves = _surplus_gates(d, "v", d.gate.target)
    return _palindrome(d.conjugator, halves, d.gate.circuit_gate(), d.gate.lines)
