"""Palindromic constructions for involutions no n-line palindrome can reach.

When the transposition count s of an involution is not a power of two,
no single gate shares its cycle type.  Both constructions here embed the
function into the nearest larger gate instead: pick the container gate
with 2**k transpositions (2**(k-1) < s < 2**k) nearest the involution,
keep the s of its transpositions that the involution's pairs match as the
conjugated core, and cancel the surplus ones.  ``synth._embedding``, which
also serves the odd palindrome, picks gate, core and conjugator in one
place, from one matching.  The builders work from its rows and the
conjugator's cycles: the surplus is the gate's pairs outside the core, and
each surplus gate is made from its pair's endpoints, so no builder holds a
permutation of all 2**n points.  ``decompose`` builds those permutations
for callers that want the embedding as a record.

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
from .gates import MpmctGate
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
    conjugator moves few points.  The builders do not call this.
    """
    gate, rows, sigma, surplus = _container(p, "decompose")
    core = [r[:2] for r in rows]
    perms = (Permutation.from_cycles(c, p.degree) for c in (core + surplus, core, surplus, sigma))
    return TargetDecomposition(gate, *perms, len(rows).bit_length())


def _container(p: Permutation, construction: str):
    """``_embedding``'s gate, rows, conjugator cycles and sorted surplus pairs for ``p``.

    ``construction`` names the caller in the error for an input whose
    transposition count is a power of two, or that is no involution.
    """
    c = classify(p)
    if c.kind != NEEDS_ALTERNATIVE:
        got = "no involution" if c.size is None else f"{c.size} transposition" + "s" * (c.size != 1)
        raise ValueError(f"{construction} needs an involution whose transposition count "
                         f"is not a power of two, got {got}")
    return _embedding(p, lines_for_degree(p.degree))


def _surplus_gates(surplus, n: int, kind: str, target: int) -> list[Gate]:
    """One fully controlled ``kind`` gate on ``target`` per surplus pair ``(a, b)``.

    Its controls are the n - 1 lines on which a and b agree, each at the
    value the two share there.
    """
    full = (1 << n) - 1
    return [Gate._from_masks(kind, target, full ^ a ^ b, a & b) for a, b in surplus]


def build_ancilla_circuit(p: Permutation) -> Circuit:
    """A palindromic Toffoli circuit for ``p`` on n+1 lines, one ancilla.

    For every input with the ancilla at 0, the data lines map per ``p`` and
    the ancilla returns to 0.  The middle gate is the single CNOT from the
    ancilla onto the container gate's target; everything else mirrors
    around it, so the length is odd.
    """
    gate, _, sigma, surplus = _container(p, "the ancilla construction")
    anc = gate.lines + 1
    compute = _surplus_gates(surplus, gate.lines, "t", anc)
    compute.append(Gate._from_masks("t", anc, gate.care, gate.value))
    cnot = Gate("t", gate.target, {anc: True})
    return _palindrome(sigma, gate.lines, compute, cnot, anc)


def build_v_circuit(p: Permutation) -> Circuit:
    """A palindromic circuit for ``p`` on n lines using half-NOT gates.

    Each surplus transposition contributes one fully controlled ``v`` on
    each side of the container gate; the second block is emitted in reverse
    order (the gates share a target and commute) so the whole cascade is
    palindromic.  Semi-classically, every classical input maps to the
    classical output ``p(x)``.
    """
    gate, _, sigma, surplus = _container(p, "the v-gate construction")
    halves = _surplus_gates(surplus, gate.lines, "v", gate.target)
    return _palindrome(sigma, gate.lines, halves, gate.circuit_gate())
