"""Circuit execution and equivalence checking.

Two models:

* classical: states are n-bit words; a Toffoli-family gate flips its target
  bit when all controls match.  Square-root-of-NOT gates are rejected here.
* semi-classical: each line carries a value mod 4 encoding 0 -> |0>,
  1 -> V|0>, 2 -> |1>, 3 -> V|1>.  A Toffoli adds 2 to the target cell, a
  ``v`` adds 1 and a ``v+`` adds 3, so two ``v`` in a row make a NOT.  A
  control may only be read while its cell is classical (0 or 2); reading a
  half-rotated cell would entangle lines, which this model cannot express,
  so it raises instead of approximating.

``simulate_classical`` and ``simulate_semiclassical`` run one input at a
time; they are the reference oracles.  Every whole-table answer
(``simulate_all``, ``truth_table``, ``equivalent`` and
``equivalent_with_ancilla``) reads one forward table from ``_outputs``:
the output word of each input, or ``1 << lines``, a value no word takes,
for an input whose run fails.  ``_outputs`` is the one place that picks
an evaluator, and it has two:

* lane swaps, for runs of Toffoli gates that are mostly fully controlled,
  like the flanks the builders emit: a table holds the input (lane) in
  each state, and a Toffoli with f free lines besides its target swaps
  2**f pairs of entries.
* bit-sliced (Biham, FSE 1997), for any gates: line ``x_i`` is held as
  one 2**n-bit integer whose bit ``x`` is that line's value on input
  ``x``, so one big-integer operation per control applies a gate to
  every input.  A cell mod 4 is two such planes, ``hi`` (the classical
  bit) and ``lo`` (the half turn).

One plan runs every circuit.  A lane run L opens it: L takes Toffoli
gates in order until a ``v`` or ``v+`` gate, or until its swaps, counted
before they are made, pass half the states plus two per gate; in a
palindrome it also stops at the half.  A palindrome's right half closes
with the mirror run, which undoes L and so is read off L's table, not
run.  The core, the gates between, is all that is left: lane swaps run a
palindrome's core if they take it whole, and the bit-sliced evaluator
runs any other core, from the state L leaves each input in.

The bit-sliced evaluator also records how each lane first fails: the
line and cell of a control read of a half-turned cell, or else its cells
at the end.  ``simulate_all`` words each failing input's reason from the
core's record, as the per-input oracles word their error, so ``revpal
simulate --all`` runs no input alone and no gate twice.  A lane the core
leaves half-turned fails in the mirror run, whose Toffoli gates keep
every half turn, so the record goes on into the mirror run only until
each such lane has failed a read.

``simulate_all`` is limited to ``MAX_LINES`` = 16 lines, the largest
permutation degree; ``equivalent_with_ancilla`` runs one line more.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "classical_readout",
    "equivalent",
    "equivalent_with_ancilla",
    "simulate_classical",
    "simulate_semiclassical",
    "truth_table",
]

from itertools import compress

from .circuits import Circuit, set_bits
from .perm import MAX_LINES, Permutation


class SimulationError(ValueError):
    """A circuit left the domain the requested model can represent."""


_KIND_DELTA = {"t": 2, "v": 1, "v+": 3}


def _require_toffoli_only(circuit: Circuit) -> None:
    """Raise unless every gate is a Toffoli, the classical model's one kind."""
    kind = next((g.kind for g in circuit.gates if g.kind != "t"), None)
    if kind is not None:
        raise SimulationError(f"classical simulation cannot run a {kind!r} gate")


def simulate_classical(circuit: Circuit, x: int) -> int:
    """Run a Toffoli-only circuit on the input word ``x``, gates left to right."""
    if not 0 <= x < 1 << circuit.lines:
        raise ValueError(f"input {x} out of range for {circuit.lines} lines")
    _require_toffoli_only(circuit)
    for gate in circuit.gates:
        if gate.fires(x):
            x ^= 1 << (gate.target - 1)
    return x


def _read_failure(line: int, cell: int) -> str:
    return f"control on line x{line} read while non-classical (cell={cell})"


def _state_failure(cells) -> str:
    return f"non-classical state, cells={list(cells)}"


def simulate_semiclassical(circuit: Circuit, x: int) -> tuple[int, ...]:
    """Run any circuit on a classical input; returns the per-line cells mod 4."""
    if not 0 <= x < 1 << circuit.lines:
        raise ValueError(f"input {x} out of range for {circuit.lines} lines")
    # Line x_i's cell is 2 * (bit i-1 of twos) + (bit i-1 of ones).
    twos, ones = x, 0
    for gate in circuit.gates:
        half_turned = gate.care & ones
        if half_turned:
            line = (half_turned & -half_turned).bit_length()
            raise SimulationError(_read_failure(line, 2 * (twos >> (line - 1) & 1) + 1))
        if gate.fires(twos):
            bit = 1 << (gate.target - 1)
            cell = (2 * bool(twos & bit) + bool(ones & bit) + _KIND_DELTA[gate.kind]) % 4
            twos = twos | bit if cell >= 2 else twos & ~bit
            ones = ones | bit if cell & 1 else ones & ~bit
    return tuple(2 * (twos >> i & 1) + (ones >> i & 1) for i in range(circuit.lines))


def is_classical(cells: tuple[int, ...]) -> bool:
    return all(c in (0, 2) for c in cells)


def classical_readout(cells: tuple[int, ...]) -> int:
    """Collapse an all-classical cell vector back to an n-bit word."""
    if not is_classical(cells):
        raise SimulationError(_state_failure(cells))
    return sum((c // 2) << i for i, c in enumerate(cells))


_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _input_columns(lines: int) -> list[int]:
    """One column per line over all 2**lines inputs: bit x of column i is bit i of x."""
    width = 1 << lines
    columns = []
    for i in range(lines):
        run = 1 << i
        column = ((1 << run) - 1) << run  # one period: run zeros, then run ones
        period = 2 * run
        while period < width:
            column |= column << period
            period *= 2
        columns.append(column)
    return columns


def _simulate_columns(lines: int, gates, start=None) -> tuple[list[int], int, list[int], list]:
    """Run ``gates`` on all 2**lines inputs at once, one bit lane per input.

    Returns the output columns ``hi``, the mask of lanes where the
    semi-classical model fails, the final half-turn columns ``lo``, and
    ``reads``: a ``(line, cell, lanes)`` triple for the lanes whose first
    failure is a control read of that line in that cell.  The other
    failing lanes end with a half-rotated cell.  Those lanes are exactly
    the inputs on which ``simulate_semiclassical`` or ``classical_readout``
    raises, and their output bits are meaningless.  The run stops early
    once every lane has failed a read.

    ``start``, a ``(hi, failed, lo)`` triple, goes on from the columns an
    earlier run left instead of from the inputs; the lanes of ``failed``
    count as failed already, so ``reads`` names only the others.
    """
    hi, failed, lo = start or (_input_columns(lines), 0, [0] * lines)
    full = (1 << (1 << lines)) - 1
    # turned: the lines some v or v+ has targeted
    turned = sum(1 << i for i, plane in enumerate(lo) if plane)
    reads = []
    for gate in gates:
        # The control test x & care == value, lane-wise: the positive
        # controls (value) read 1 and the negative ones (care ^ value) read 0.
        fire = full
        for i in set_bits(gate.value):
            fire &= hi[i]
        blocked = 0
        for i in set_bits(gate.care ^ gate.value):
            blocked |= hi[i]
        fire &= ~blocked
        # Lanes that read a control while its cell is half-turned fail, at
        # the lowest such line; lo is 0 on every line no v or v+ targeted.
        if gate.care & turned:
            for i in set_bits(gate.care & turned):
                new = lo[i] & ~failed
                if new:
                    failed |= new
                    reads += (i + 1, 1, new & ~hi[i]), (i + 1, 3, new & hi[i])
            if failed == full:
                break
        t = gate.target - 1
        if gate.kind == "t":
            hi[t] ^= fire
            continue
        turned |= 1 << t
        if gate.kind == "v":  # +1 mod 4: carry from lo into hi
            hi[t] ^= lo[t] & fire
        else:  # v+, +3 = -1 mod 4: borrow from hi where lo is 0
            hi[t] ^= ~lo[t] & fire
        lo[t] ^= fire
    for plane in lo:
        failed |= plane
    return hi, failed, lo, reads


def _words(columns: list[int], width: int) -> list[int]:
    """One word per lane: bit i of word x is bit x of column i."""
    words = [0] * width
    for i, column in enumerate(columns):
        words = [w | b << i for w, b in zip(words, _lane_bits(column, width))]
    return words


def _lane_bits(mask: int, width: int) -> bytes:
    """Bit x of ``mask`` as byte x, 0 or 1."""
    return format(mask, f"0{width}b").encode().translate(_ASCII_BIT)[::-1]


def _lane_int(mask: int, width: int) -> int:
    """``_lane_bits(mask, width)`` read as one little-endian integer."""
    return int.from_bytes(_lane_bits(mask, width), "little")


def _lanes(mask: int, width: int):
    """The lanes x below ``width`` whose bit x of ``mask`` is set, in order."""
    return compress(range(width), _lane_bits(mask, width)) if mask else ()


#: Lane swaps a lane run may spend per gate, on top of half the states;
#: past them, the bit-sliced evaluator is the cheaper.
_SWAPS_PER_GATE = 2


def _swap_lanes(gates, states: int) -> tuple[list[int], int]:
    """The inverse table of the run of ``gates`` that lane swaps take.

    A Toffoli swaps the lanes of each state it fires on whose target bit
    is 0 with its partner across the target.  The run stops before a ``v``
    or ``v+`` gate, or before a gate whose swaps, counted before they are
    made, would overdraw a budget of half the states plus
    ``_SWAPS_PER_GATE`` per gate.  Returns the table and the gates run.
    """
    full = states - 1
    inv = list(range(states))
    budget = states // 2
    for ran, g in enumerate(gates):
        bit = 1 << (g.target - 1)
        free = full ^ g.care ^ bit
        budget += _SWAPS_PER_GATE - (1 << free.bit_count())
        if g.kind != "t" or budget < 0:
            return inv, ran
        value, sub = g.value, 0
        while True:  # sub walks every subset of free, starting and ending at 0
            x = value | sub
            y = x | bit
            inv[x], inv[y] = inv[y], inv[x]
            sub = (sub - free) & free
            if not sub:
                break
    return inv, len(gates)


def _outputs(circuit: Circuit) -> tuple[list[int], list[int], tuple, tuple]:
    """The output word of every input, ``1 << circuit.lines`` where its run fails.

    The one plan, and the one choice of evaluator.  A lane run L opens
    every circuit: up to the half of a palindrome, as far as lane swaps
    go in any other.  The core C is the gates after L, up to the mirror
    run that closes a palindrome and computes L^-1, else to the end.  A
    palindrome's C runs by lane swaps if those take it whole; any other C
    runs bit-sliced, where lane y starts in state y, the state L leaves
    input ``left[y]`` in.  That input ends as ``left[C(y)]`` in a
    palindrome and as C(y) otherwise, and fails where C fails on lane y.
    Also returns ``left``, what ``_simulate_columns`` returned on C (a
    record of no failures if C did not run bit-sliced), and the mirror
    run's gates.
    """
    states = 1 << circuit.lines
    gates = circuit.gates
    palindrome = circuit.is_palindromic()
    left, k = _swap_lanes(gates[: len(gates) // 2] if palindrome else gates, states)
    end = len(gates) - k if palindrome else len(gates)
    core = gates[k:end]
    # A palindrome of self-inverse gates computes an involution, so its
    # inverse table is also its forward table.
    out, ran = _swap_lanes(core, states) if palindrome else (range(states), 0)
    run = (), 0, (), ()  # no failures
    if ran < len(core):
        run = _simulate_columns(circuit.lines, core)
        out = _words(run[0], states)
        for y in _lanes(run[1], states):
            out[y] = states
    left.append(states)  # L^-1 sends the mark, entry ``states``, to itself
    out = map(left.__getitem__, out) if palindrome else out
    outputs = [0] * states
    for x, y in zip(left, out):
        outputs[x] = y
    return outputs, left, run, gates[end:]


def simulate_all(circuit: Circuit) -> tuple[list[int], dict[int, str]]:
    """Outputs for every input word, in the semi-classical model.

    Returns the output word of each input, and for each input whose run
    fails the text of the ``SimulationError`` that ``simulate_semiclassical``
    or ``classical_readout`` raises on it; those inputs' entries are
    ``1 << circuit.lines``.
    """
    if circuit.lines > MAX_LINES:
        raise ValueError(
            f"cannot run all inputs of a circuit on {circuit.lines} lines "
            f"(at most {MAX_LINES})"
        )
    outputs, left, (hi, failed, lo, reads), mirror = _outputs(circuit)
    states = len(outputs)
    # The lanes the core leaves half-turned without failing a read fail in
    # the mirror run: at its first read of a half-turned line, or at its
    # end, since a Toffoli gate never changes a half turn.
    pending = failed & ~sum(lanes for *_, lanes in reads)
    if pending and mirror:
        settled = ((1 << states) - 1) ^ pending
        hi, _, lo, more = _simulate_columns(circuit.lines, mirror, (hi, settled, lo))
        reads = reads + more
        pending &= ~sum(lanes for *_, lanes in more)
    reasons = {}
    for line, cell, lanes in reads:
        reasons.update(dict.fromkeys(_lanes(lanes, states), _read_failure(line, cell)))
    if pending:
        # Byte y of cells[i] is line x(i+1)'s cell in lane y, 2 * hi + lo,
        # summed over whole planes: each byte of a plane is 0 or 1, so no
        # byte carries into the next.
        cells = [
            (2 * _lane_int(h, states) + _lane_int(l, states)).to_bytes(states, "little")
            for h, l in zip(hi, lo)
        ]
        for y, row in compress(enumerate(zip(*cells)), _lane_bits(pending, states)):
            reasons[y] = _state_failure(row)
    return outputs, {left[y]: text for y, text in reasons.items()}


def truth_table(circuit: Circuit) -> Permutation:
    """The permutation a Toffoli-only circuit computes over all inputs."""
    _require_toffoli_only(circuit)
    outputs, _ = simulate_all(circuit)
    return Permutation(outputs)


def equivalent(circuit: Circuit, p: Permutation) -> bool:
    """True iff the circuit maps every input x to p(x), with classical outputs.

    Simulation failures (entangling control reads, non-classical outputs)
    count as non-equivalence rather than propagating.
    """
    if 1 << circuit.lines != p.degree:
        raise ValueError(
            f"circuit on {circuit.lines} lines cannot match degree {p.degree}"
        )
    return tuple(_outputs(circuit)[0]) == p.image


def equivalent_with_ancilla(circuit: Circuit, p: Permutation) -> bool:
    """Equivalence on the data lines for every input with the ancilla at 0.

    The ancilla is the circuit's marked line.  It must also end at 0;
    inputs with the ancilla at 1 are unconstrained.
    """
    if circuit.ancilla is None:
        raise ValueError("no ancilla line marked on the circuit")
    if 1 << (circuit.lines - 1) != p.degree:
        raise ValueError(
            f"circuit on {circuit.lines} lines with one ancilla cannot match degree {p.degree}"
        )
    a = circuit.ancilla - 1
    outputs = _outputs(circuit)[0]
    # clean[d] is data word d with the ancilla at 0; the input clean[d]
    # must end as clean[p(d)], so a failed clean input, marked, fails too.
    clean = [x for x in range(2 * p.degree) if not x >> a & 1]
    return list(map(outputs.__getitem__, clean)) == list(map(clean.__getitem__, p.image))
