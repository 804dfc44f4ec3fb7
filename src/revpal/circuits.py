"""Structural circuit model: ordered gate lists over n lines, plus a text format.

Gates are named tuples ``(kind, target, care, value)``, so a :class:`Gate`
equals the plain tuple of its four fields; their semantics live in
:mod:`revpal.simulate`.  Three kinds exist: ``"t"`` (Toffoli family: flip
the target when every control matches its polarity), ``"v"`` (square root
of NOT) and ``"v+"`` (its inverse).  Line ``x_i`` is bit ``i-1`` of a
state word, so the lowest line is the least significant bit.

A gate stores its controls as two masks over those bits: ``care`` has bit
``i-1`` set when ``x_i`` is a control, and ``value`` has the same bit set
when that control is positive.  Its controls match the word ``x`` exactly
when ``x & care == value``; that is the package's one control test.
"""

from __future__ import annotations

__all__ = [
    "Circuit",
    "CircuitParseError",
    "Gate",
    "parse_circuit",
    "serialize_circuit",
]

import operator
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .perm import _clip

GATE_KINDS = ("t", "v", "v+")

Controls = tuple[tuple[int, bool], ...]

#: The most lines a circuit file may declare.  A gate's masks grow with the
#: highest line it names; this keeps a parsed gate's at 128 bytes or less.
MAX_CIRCUIT_LINES = 1024


class _GateFields(NamedTuple):
    kind: str
    target: int
    care: int
    value: int


class Gate(_GateFields):
    """One gate: kind, target line, and polarity-tagged control lines.

    A named tuple ``(kind, target, care, value)``.  ``controls`` accepts
    a mapping ``{line: positive}`` or pairs.  It is validated once and
    kept as the ``care``/``value`` masks; the ``controls`` property reads
    the pairs back, sorted by line.
    """

    __slots__ = ()

    def __new__(cls, kind: str, target: int, controls=()):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        # operator.index, not int(): int() would read 1.5 and "2" as lines.
        target = operator.index(target)
        if target < 1:
            raise ValueError(f"target line must be >= 1, got {target}")
        items = controls.items() if isinstance(controls, Mapping) else controls
        pairs = [(operator.index(line), bool(pol)) for line, pol in items]
        if pairs and min(pairs)[0] < 1:
            raise ValueError("control lines must be >= 1")
        return tuple.__new__(cls, (kind, target, *_control_masks(pairs, target)))

    @classmethod
    def _from_masks(cls, kind: str, target: int, care: int, value: int) -> "Gate":
        """A gate from masks its caller derived from already valid lines."""
        return tuple.__new__(cls, (kind, target, care, value))

    def __getnewargs__(self):
        # Pickle and copy rebuild the gate through __new__ and its checks.
        return self.kind, self.target, self.controls

    @property
    def controls(self) -> Controls:
        return tuple((i + 1, bool(self.value >> i & 1)) for i in set_bits(self.care))

    def fires(self, x: int) -> bool:
        """True iff every control matches its polarity in the word ``x``."""
        return x & self.care == self.value

    def max_line(self) -> int:
        return max(self.care.bit_length(), self.target)

    def __repr__(self) -> str:
        return f"Gate(kind={self.kind!r}, target={self.target!r}, controls={self.controls!r})"


@lru_cache(maxsize=1 << 12)
def set_bits(mask: int) -> tuple[int, ...]:
    """The positions ``i`` of the set bits of ``mask``, lowest first; bit ``i`` is line ``i + 1``.

    It takes one step per set bit, however high the highest one is.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _control_masks(pairs, target: int) -> tuple[int, int]:
    """``(care, value)`` of the ``(line, positive)`` controls of a gate on ``target``.

    The one control rule, for the constructor and the parser alike: no
    line is given twice, and the target is not among the controls.  The
    caller has checked that every line is 1 or more.
    """
    care = value = 0
    for line, positive in pairs:
        care |= 1 << (line - 1)
        value |= positive << (line - 1)
    if care.bit_count() < len(pairs):
        # Some line came twice; only now find the lowest such line.
        lines = sorted(line for line, _ in pairs)
        line = next(a for a, b in zip(lines, lines[1:]) if a == b)
        raise ValueError(f"duplicate control line x{_clip(str(line), str)}")
    if care >> (target - 1) & 1:
        raise ValueError(f"target line x{target} listed among controls")
    return care, value


@dataclass(frozen=True)
class Circuit:
    """An ordered gate cascade over ``lines`` circuit lines.

    ``ancilla``, when set, marks one line as zero-initialized: consumers
    promise it enters as 0 and should leave as 0.  Each gate is kept as
    its four-field :class:`Gate`, so circuits, and a circuit and its
    reversal, compare gate by gate.
    """

    lines: int
    gates: tuple[Gate, ...] = ()
    ancilla: int | None = None

    def __post_init__(self):
        # operator.index, as in Gate: a float or str line count raises here.
        object.__setattr__(self, "lines", operator.index(self.lines))
        if self.ancilla is not None:
            object.__setattr__(self, "ancilla", operator.index(self.ancilla))
        if self.lines < 1:
            raise ValueError("a circuit needs at least one line")
        gates = []
        for g in self.gates:
            if g.target > self.lines or g.care >> self.lines:
                raise ValueError(
                    f"gate {g} uses line x{g.max_line()} but the circuit has {self.lines}"
                )
            # Any other gate record, such as an MpmctGate, keeps its four gate fields.
            gates.append(g if type(g) is Gate else Gate._from_masks(*g[:4]))
        object.__setattr__(self, "gates", tuple(gates))
        if self.ancilla is not None and not 1 <= self.ancilla <= self.lines:
            raise ValueError(f"ancilla line x{self.ancilla} out of range")

    @classmethod
    def _valid(cls, lines: int, gates: tuple[Gate, ...], ancilla: int | None) -> "Circuit":
        """A circuit of ``gates``, a tuple its caller built valid on ``lines`` and ``ancilla``."""
        circuit = object.__new__(cls)
        circuit.__dict__.update(lines=lines, gates=gates, ancilla=ancilla)
        return circuit

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def reversed(self) -> "Circuit":
        """The same gates in reverse order (structural reversal)."""
        return Circuit(self.lines, self.gates[::-1], self.ancilla)

    def is_palindromic(self) -> bool:
        """True iff the gate list equals its own reversal, gate by gate."""
        return self.gates == self.gates[::-1]

    def parity(self) -> str:
        return "even" if len(self.gates) % 2 == 0 else "odd"

    def has_quantum_gates(self) -> bool:
        return any(g.kind != "t" for g in self.gates)


class CircuitParseError(ValueError):
    """Syntax error in circuit text, with 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\S+")
_CONTROL_RE = re.compile(r"^(-?)x([0-9]+)$")


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format.

    ``#`` starts a comment.  The header requires ``.lines N`` and allows
    ``.ancilla i``.  Each remaining line is one gate: a kind token (``t``,
    ``v`` or ``v+``) followed by control tokens ``x<i>`` (positive) or
    ``-x<i>`` (negative), the final token being the target ``x<i>``.
    Tokens are separated by any white space.  Lines end only at ``\\n``,
    ``\\r\\n`` and ``\\r``; a form feed, ``\\x85``, ``\\u2028`` and
    the other breaks that ``str.splitlines`` knows are white space.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines: int | None = None
    low = 0  # the care bits, (1 << lines) - 1
    ancilla: int | None = None
    ancilla_at = None
    gates: list[Gate] = []
    # Gate lines repeat (a palindrome mirrors its flank), and once .lines is
    # set a gate line always parses to the same gate.
    seen: dict[str, Gate] = {}
    # code[tok]: a checked control token's care bit, plus that bit shifted
    # up by .lines when the token is positive.  Summed over a gate line's
    # distinct controls, the codes give care + (value << lines).
    code: dict[str, int] = {}
    read = code.__getitem__
    for lineno, raw in enumerate(text.split("\n"), start=1):
        gate = seen.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head in GATE_KINDS:
            try:
                target = read(tokens[-1])
                controls = sum(map(read, tokens[1:-1]))
            except KeyError:  # a token not checked yet, no target or no .lines
                target, controls = _read_gate(tokens, code, lines, lineno, raw)
            care, bit = controls & low, target & low
            # One bit test per fault: a repeated control carries, leaving
            # fewer care bits than controls; a negated target has no value
            # bit; a target among the controls overlaps the care bits.
            if care.bit_count() < len(tokens) - 2 or target == bit or care & bit:
                raise _gate_fault(tokens, code, lines, lineno, raw)
            gate = seen[raw] = Gate._from_masks(head, bit.bit_length(), care, controls >> lines)
            gates.append(gate)
        elif head == ".lines":
            lines = _directive_int(tokens, lineno, raw, ".lines", lines)
            if lines > MAX_CIRCUIT_LINES:
                raise _fault(lineno, raw, 1, f".lines wants at most {MAX_CIRCUIT_LINES}")
            low = (1 << lines) - 1
        elif head == ".ancilla":
            ancilla = _directive_int(tokens, lineno, raw, ".ancilla", ancilla)
            ancilla_at = lineno, raw
        else:
            raise _fault(lineno, raw, 0, f"expected a directive or gate kind, got {_clip(head)}")
    if lines is None:
        raise CircuitParseError(1, 1, "missing .lines header")
    if ancilla is not None and ancilla > lines:
        raise _fault(
            *ancilla_at, 1, f"ancilla line x{_clip(str(ancilla), str)} out of range 1..{lines}"
        )
    # Every gate token and the ancilla were range-checked against .lines above.
    return Circuit._valid(lines, tuple(gates), ancilla)


def _fault(lineno: int, raw: str, index: int, message: str) -> CircuitParseError:
    """The error for token ``index`` of line ``lineno``, whose text is ``raw``.

    Columns are found only here, for the token at fault.
    """
    stripped = raw.partition("#")[0]
    starts = [m.start() + 1 for m in _TOKEN_RE.finditer(stripped)]
    return CircuitParseError(lineno, starts[index], message)


def _directive_int(tokens: list[str], lineno: int, raw: str, name: str, current) -> int:
    """The value of a ``name`` directive; ``current`` is its value so far, if any."""
    if current is not None:
        raise _fault(lineno, raw, 0, f"duplicate {name} directive")
    if len(tokens) != 2:
        raise _fault(lineno, raw, 0, f"{name} takes exactly one integer")
    tok = tokens[1]
    try:
        # ASCII digits only, as in a gate's x<i> tokens.
        number = int(tok) if tok.isascii() and tok.isdigit() else 0
    except ValueError:  # more digits than int() reads
        number = 0
    if number < 1:
        raise _fault(lineno, raw, 1, f"{name} wants a positive integer, got {_clip(tok)}")
    return number


def _read_gate(tokens: list[str], code: dict[str, int], lines, lineno: int, raw: str):
    """``(target, controls)``: the target token's code and the sum of the others'.

    For a gate line with a token ``code`` lacks.  Each such token is
    checked, left to right, and enters ``code`` only once it has passed,
    so the checks and their errors are those of a first read.
    """
    if lines is None:
        raise _fault(lineno, raw, 0, "gate before .lines header")
    if len(tokens) < 2:
        raise _fault(lineno, raw, 0, "gate needs a target line")
    for i, tok in enumerate(tokens[1:], 1):
        if tok in code:
            continue
        m = _CONTROL_RE.match(tok)
        if not m:
            raise _fault(lineno, raw, i, f"expected x<i> or -x<i>, got {_clip(tok)}")
        digits = m.group(2).lstrip("0") or "0"  # as int() prints it; int() may refuse
        if len(digits) > len(str(lines)) or not 1 <= int(digits) <= lines:
            raise _fault(lineno, raw, i, f"line x{_clip(digits, str)} out of range 1..{lines}")
        bit = 1 << (int(digits) - 1)
        code[tok] = bit if m.group(1) else bit | bit << lines
    return code[tokens[-1]], sum(map(code.__getitem__, tokens[1:-1]))


def _gate_fault(tokens: list[str], code: dict[str, int], lines: int, lineno: int, raw: str):
    """The error, at the target's column, of a gate line that fails a bit test.

    Every token of the line is in ``code``.  A control fault is worded by
    ``_control_masks``, the one control rule.
    """
    low = (1 << lines) - 1
    target = code[tokens[-1]]
    if target <= low:
        message = "the target (last token) cannot be negated"
    else:
        pairs = [((c & low).bit_length(), c > low) for c in map(code.__getitem__, tokens[1:-1])]
        try:
            _control_masks(pairs, (target & low).bit_length())
        except ValueError as exc:
            message = str(exc)
    return _fault(lineno, raw, -1, message)


#: Lines per block of a written gate's controls (see ``serialize_circuit``).
#: Eight-line blocks write n=7 circuits faster once the table is full, but
#: a fresh process then writes its first n=10 circuit 1-3 ms slower, since
#: most of that circuit's low blocks are new to the table.
_BLOCK = 6
_BLOCK_LOW = (1 << _BLOCK) - 1


@lru_cache(maxsize=1 << 12)
def _block_text(base: int, care: int, value: int) -> str:
    """The control tokens of lines ``base + 1 .. base + _BLOCK``, each after a space.

    ``care`` and ``value`` are the gate's masks shifted down by ``base``
    and cut to one block: bit ``i`` is line ``base + i + 1``.
    """
    text = ""
    for i in set_bits(care):
        text += f" x{base + i + 1}" if value >> i & 1 else f" -x{base + i + 1}"
    return text


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parse(serialize(c)) == c.

    That holds for circuits of at most ``MAX_CIRCUIT_LINES`` (1,024)
    lines, the parser refusing a ``.lines`` header above it, and also for
    circuits given ``MpmctGate``s, which keep only their four gate fields.

    A palindrome's first half, middle gate included, is rendered, and the
    rest is its lines before the middle, reversed.  Each distinct gate
    line is written once per call: the kind, the control tokens of each
    block of ``_BLOCK`` (six) lines that holds a control, lowest block
    first, and `` x<target>``.  A block's tokens come from one table for
    the whole process, ``_block_text``, keyed by the block's base line and
    its care and value bits, all small ints, and bounded at 4,096 entries
    (a block has at most 3**6 = 729).  So a gate costs what its controls
    use, not its highest line.  A fresh process fills the table as it
    writes, which costs its first n=7 palindrome up to ~0.15 ms; from
    n=10 up, the blocks that repeat within one circuit repay it.
    """
    out = [f".lines {circuit.lines}"]
    if circuit.ancilla is not None:
        out.append(f".ancilla {circuit.ancilla}")
    gates, mirror = circuit.gates, circuit.is_palindromic()
    if mirror:
        gates = gates[: (len(gates) + 1) // 2]
    first = len(out)
    block_text, width, low = _block_text, _BLOCK, _BLOCK_LOW
    # Gates repeat, as in parse_circuit.
    texts: dict[Gate, str] = {}
    for g in gates:
        text = texts.get(g)
        if text is None:
            kind, target, care, value = g
            text = kind
            base = 0
            while care:
                block = care & low
                if not block:
                    # Jump to the block of the lowest control in one shift.
                    skip = ((care & -care).bit_length() - 1) // width * width
                    care >>= skip
                    value >>= skip
                    base += skip
                    block = care & low
                text += block_text(base, block, value & low)
                care >>= width
                value >>= width
                base += width
            text = texts[g] = f"{text} x{target}"
        out.append(text)
    if mirror:
        # The first L // 2 gate lines, reversed; none when L < 2.
        out += out[first : first + len(circuit.gates) // 2][::-1]
    return "\n".join(out) + "\n"
