"""Structural circuit model: ordered gate lists over n lines, plus a text format.

Gates are structural records; their semantics live in :mod:`revpal.simulate`.
Three kinds exist: ``"t"`` (Toffoli family: flip the target when every
control matches its polarity), ``"v"`` (square root of NOT) and ``"v+"``
(its inverse).  Line ``x_i`` is bit ``i-1`` of a state word, so the lowest
line is the least significant bit.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

GATE_KINDS = ("t", "v", "v+")

Controls = tuple[tuple[int, bool], ...]


def normalize_controls(controls) -> Controls:
    """Canonical control storage: pairs ``(line, positive)`` sorted by line."""
    if isinstance(controls, Mapping):
        pairs = [(int(line), bool(pol)) for line, pol in controls.items()]
    else:
        pairs = [(int(line), bool(pol)) for line, pol in controls]
    pairs.sort()
    lines = [line for line, _ in pairs]
    if len(set(lines)) != len(lines):
        raise ValueError(f"duplicate control line in {pairs!r}")
    return tuple(pairs)


@dataclass(frozen=True)
class Gate:
    """One gate: kind, target line, and polarity-tagged control lines.

    ``controls`` accepts a mapping ``{line: positive}`` or pairs and is
    stored canonically, so structurally equal gates compare equal.
    """

    kind: str
    target: int
    controls: Controls = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 1:
            raise ValueError(f"target line must be >= 1, got {self.target}")
        object.__setattr__(self, "controls", normalize_controls(self.controls))
        if any(line == self.target for line, _ in self.controls):
            raise ValueError(f"target line x{self.target} listed among controls")
        if any(line < 1 for line, _ in self.controls):
            raise ValueError("control lines must be >= 1")

    def control_lines(self) -> tuple[int, ...]:
        return tuple(line for line, _ in self.controls)

    def max_line(self) -> int:
        return max((self.target, *self.control_lines()))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate cascade over ``lines`` circuit lines.

    ``ancilla``, when set, marks one line as zero-initialized: consumers
    promise it enters as 0 and should leave as 0.
    """

    lines: int
    gates: tuple[Gate, ...] = ()
    ancilla: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.lines < 1:
            raise ValueError("a circuit needs at least one line")
        for g in self.gates:
            if g.max_line() > self.lines:
                raise ValueError(
                    f"gate {g} uses line x{g.max_line()} but the circuit has {self.lines}"
                )
        if self.ancilla is not None and not 1 <= self.ancilla <= self.lines:
            raise ValueError(f"ancilla line x{self.ancilla} out of range")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def reversed(self) -> "Circuit":
        """The same gates in reverse order (structural reversal)."""
        return Circuit(self.lines, self.gates[::-1], self.ancilla)

    def is_palindromic(self) -> bool:
        """True iff the gate list equals its own reversal, gate by gate."""
        k = len(self.gates)
        return all(self.gates[i] == self.gates[k - 1 - i] for i in range(k // 2))

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
    """
    lines: int | None = None
    ancilla: int | None = None
    ancilla_at = (1, 1)
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(stripped)]
        if not tokens:
            continue
        col0, head = tokens[0]
        if head == ".lines":
            if lines is not None:
                raise CircuitParseError(lineno, col0, "duplicate .lines directive")
            lines = _directive_int(tokens, lineno, ".lines")
        elif head == ".ancilla":
            if ancilla is not None:
                raise CircuitParseError(lineno, col0, "duplicate .ancilla directive")
            ancilla = _directive_int(tokens, lineno, ".ancilla")
            ancilla_at = (lineno, tokens[1][0])
        elif head in GATE_KINDS:
            if lines is None:
                raise CircuitParseError(lineno, col0, "gate before .lines header")
            gates.append(_parse_gate(tokens, lineno, lines))
        else:
            raise CircuitParseError(
                lineno, col0, f"expected a directive or gate kind, got {head!r}"
            )
    if lines is None:
        raise CircuitParseError(1, 1, "missing .lines header")
    if ancilla is not None and ancilla > lines:
        raise CircuitParseError(
            *ancilla_at, f"ancilla line x{ancilla} out of range 1..{lines}"
        )
    return Circuit(lines, gates, ancilla)


def _directive_int(tokens, lineno: int, name: str) -> int:
    if len(tokens) != 2:
        col = tokens[0][0]
        raise CircuitParseError(lineno, col, f"{name} takes exactly one integer")
    col, tok = tokens[1]
    if not tok.isdigit() or int(tok) < 1:
        raise CircuitParseError(lineno, col, f"{name} wants a positive integer, got {tok!r}")
    return int(tok)


def _parse_gate(tokens, lineno: int, lines: int) -> Gate:
    _, kind = tokens[0]
    if len(tokens) < 2:
        raise CircuitParseError(lineno, tokens[0][0], "gate needs a target line")
    parsed = []
    for col, tok in tokens[1:]:
        m = _CONTROL_RE.match(tok)
        if not m:
            raise CircuitParseError(
                lineno, col, f"expected x<i> or -x<i>, got {tok!r}"
            )
        line = int(m.group(2))
        if not 1 <= line <= lines:
            raise CircuitParseError(lineno, col, f"line x{line} out of range 1..{lines}")
        parsed.append((col, line, m.group(1) != "-"))
    tcol, target, positive = parsed[-1]
    if not positive:
        raise CircuitParseError(lineno, tcol, "the target (last token) cannot be negated")
    try:
        return Gate(kind, target, [(line, pol) for _, line, pol in parsed[:-1]])
    except ValueError as exc:
        raise CircuitParseError(lineno, tcol, str(exc)) from None


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parse(serialize(c)) == c."""
    out = [f".lines {circuit.lines}"]
    if circuit.ancilla is not None:
        out.append(f".ancilla {circuit.ancilla}")
    for g in circuit.gates:
        tokens = [g.kind]
        tokens += [("x" if pol else "-x") + str(line) for line, pol in g.controls]
        tokens.append(f"x{g.target}")
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"
