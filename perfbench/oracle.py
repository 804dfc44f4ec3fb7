"""Reference answers for the benchmark, written without importing revpal.

Everything here re-derives what the program should output from the
circuit text format and the mathematics, so a defect in revpal cannot
hide in its own oracle:

* ``parse`` and ``gate`` read the circuit text format into
  ``(kind, target, controls)`` triples.  Lines are numbered from 1 as in
  the text; a control is ``+i`` on line x_i when positive, ``-i`` when
  negative.
* ``evaluate`` runs a parsed circuit on every input at once: each line is
  held as two columns of bits (one bit per input word), the classical bit
  and the half-turn bit of its mod-4 cell.  A ``t`` adds 2 to the target
  cell, a ``v`` adds 1 and a ``v+`` adds 3; an input whose control cell is
  read while half-turned, or that ends half-turned, is non-classical.
* ``census_rows`` computes the six class counts from the involution
  recurrence I(m) = I(m-1) + (m-1) I(m-2) and, for the palindromic class,
  from D!/(m! 2^m (D-2m)!) involutions with m transpositions on D points.
"""

from __future__ import annotations

import math

KINDS = ("t", "v", "v+")

CLASS_NAMES = (
    "reversible",
    "self-inverse",
    "palindromic",
    "single-target",
    "mpmct",
    "transposition",
)


class OracleError(ValueError):
    """The text under check is not a well-formed circuit."""


def parse(text: str):
    """Return ``(lines, ancilla, gate_lines)`` for circuit text.

    ``gate_lines`` holds each gate line with its tokens single-spaced; the
    palindrome check compares them, and ``decoded`` decodes each distinct
    line once, so a large circuit is not held as one tuple per gate.
    """
    lines = ancilla = None
    gate_lines = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head in (".lines", ".ancilla"):
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise OracleError(f"bad directive {raw!r}")
            if head == ".lines":
                lines = int(tokens[1])
            else:
                ancilla = int(tokens[1])
            continue
        if lines is None:
            raise OracleError("gate before .lines")
        gate_lines.append(" ".join(tokens))
    if lines is None:
        raise OracleError("missing .lines")
    return lines, ancilla, gate_lines


def gate(line: str, lines: int):
    """Decode one gate line to ``(kind, target, controls)``."""
    kind, *tokens = line.split()
    if kind not in KINDS or not tokens:
        raise OracleError(f"bad gate line {line!r}")
    wires = []
    for tok in tokens:
        name = tok.removeprefix("-")
        if name[:1] != "x" or not name[1:].isdigit() or not 1 <= int(name[1:]) <= lines:
            raise OracleError(f"bad line token {tok!r}")
        wires.append(int(name[1:]) if name is tok else -int(name[1:]))
    target = wires.pop()
    if target < 0 or target in wires or -target in wires:
        raise OracleError(f"bad target in {line!r}")
    return kind, target, tuple(wires)


def decoded(gate_lines: list[str], lines: int):
    """Decode gate lines lazily, each distinct line once."""
    seen: dict[str, tuple] = {}
    for line in gate_lines:
        g = seen.get(line)
        if g is None:
            g = seen[line] = gate(line, lines)
        yield g


def identity_columns(width: int, bits: int) -> list[int]:
    """Column ``b`` has bit x set iff bit b of the word x is set, x < 2**width."""
    lanes = 1 << width
    cols = []
    for b in range(bits):
        half = 1 << b
        pattern, span = ((1 << half) - 1) << half, 2 * half
        while span < lanes:
            pattern |= pattern << span
            span *= 2
        cols.append(pattern & ((1 << lanes) - 1))
    return cols


def evaluate(gates, hi: list[int], lanes: int):
    """Run decoded ``gates`` on the columns ``hi`` (classical bits, updated
    in place).

    Returns ``(hi, nonclassical)``: the final classical columns and the mask
    of inputs that read a half-turned control or end half-turned.
    """
    full = (1 << lanes) - 1
    lo = [0] * len(hi)
    poisoned = 0
    for kind, target, controls in gates:
        fire = full
        for c in controls:
            if c > 0:
                fire &= hi[c - 1]
                poisoned |= lo[c - 1]
            else:
                fire &= ~hi[-c - 1]
                poisoned |= lo[-c - 1]
        target -= 1
        if kind == "t":
            hi[target] ^= fire
        elif kind == "v":
            hi[target] ^= lo[target] & fire
            lo[target] ^= fire
        else:
            hi[target] ^= ~lo[target] & fire
            lo[target] ^= fire
    for col in lo:
        poisoned |= col
    return hi, poisoned & full


def permutation_columns(image: list[int], bits: int) -> list[int]:
    """The truth table of ``image`` as columns, one per output bit."""
    cols = [0] * bits
    for x, y in enumerate(image):
        for b in range(bits):
            if (y >> b) & 1:
                cols[b] |= 1 << x
    return cols


def realizes(text: str, image: list[int]) -> tuple[bool, str]:
    """Does the circuit map every input x to image[x] with classical output?

    A circuit with a ``.ancilla`` line is run on the inputs with that line
    at 0, must return it to 0, and is compared on the remaining lines.
    """
    lines, ancilla, gate_lines = parse(text)
    gates = decoded(gate_lines, lines)
    data = lines - (ancilla is not None)
    if 1 << data != len(image):
        return False, f"{lines} lines cannot realize degree {len(image)}"
    ident = identity_columns(data, data)
    if ancilla is None:
        hi = ident
    else:
        a = ancilla - 1
        hi = ident[:a] + [0] + ident[a:]
    hi, poisoned = evaluate(gates, hi, len(image))
    if poisoned:
        return False, "non-classical on some input"
    if ancilla is not None:
        if hi[ancilla - 1]:
            return False, "ancilla not restored to 0"
        hi = hi[: ancilla - 1] + hi[ancilla:]
    if hi != permutation_columns(image, data):
        return False, "truth table differs"
    return True, ""


def readout(text: str) -> list[int | None]:
    """Per-input output words of a circuit, ``None`` where non-classical."""
    lines, _, gate_lines = parse(text)
    gates = decoded(gate_lines, lines)
    hi, poisoned = evaluate(gates, identity_columns(lines, lines), 1 << lines)
    out = []
    for x in range(1 << lines):
        if (poisoned >> x) & 1:
            out.append(None)
        else:
            out.append(sum(((col >> x) & 1) << b for b, col in enumerate(hi)))
    return out


def is_palindrome(gate_lines: list[str]) -> bool:
    return gate_lines == gate_lines[::-1]


def cycle_text(image: list[int]) -> str:
    """Cycles starting at their minimum, longest first, fixpoints omitted."""
    seen = [False] * len(image)
    cycles = []
    for start in range(len(image)):
        if seen[start]:
            continue
        cycle, x = [start], image[start]
        seen[start] = True
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = image[x]
        if len(cycle) > 1:
            cycles.append(cycle)
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


def bits_text(value: int, lines: int) -> str:
    return "".join(str((value >> i) & 1) for i in range(lines))


# --- census -----------------------------------------------------------------


def involutions(points: int) -> int:
    """I(points) by the recurrence I(m) = I(m-1) + (m-1) I(m-2)."""
    prev, cur = 1, 1
    for m in range(2, points + 1):
        prev, cur = cur, cur + (m - 1) * prev
    return cur


def involutions_by_size(points: int) -> list[int]:
    """Entry m counts involutions with m transpositions: D!/(m! 2^m (D-2m)!)."""
    out = [1]
    for m in range(points // 2):
        out.append(out[-1] * (points - 2 * m) * (points - 2 * m - 1) // (2 * (m + 1)))
    return out


def census_rows(n: int) -> dict[str, int]:
    points = 1 << n
    by_size = involutions_by_size(points)
    total = involutions(points)
    if sum(by_size) != total:
        raise AssertionError(f"census references disagree at n={n}")
    return {
        "reversible": math.factorial(points),
        "self-inverse": total,
        "palindromic": sum(by_size[1 << j] for j in range(n)),
        "single-target": n * ((1 << (1 << (n - 1))) - 1) + 1,
        "mpmct": n * 3 ** (n - 1),
        "transposition": by_size[1],
    }


def decimal(value: int) -> str:
    """Decimal text of any non-negative int, below the int->str digit limit."""
    if value < 10**1000:
        return str(value)
    digits = int(value.bit_length() * 0.30103) // 2
    high, low = divmod(value, 10**digits)
    return decimal(high) + decimal(low).rjust(digits, "0")


def census_text(n: int, method: str, as_json: bool) -> str:
    """The exact stdout of ``revpal census`` (``--json`` when ``as_json``)."""
    rows = {name: decimal(value) for name, value in census_rows(n).items()}
    if as_json:
        body = ",\n".join(f'    "{name}": "{rows[name]}"' for name in CLASS_NAMES)
        return (
            f'{{\n  "n": {n},\n  "method": "{method}",\n  "rows": {{\n'
            f"{body}\n  }}\n}}\n"
        )
    out = ["command: census", f"n: {n}", f"method: {method}"]
    out += [f"{name}: {rows[name]}" for name in CLASS_NAMES]
    return "\n".join(out) + "\n"
