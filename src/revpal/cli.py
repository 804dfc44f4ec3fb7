"""Command line frontend.

Subcommands: classify, synth, verify, census, simulate.  Reports go to
stdout and are byte-stable for fixed inputs; timing and diagnostics go to
stderr.  Exit codes: 0 success, 1 usage or parse error, 2 verification
failure, 3 brute-force census beyond the supported line count, 4
non-classical simulation readout.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from pathlib import Path

from . import census as census_mod
from .alternatives import build_ancilla_circuit, build_v_circuit
from .circuits import Circuit, CircuitParseError, parse_circuit, serialize_circuit
from .perm import MAX_LINES, Permutation, _clip, cycle_string, lines_for_degree, parse_permutation
from .simulate import (
    SimulationError,
    classical_readout,
    equivalent,
    equivalent_with_ancilla,
    simulate_all,
    simulate_semiclassical,
)
from .synth import (
    IDENTITY,
    NOT_INVOLUTION,
    PALINDROMIC,
    Classification,
    build_palindrome,
    classify,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CENSUS_RANGE = 3
EXIT_NONCLASSICAL = 4


#: The most characters of an argparse message an error line shows.
_MAX_MESSAGE = 150


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse quotes a rejected argument whole, and lists every
        # unrecognized one; either can run to pages.
        message = re.sub(r"[^\s'\"]{21,}", lambda m: _clip(m[0], str), message)
        if len(message) > _MAX_MESSAGE:
            message = f"{message[:_MAX_MESSAGE]}... ({len(message)} characters)"
        raise ValueError(message)


def _line_count(n: int) -> int:
    """``n`` itself, if it is a line count ``--n`` accepts."""
    if not 1 <= n <= MAX_LINES:
        raise ValueError(f"--n wants a line count in 1..{MAX_LINES}, got {_clip(str(n), str)}")
    return n


def _load_permutation(args) -> Permutation:
    n = getattr(args, "n", None)
    degree = None if n is None else 1 << _line_count(n)
    return parse_permutation(args.perm, degree=degree)


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse_circuit(text)
    except CircuitParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def classification_text(c: Classification, n: int) -> str:
    if c.kind == NOT_INVOLUTION:
        return "not self-inverse; out of scope for palindromic synthesis"
    if c.kind == IDENTITY:
        return "identity; realized by the empty (even palindromic) circuit"
    if c.kind == PALINDROMIC:
        plural = "" if c.size == 1 else "s"
        return (
            f"involution with {c.size} transposition{plural}; "
            f"realizable as an odd palindromic circuit on {n} lines"
        )
    return (
        f"involution with {c.size} transpositions; transposition count is not "
        f"a power of two, so no odd palindromic circuit on {n} lines exists; "
        "alternative construction required"
    )


def _circuit_stats(c: Circuit) -> str:
    flag = "palindromic" if c.is_palindromic() else "not palindromic"
    return f"{len(c)} gates, {c.parity()}, {flag}"


def _print_header(command: str, p: Permutation, c: Classification) -> None:
    """The report lines ``classify`` and ``synth`` share."""
    n = lines_for_degree(p.degree)
    print(f"command: {command}")
    print(f"permutation: {cycle_string(p)}")
    print(f"lines: {n}")
    print(f"classification: {classification_text(c, n)}")


def _cmd_classify(args) -> int:
    p = _load_permutation(args)
    _print_header("classify", p, classify(p))
    return EXIT_OK


def _cmd_synth(args) -> int:
    p = _load_permutation(args)
    c = classify(p)
    mode = args.mode
    if mode == "auto":
        if c.kind == NOT_INVOLUTION:
            raise ValueError("cannot synthesize: the permutation is not self-inverse")
        mode = "palindrome" if c.kind in (IDENTITY, PALINDROMIC) else "ancilla"
    if mode == "palindrome":
        circuit = build_palindrome(p)
    elif mode == "ancilla":
        circuit = build_ancilla_circuit(p)
    else:
        circuit = build_v_circuit(p)
    if circuit.ancilla is not None:
        ok = equivalent_with_ancilla(circuit, p)
    else:
        ok = equivalent(circuit, p)
    # Write before the report, so that a failed write prints no report.
    text = serialize_circuit(circuit) if ok else ""
    if ok and args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
        text = f"written: {args.output}\n"
    _print_header("synth", p, c)
    print(f"mode: {mode}")
    print(f"circuit: {_circuit_stats(circuit)}")
    print(f"verified: {'true' if ok else 'false'}")
    if not ok:
        print("synthesized circuit failed verification", file=sys.stderr)
        return EXIT_VERIFY
    print(text, end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    p = _load_permutation(args)
    circuit = _load_circuit(args.circuit)
    ok = equivalent_with_ancilla(circuit, p) if args.ancilla else equivalent(circuit, p)
    print("command: verify")
    print(f"circuit: {args.circuit}")
    print(f"permutation: {cycle_string(p)}")
    print(f"circuit-stats: {_circuit_stats(circuit)}")
    print(f"equivalent: {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_census(args) -> int:
    _line_count(args.n)
    if args.brute_force:
        try:
            report = census_mod.brute_force_census(args.n)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CENSUS_RANGE
    else:
        report = census_mod.formula_census(args.n)
    if args.json:
        print(report.as_json(), end="")
    else:
        print("command: census")
        print(report.as_text(), end="")
    return EXIT_OK


def _format_bits(value: int, lines: int) -> str:
    return format(value, f"0{lines}b")[::-1]


def _parse_bits(text: str, lines: int) -> int:
    if len(text) != lines or any(ch not in "01" for ch in text):
        raise ValueError(f"input must be {lines} bits of 0/1 (x1 first), got {_clip(text)}")
    return sum(int(ch) << i for i, ch in enumerate(text))


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args.circuit)
    # Rows pair an input with its output word, or with the reason its
    # semi-classical run fails.  --input runs the scalar
    # simulate_semiclassical; --all reads every row, reasons too, from
    # simulate_all's whole-table run.  On a Toffoli-only circuit both
    # answer as the classical simulator does.
    if args.input is not None:
        x = _parse_bits(args.input, circuit.lines)
        try:
            rows = [(x, classical_readout(simulate_semiclassical(circuit, x)))]
        except SimulationError as exc:
            rows = [(x, str(exc))]
    elif args.all:
        outputs, reasons = simulate_all(circuit)
        rows = [(x, reasons.get(x, out)) for x, out in enumerate(outputs)]
    else:
        raise ValueError("need --input BITS or --all")
    semi = args.semiclassical or circuit.has_quantum_gates()
    print("command: simulate")
    print(f"circuit: {args.circuit}")
    print(f"mode: {'semiclassical' if semi else 'classical'}")
    code = EXIT_OK
    for x, out in rows:
        bits = _format_bits(x, circuit.lines)
        if isinstance(out, str):
            print(f"{bits} -> non-classical")
            print(f"input {bits}: {out}", file=sys.stderr)
            code = EXIT_NONCLASSICAL
        else:
            print(f"{bits} -> {_format_bits(out, circuit.lines)}")
    return code


@functools.cache  # the parser depends on no input; main may run many times
def _build_parser() -> _Parser:
    parser = _Parser(prog="revpal", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_perm(p):
        p.add_argument("--perm", required=True, help="one-line or cycle notation")
        p.add_argument("--n", type=int, help="line count override (degree 2**n)")

    p = sub.add_parser("classify", help="report palindromic realizability")
    add_perm(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("synth", help="synthesize and verify a circuit")
    add_perm(p)
    p.add_argument(
        "--mode",
        choices=("auto", "palindrome", "ancilla", "vgate"),
        default="auto",
    )
    p.add_argument("-o", "--output", help="write the circuit file here")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("verify", help="check a circuit against a permutation")
    add_perm(p)
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument(
        "--ancilla",
        action="store_true",
        help="treat the marked line as a zero-initialized ancilla",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("census", help="count the function classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("simulate", help="run a circuit on inputs")
    p.add_argument("--circuit", required=True, help="circuit file")
    inputs = p.add_mutually_exclusive_group()
    inputs.add_argument("--input", help="one input as bits, x1 first")
    inputs.add_argument("--all", action="store_true", help="run every input")
    p.add_argument(
        "--semiclassical",
        action="store_true",
        help="label the report 'mode: semiclassical'; both modes run the "
        "same semi-classical model, so the rows do not change",
    )
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help printed the usage
        return exc.code
    print(f"time: {time.perf_counter() - started:.4f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
