"""Judge each op's result against the oracle.

An op is ``ok``, ``known`` (it exited 1 with its ``Op.known_failure``, a
defect of the seed) or ``wrong`` (it raised, or its verdict, exit code,
counts or circuit differ from the oracle's).  Only probes have a known
failure, and ``run.probe`` reports it without counting it; any ``wrong``
op makes the run incorrect.  A result identical to one already
judged ``ok`` for the same op is ``ok`` without a second check, so the
oracle's cost stays at one check per distinct output.
"""

from __future__ import annotations

import hashlib

from oracle import (
    OracleError,
    bits_text,
    census_text,
    cycle_text,
    is_palindrome,
    parse,
    readout,
    realizes,
)

EXIT_USAGE = 1


def run_correct(statuses) -> bool:
    """A run is correct when no op was ``wrong``."""
    return statuses["wrong"] == 0


class Checker:
    def __init__(self, pool):
        self.pool = pool
        self.ok_digests: dict[int, str] = {}
        self.expected: dict[int, str | None] = {}
        #: Gate count of the verified circuit of each op that emits one.
        self.gates: dict[int, int] = {}

    def check(self, index: int, result) -> tuple[str, str]:
        """Return ``(status, reason)`` for the result of ``pool[index]``."""
        if isinstance(result, BaseException):
            return "wrong", f"raised {type(result).__name__}: {result}"
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        if self.ok_digests.get(index) == digest:
            return "ok", ""
        op = self.pool[index]
        try:
            if op.builder is not None:
                status, reason = self._check_built(index, op, *result)
            else:
                status, reason = self._check_cli(index, op, *result)
        except OracleError as exc:
            status, reason = "wrong", f"unreadable circuit: {exc}"
        if status == "ok":
            self.ok_digests[index] = digest
        return status, reason

    def _check_cli(self, index, op, code, stdout, error=""):
        if code != op.expect_exit:
            known = code == EXIT_USAGE and op.known_failure and op.known_failure in error
            status = "known" if known else "wrong"
            return status, f"exit {code}, expected {op.expect_exit} {error}".rstrip()
        if op.argv[0] == "synth":
            return self._check_synth(index, op, stdout)
        if index not in self.expected:
            self.expected[index] = expected_stdout(op)
        if stdout != self.expected[index]:
            return "wrong", "stdout differs from the oracle"
        return "ok", ""

    def _check_synth(self, index, op, stdout):
        image = op.image
        n = len(image).bit_length() - 1
        s = sum(1 for x, y in enumerate(image) if x < y)
        mode = op.argv[op.argv.index("--mode") + 1]
        if s & (s - 1) == 0:
            mode = "palindrome"
            plural = "" if s == 1 else "s"
            kind = (
                f"involution with {s} transposition{plural}; "
                f"realizable as an odd palindromic circuit on {n} lines"
            )
        else:
            mode = "ancilla" if mode == "auto" else mode
            kind = (
                f"involution with {s} transpositions; transposition count is not "
                f"a power of two, so no odd palindromic circuit on {n} lines exists; "
                "alternative construction required"
            )
        head = stdout.split("\n", 7)
        if len(head) < 8:
            return "wrong", "truncated synth report"
        circuit = head[7]
        count = len(parse(circuit)[2])
        want = [
            "command: synth",
            f"permutation: {cycle_text(image)}",
            f"lines: {n}",
            f"classification: {kind}",
            f"mode: {mode}",
            f"circuit: {count} gates, odd, palindromic",
            "verified: true",
        ]
        if head[:7] != want:
            return "wrong", f"report header differs: {head[:7]!r}"
        return self._check_circuit(index, circuit, image, count, mode == "ancilla")

    def _check_built(self, index, op, text, count):
        return self._check_circuit(
            index, text, op.image, count, op.builder == "build_ancilla_circuit"
        )

    def _check_circuit(self, index, text, image, count, with_ancilla):
        lines, ancilla, gate_lines = parse(text)
        n = len(image).bit_length() - 1
        if (ancilla is not None) != with_ancilla or lines != n + with_ancilla:
            return "wrong", f"{lines} lines, ancilla {ancilla}"
        if count != len(gate_lines):
            return "wrong", f"reported {count} gates, text has {len(gate_lines)}"
        if len(gate_lines) % 2 == 0 or not is_palindrome(gate_lines):
            return "wrong", "circuit is not an odd palindrome"
        ok, reason = realizes(text, image)
        if not ok:
            return "wrong", reason
        self.gates[index] = count
        return "ok", ""


def expected_stdout(op) -> str | None:
    """The exact stdout the oracle requires, or None for ``synth`` ops whose
    circuit is free and checked structurally instead."""
    argv = op.argv
    if argv[0] == "census":
        method = "brute-force" if "--brute-force" in argv else "formula"
        return census_text(int(argv[2]), method, "--json" in argv)
    if argv[0] == "verify":
        path, text = argv[2], next(iter(op.files.values()))
        gate_lines = parse(text)[2]
        parity = "even" if len(gate_lines) % 2 == 0 else "odd"
        flag = "palindromic" if gate_lines == gate_lines[::-1] else "not palindromic"
        return (
            "command: verify\n"
            f"circuit: {path}\n"
            f"permutation: {cycle_text(op.image)}\n"
            f"circuit-stats: {len(gate_lines)} gates, {parity}, {flag}\n"
            f"equivalent: {'true' if op.expect_exit == 0 else 'false'}\n"
        )
    if argv[0] == "simulate":
        path, text = argv[2], next(iter(op.files.values()))
        lines = parse(text)[0]
        out = ["command: simulate", f"circuit: {path}", "mode: semiclassical"]
        for x, y in enumerate(readout(text)):
            result = "non-classical" if y is None else bits_text(y, lines)
            out.append(f"{bits_text(x, lines)} -> {result}")
        return "\n".join(out) + "\n"
    return None
