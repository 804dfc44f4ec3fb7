#!/usr/bin/env python3
"""Self-test of the benchmark's oracle and checker.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that the oracle agrees with the committed golden outputs in
``tests/golden/``, and that tampered results (a circuit with one dropped
gate, a wrong census count, an unexpected exit code, a raised exception)
each raise the fail ratio and make the run incorrect, so a broken program
cannot pass as "no failures".  Only the census digit-limit exit of the
seed, in the untimed N=11 and N=12 probes, fails without making a run
incorrect, and it is not counted.  Exits non-zero on the first check
that does not hold.
"""

from __future__ import annotations

import os
import shutil
import sys

from collections import Counter

from checker import Checker, run_correct
from oracle import census_text, realizes
from run import ROOT, Runner, probe, setup
from workloads import DIGIT_LIMIT, Op

GOLDEN = ROOT / "tests" / "golden"
WORKED = [1, 0, 7, 5, 4, 3, 6, 2]  # (0 1)(2 7)(3 5)


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"PASS: {what}")


def fail_ratio(checker: Checker, results) -> float:
    statuses = [checker.check(index, result)[0] for index, result in results]
    return sum(s != "ok" for s in statuses) / len(statuses)


def correct(checker: Checker, results) -> bool:
    return run_correct(Counter(checker.check(index, result)[0] for index, result in results))


def broken(runner: Runner, module, name: str, index: int) -> bool:
    """Run op ``index`` with ``module.name`` replaced by a function that
    raises ValueError; return whether the run stays correct."""
    original = getattr(module, name)

    def fail(*args, **kwargs):
        raise ValueError("injected failure")

    setattr(module, name, fail)
    try:
        status = runner.run(index)[2]
    finally:
        setattr(module, name, original)
    return run_correct(Counter([status]))


def drop_gate(text: str) -> str:
    lines = text.splitlines(keepends=True)
    gate = next(i for i, line in enumerate(lines) if line[0] in "tv")
    return "".join(lines[:gate] + lines[gate + 1 :])


def golden_checks() -> None:
    for name, n, method, as_json in [
        ("census_formula_3.txt", 3, "formula", False),
        ("census_brute_3.txt", 3, "brute-force", False),
        ("census_json_5.txt", 5, "formula", True),
    ]:
        golden = (GOLDEN / name).read_text()
        expect(census_text(n, method, as_json) == golden, f"census reference matches {name}")
    perm = " ".join(map(str, WORKED))
    pool = [
        Op("synth", argv=["synth", "--perm", perm, "--mode", "auto"], image=WORKED),
        Op("synth", argv=["synth", "--perm", perm, "--mode", "vgate"], image=WORKED),
    ]
    checker = Checker(pool)
    for index, name in enumerate(["synth_worked.txt", "synth_vgate_worked.txt"]):
        status, reason = checker.check(index, (0, (GOLDEN / name).read_text()))
        expect(status == "ok", f"checker accepts {name}" + (f": {reason}" if reason else ""))
    circuit = (GOLDEN / "synth_worked.txt").read_text().split("\n", 7)[7]
    op = Op("verify", argv=["verify", "--circuit", "worked.rev", "--perm", perm, "--ancilla"],
            image=WORKED, files={"worked.rev": circuit})
    status, _ = Checker([op]).check(0, (0, (GOLDEN / "verify_worked.txt").read_text()))
    expect(status == "ok", "checker accepts verify_worked.txt")


def tamper_checks(workdir) -> None:
    revpal, pool, perms = setup("synth", 1)
    runner = Runner(revpal, pool, perms, "synth", 1, workdir)
    index = next(i for i, op in enumerate(pool) if op.kind == "synth-palindrome")
    code, out, _ = runner.run_cli(pool[index].argv)
    checker = Checker(pool)
    expect(fail_ratio(checker, [(index, (code, out))] * 2) == 0, "honest synth results: fail ratio 0")
    vgate = next(i for i, op in enumerate(pool) if op.kind == "synth-vgate")
    expect(not broken(runner, revpal.cli, "build_v_circuit", vgate),
           "synth: a builder that raises (exit 1) makes the run incorrect")
    head, circuit = out.split("\n", 7)[:7], out.split("\n", 7)[7]
    count = int(head[5].split()[1])
    dropped = drop_gate(circuit)
    expect(not realizes(dropped, pool[index].image)[0], "oracle rejects a circuit with one dropped gate")
    head[5] = f"circuit: {count - 1} gates, odd, palindromic"
    tampered = (code, "\n".join(head) + "\n" + dropped)
    expect(fail_ratio(checker, [(index, (code, out)), (index, tampered)]) > 0,
           "synth: one dropped gate raises the fail ratio")

    revpal, pool, perms = setup("build", 1)
    runner = Runner(revpal, pool, perms, "build", 1, workdir)
    text, count = runner.run_build(0)
    checker = Checker(pool)
    expect(fail_ratio(checker, [(0, (text, count))]) == 0, "honest build result: fail ratio 0")
    expect(fail_ratio(checker, [(0, (drop_gate(text), count - 1))]) > 0,
           "build: one dropped gate raises the fail ratio")
    expect(not correct(checker, [(0, (drop_gate(text), count - 1))]),
           "build: one dropped gate makes the run incorrect")
    expect(not broken(runner, revpal.synth, "build_palindrome", 0),
           "build: a builder that raises makes the run incorrect")

    revpal, pool, perms = setup("census", 1)
    runner = Runner(revpal, pool, perms, "census", 1, workdir)
    checker = Checker(pool)
    expect(all(op.repeat == 0 for op in pool if op.known_failure),
           "census: only untimed probes may have a known failure")
    expect(probe(runner)["wrong"] == 0, "census: the honest probes are not wrong")
    for index, op in enumerate(pool):
        if op.argv[2] == "3" and "--brute-force" not in op.argv:
            code, out, _ = runner.run_cli(op.argv)
            expect(fail_ratio(checker, [(index, (code, out))]) == 0, f"honest {' '.join(op.argv)}: fail ratio 0")
            wrong = out.replace("40320", "40321")
            expect(fail_ratio(checker, [(index, (code, wrong))]) > 0,
                   f"{' '.join(op.argv)}: a wrong count raises the fail ratio")
            expect(not correct(checker, [(index, (code, wrong))]),
                   f"{' '.join(op.argv)}: a wrong count makes the run incorrect")
            expect(fail_ratio(checker, [(index, (1, out))]) > 0,
                   f"{' '.join(op.argv)}: exit 1 raises the fail ratio")
            digit_limit = (1, "", f"error: {DIGIT_LIMIT}")
            expect(not correct(checker, [(index, digit_limit)]),
                   f"{' '.join(op.argv)}: the digit-limit exit makes the run incorrect below N=11")
        if op.argv[2] == "11" and "--json" not in op.argv:
            code, out, error = runner.run_cli(op.argv)
            status = checker.check(index, (code, out, error))[0]
            expect(status in ("ok", "known"), f"honest {' '.join(op.argv)}: {status}, not wrong")
            expect(not correct(checker, [(index, (1, "", "error: some other failure"))]),
                   f"{' '.join(op.argv)}: exit 1 for another reason makes the run incorrect")

    revpal, pool, perms = setup("check", 1)
    runner = Runner(revpal, pool, perms, "check", 1, workdir)
    checker = Checker(pool)
    for kind in ("verify-match", "verify-dropped", "simulate-poisoned"):
        index = next(i for i, op in enumerate(pool) if op.kind == kind)
        code, out, _ = runner.run_cli(pool[index].argv)
        expect(fail_ratio(checker, [(index, (code, out))]) == 0, f"honest {kind}: fail ratio 0")
        flipped = 2 if code != 2 else 0
        expect(fail_ratio(checker, [(index, (flipped, out))]) > 0,
               f"{kind}: exit {flipped} instead of {code} raises the fail ratio")
    expect(fail_ratio(checker, [(index, RuntimeError("boom"))]) > 0, "a raised exception raises the fail ratio")
    expect(not correct(checker, [(index, RuntimeError("boom"))]), "a raised exception makes the run incorrect")


def main() -> None:
    golden_checks()
    workdir = ROOT / ".benchwork" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tamper_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: all checks hold")


if __name__ == "__main__":
    sys.exit(main())
