#!/usr/bin/env python3
"""Single-stage timings behind the baseline table in ``BASELINE.md``.

Run from the root of a checkout:

    python3 perfbench/stages.py 8 10 12

For each line count n it builds a palindrome for a seeded random
involution with 2^(n-2) transpositions, then times ``build_palindrome``,
``serialize_circuit`` and ``parse_circuit`` (median of three) and, up to
n=10, the scalar ``equivalent`` check (one run).
"""

from __future__ import annotations

import argparse
import random
import statistics
from time import perf_counter

from run import import_revpal
from workloads import involution

#: Larger n takes minutes per scalar check at seed.
VERIFY_UP_TO = 10


def timed(call, repeat):
    times, result = [], None
    for _ in range(repeat):
        started = perf_counter()
        result = call()
        times.append(perf_counter() - started)
    return statistics.median(times), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("lines", type=int, nargs="+")
    args = parser.parse_args()
    revpal = import_revpal()
    print("n   gates     build_s   serialize_s  parse_s   equivalent_s")
    for n in args.lines:
        image = involution(n, 1 << (n - 2), random.Random(f"stages:{n}:1"))
        p = revpal.Permutation(image)
        build_s, circuit = timed(lambda: revpal.build_palindrome(p), 3)
        serialize_s, text = timed(lambda: revpal.serialize_circuit(circuit), 3)
        parse_s, _ = timed(lambda: revpal.parse_circuit(text), 3)
        verify = "-"
        if n <= VERIFY_UP_TO:
            verify_s, ok = timed(lambda: revpal.equivalent(circuit, p), 1)
            if not ok:
                raise SystemExit(f"n={n}: the built circuit does not verify")
            verify = f"{verify_s:.3f}"
        print(f"{n:<3} {len(circuit):<9} {build_s:<9.3f} {serialize_s:<12.3f} {parse_s:<9.3f} {verify}")


if __name__ == "__main__":
    main()
