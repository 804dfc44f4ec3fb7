"""Calibration kernels: fixed pure-Python work timed next to every op.

The machine this benchmark was tuned on changes speed by up to 2x, in
phases that last from seconds to minutes (see ``BASELINE.md``), so the
raw wall times of two runs are not comparable.  A kernel is therefore
timed before an op that uses it whenever ``REFRESH_S`` of op time has
passed since its last timing, and once more at the end of the run.  Each op's wall time is
scaled by ``NOMINAL_S[kernel]`` over the mean of the kernel's timings just
before and just after the op: the time the op would take at the speed at
which the kernel takes exactly its nominal time.  The kernels never change
and never touch revpal, so a change to revpal moves the ops and not the
kernels.

There are three kernels, because the machine's slow phases do not slow
all code alike:

* ``interp`` runs a fixed scalar reversible circuit over a few inputs,
  attribute lookups, generator expressions and small ints: the shape of
  revpal's simulator, parser and builders.
* ``bigint`` multiplies and adds integers of thousands of digits: the
  shape of revpal's census formulas.
* ``load`` unmarshals and executes a fixed module of class and function
  definitions: the shape of importing revpal.  It calibrates the import
  part of ``setup_s`` only.

Each op kind names its kernel in ``workloads.Op.calibration``.
"""

from __future__ import annotations

import marshal
import random
from time import perf_counter

#: Kernel times (seconds) that calibrated figures are scaled to: about
#: what each kernel takes on a 2.1 GHz Xeon VM in a fast phase.
NOMINAL_S = {"interp": 0.0015, "bigint": 0.002, "load": 0.002}
#: A kernel is timed again, before an op that uses it, once ops of any
#: kind have taken this much time since its last timing.
REFRESH_S = 0.05


class _Gate:
    __slots__ = ("kind", "target", "controls")

    def __init__(self, kind, target, controls):
        self.kind = kind
        self.target = target
        self.controls = controls


def _gates():
    rng = random.Random("calibrate")
    lines = list(range(1, 8))
    gates = []
    for _ in range(400):
        target = rng.choice(lines)
        others = [line for line in lines if line != target]
        controls = tuple(
            (line, rng.random() < 0.5) for line in rng.sample(others, rng.randint(0, 3))
        )
        gates.append(_Gate("t", target, controls))
    return gates


_GATES = _gates()


def _fires(gate, x):
    return all((x >> (line - 1)) & 1 == pol for line, pol in gate.controls)


def interp_kernel() -> int:
    total = 0
    for x in range(6):
        for gate in _GATES:
            if gate.kind != "t":
                raise ValueError(gate.kind)
            if _fires(gate, x):
                x ^= 1 << (gate.target - 1)
        total += x
    return total


def bigint_kernel() -> int:
    total = 0
    for top in (3001, 3101, 3201):
        product = 1
        for m in range(top, 1, -2):
            product *= m
        total += product * (product >> 64)
    return total


def _module_code() -> bytes:
    parts = []
    for i in range(60):
        parts.append(
            f"class C{i}:\n    __slots__ = ('a', 'b')\n"
            f"    def __init__(self, a, b):\n        self.a = a\n        self.b = b\n"
            f"    def f(self, x):\n        return [y * {i} for y in x if y]\n"
            f"def g{i}(a, b=({i}, 'x{i}'), *c, **d):\n    'doc {i}'\n    return a + b[0]\n"
            f"T{i} = {{'k{i}': ({i}, {i}.5, 'v{i}')}}\n"
        )
    return marshal.dumps(compile("".join(parts), "<calibrate>", "exec"))


_MODULE = _module_code()


def load_kernel() -> int:
    total = 0
    for _ in range(3):
        namespace = {"__name__": "calibrate_module"}
        exec(marshal.loads(_MODULE), namespace)
        total += len(namespace)
    return total


KERNELS = {"interp": interp_kernel, "bigint": bigint_kernel, "load": load_kernel}


class Calibrator:
    """Times the kernels when due and scales op times by them."""

    def __init__(self):
        self.since = {name: REFRESH_S for name in KERNELS}
        #: Every kernel time measured, per kernel.
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        #: ``(kernel, index of its timing just before, wall seconds)`` per op.
        self.ops: list[tuple[str, int, float]] = []

    def prepare(self, kernel: str) -> None:
        """Time ``kernel`` again if its last timing is stale; untimed part
        of the op's cycle, run before the op starts."""
        if self.since[kernel] >= REFRESH_S:
            self._time(kernel)

    def _time(self, kernel: str) -> None:
        started = perf_counter()
        KERNELS[kernel]()
        self.samples[kernel].append(perf_counter() - started)
        self.since[kernel] = 0.0

    def scale(self, kernel: str, seconds: float) -> float:
        """``seconds`` of op wall time, in calibrated seconds, by the kernel
        timing just before the op; the op is recorded for ``rescale``."""
        for name in self.since:
            self.since[name] += seconds
        before = len(self.samples[kernel]) - 1
        self.ops.append((kernel, before, seconds))
        return seconds * NOMINAL_S[kernel] / self.samples[kernel][before]

    def rescale(self) -> list[float]:
        """Calibrated seconds of every op recorded since the last call, by
        the mean of the kernel timings just before and just after it."""
        for kernel in {kernel for kernel, _, _ in self.ops}:
            self._time(kernel)
        scaled = []
        for kernel, before, seconds in self.ops:
            pair = self.samples[kernel][before : before + 2]
            scaled.append(seconds * NOMINAL_S[kernel] * 2 / sum(pair))
        self.ops = []
        return scaled
