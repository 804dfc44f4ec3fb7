"""Seeded inputs for the four workloads, generated without importing revpal.

A workload is a pool of distinct operations plus a round: the multiset of
pool entries one pass runs.  Runs repeat shuffled rounds until their time
is spent.  The proportions in each round are chosen so that the median op
and the tail op (the 11th slowest of a run) each land inside one class of
op, because a mix split near 50/50 moves the median by tens of percent
from run to run.  Pools are large enough that the ten ops beyond the tail
come from several distinct inputs, so the tail does not hinge on the one
slowest input a seed happens to draw.

* ``synth``: ``revpal synth`` at n=7, the path users run.  Built-in scalar
  verification is ~95% of an op, so this workload tracks the simulator.
* ``build``: the three circuit builders plus ``serialize_circuit`` at n=11,
  with no simulation, so synthesis, the gate model and flank length show.
* ``check``: ``revpal verify`` / ``verify --ancilla`` / ``simulate --all``
  at n=7 on circuit files made here, not by revpal's synthesis.  Negatives
  (75% of a round) stop at the first mismatching input, where parsing
  dominates; positives run all 128 inputs.  The transposed negatives are
  56% of a round, so the median falls inside their class, not at its
  border with the slightly cheaper dropped-gate class.
* ``census``: ``revpal census`` for N up to 10 in the timed ops.  N=11
  and N=12 exit 1 at seed (CPython's int->str digit limit), and the
  timed ops must not fail, so they are probes (``repeat=0``): each run
  runs them once, untimed, after its timed ops, and reports the known
  failure without counting it.  Any other result of a probe is checked
  like a timed op, so a probe that answers wrongly makes the run
  incorrect, and one that answers right (once the defect is fixed)
  counts as an ok op.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import accumulate, combinations, product

from oracle import evaluate, identity_columns

WORKLOADS = ("synth", "build", "check", "census")

SYNTH_LINES = 7
BUILD_LINES = 11
CHECK_LINES = 7
#: Gates per generated ``check`` file.
CHECK_GATES = 400
#: The error the seed prints for census counts beyond CPython's int->str limit.
DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


@dataclass
class Op:
    """One operation.  ``argv`` drives ``revpal.cli.main``; ``builder`` names
    a library builder applied to the permutation ``image``.  An op with a
    ``known_failure`` may exit 1 with that text in its error line: a known
    defect of the seed, not a wrong answer.  An op with ``repeat=0`` is a
    probe: it runs once per run, untimed, after the timed ops (see
    ``run.probe``).  ``calibration`` names the kernel of ``calibrate.py``
    whose time scales the op's wall time."""

    kind: str
    argv: list[str] | None = None
    builder: str | None = None
    image: list[int] | None = None
    files: dict[str, str] = field(default_factory=dict)
    expect_exit: int = 0
    repeat: int = 1
    known_failure: str | None = None
    calibration: str = "interp"


def digest(pool: list[Op]) -> str:
    """sha256 of the pool, so runs on two commits can show identical inputs."""
    blob = json.dumps([asdict(op) for op in pool], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def generate(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "synth": _synth,
        "build": _build,
        "check": _check,
        "census": _census,
    }[workload](rng)


def involution(n: int, s: int, rng: random.Random) -> list[int]:
    points = list(range(1 << n))
    rng.shuffle(points)
    image = list(range(1 << n))
    for i in range(s):
        a, b = points[2 * i], points[2 * i + 1]
        image[a], image[b] = b, a
    return image


def _non_power_of_two(lo: int, hi: int, rng: random.Random) -> int:
    while True:
        s = rng.randint(lo, hi)
        if s & (s - 1):
            return s


def _synth(rng):
    # 60% ancilla route, 20% palindromes, 20% vgate: the median falls inside
    # the auto-mode ops, away from the cheaper vgate ops.  Sizes below 16
    # give much shorter circuits and would form a cheap class of their own.
    n = SYNTH_LINES
    pool = []
    for s in (16, 32, 64) * 8:
        image = involution(n, s, rng)
        pool.append(Op("synth-palindrome", argv=_synth_argv(image, "auto"), image=image))
    for i in range(72):
        image = involution(n, _non_power_of_two(17, 63, rng), rng)
        pool.append(Op("synth-ancilla", argv=_synth_argv(image, "auto"), image=image))
        if i < 24:
            pool.append(Op("synth-vgate", argv=_synth_argv(image, "vgate"), image=image))
    return pool


def _synth_argv(image, mode):
    return ["synth", "--perm", " ".join(map(str, image)), "--mode", mode]


def _build(rng):
    n = BUILD_LINES
    pool = []
    for s in (256, 512, 1024) * 6:
        pool.append(Op("build-palindrome", builder="build_palindrome", image=involution(n, s, rng)))
    for builder in ("build_ancilla_circuit", "build_v_circuit"):
        for _ in range(9):
            image = involution(n, _non_power_of_two(257, 1023, rng), rng)
            pool.append(Op(f"build-{builder.split('_')[1]}", builder=builder, image=image))
    return pool


# --- check ------------------------------------------------------------------


def _gate(rng, n, target=None, avoid=()):
    """A random gate on lines 1..n with up to three controls, in the
    oracle's ``(kind, target, controls)`` form."""
    if target is None:
        target = rng.randint(1, n)
    others = [line for line in range(1, n + 1) if line != target and line not in avoid]
    controls = sorted(rng.sample(others, rng.randint(0, min(3, len(others)))))
    return "t", target, tuple(c if rng.random() < 0.5 else -c for c in controls)


@cache
def _gate_table(n):
    """Every gate ``_gate(rng, n)`` can draw, with cumulative weights that
    give each the probability ``_gate`` gives it."""
    gates, weights = [], []
    for target in range(1, n + 1):
        others = [line for line in range(1, n + 1) if line != target]
        sizes = min(3, len(others)) + 1
        for k in range(sizes):
            subsets = list(combinations(others, k))
            for subset, signs in product(subsets, product((1, -1), repeat=k)):
                gates.append(("t", target, tuple(c * s for c, s in zip(subset, signs))))
                weights.append(1 / (n * sizes * len(subsets) * 2**k))
    return gates, list(accumulate(weights))


def _gates(rng, n, count):
    """``count`` gates drawn like ``_gate(rng, n)``, in one call."""
    gates, cum_weights = _gate_table(n)
    return rng.choices(gates, cum_weights=cum_weights, k=count)


@cache
def _line(gate):
    kind, target, controls = gate
    tokens = [f"x{c}" if c > 0 else f"-x{-c}" for c in controls]
    return " ".join([kind, *tokens, f"x{target}"])


def _text(lines, gates, ancilla=None):
    out = [f".lines {lines}"]
    if ancilla is not None:
        out.append(f".ancilla {ancilla}")
    out += map(_line, gates)
    return "\n".join(out) + "\n"


def _words(cols, lanes):
    return [sum(((col >> x) & 1) << b for b, col in enumerate(cols)) for x in range(lanes)]


def _image(lines, gates):
    hi, poisoned = evaluate(gates, identity_columns(lines, lines), 1 << lines)
    if poisoned:
        raise RuntimeError("classical file generator made a non-classical circuit")
    return _words(hi, 1 << lines)


def _one_line(image):
    return " ".join(map(str, image))


def _check(rng):
    n, g = CHECK_LINES, CHECK_GATES
    pool = []

    def add(kind, name, text, argv, expect_exit, image=None, repeat=1):
        argv = [argv[0], "--circuit", name, *argv[1:]]
        pool.append(Op(kind, argv=argv, image=image, files={name: text},
                       expect_exit=expect_exit, repeat=repeat))

    for i in range(15):
        # One gate dropped: never equivalent, since a Toffoli is never the
        # identity; the first mismatch comes within the first few inputs.
        gates = _gates(rng, n, g + 1)
        image = _image(n, gates)
        del gates[rng.randrange(len(gates))]
        add("verify-dropped", f"dropped{i}.rev", _text(n, gates),
            ["verify", "--perm", _one_line(image)], 2, image)
    for i in range(15):
        # Checked against p composed with (a b), a among the first eight
        # inputs: the scalar check exits at input min(a, b).
        gates = _gates(rng, n, g)
        image = _image(n, gates)
        a = rng.randrange(8)
        b = rng.choice([x for x in range(1 << n) if x != a])
        wrong = list(image)
        wrong[a], wrong[b] = wrong[b], wrong[a]
        add("verify-transposed", f"transposed{i}.rev", _text(n, gates),
            ["verify", "--perm", _one_line(wrong)], 2, wrong, repeat=3)
    for i in range(5):
        gates = _gates(rng, n, g)
        image = _image(n, gates)
        add("verify-match", f"match{i}.rev", _text(n, gates),
            ["verify", "--perm", _one_line(image)], 0, image)
    for i in range(5):
        text, image = _ancilla_file(rng, n, g)
        add("verify-ancilla", f"ancilla{i}.rev", text,
            ["verify", "--perm", _one_line(image), "--ancilla"], 0, image)
    for i in range(5):
        gates = _semiclassical_gates(rng, n, g)
        image = _image(n, gates)
        add("verify-vgate", f"vgate{i}.rev", _text(n, gates),
            ["verify", "--perm", _one_line(image)], 0, image)
    for i in range(5):
        gates = _poisoned_gates(rng, n, g)
        text = _text(n, gates)
        add("simulate-poisoned", f"poisoned{i}.rev", text, ["simulate", "--all"], 4)
    return pool


def _ancilla_file(rng, n, g):
    """Compute a flag into a zero ancilla, CNOT it onto ``t``, uncompute."""
    anc, t = n + 1, rng.randint(1, n)
    compute = [_gate(rng, n, target=anc, avoid=(t,)) for _ in range(4)]
    middle = compute + [("t", t, (anc,))] + compute[::-1]
    side = (g - len(middle)) // 2
    gates = _gates(rng, n, side) + middle
    gates += _gates(rng, n, g - len(gates))
    hi, poisoned = evaluate(gates, identity_columns(n, n) + [0], 1 << n)
    if poisoned or hi[n]:
        raise RuntimeError("ancilla file generator left the ancilla set")
    return _text(anc, gates, ancilla=anc), _words(hi[:n], 1 << n)


def _semiclassical_gates(rng, n, g):
    """Pairs of half-turns on one target, shuffled: the target is never read
    while half-turned and every pair sums to 0 or 2 mod 4."""
    t = rng.randint(1, n)
    block = []
    for _ in range(8):
        _, _, controls = _gate(rng, n, target=t)
        first, second = rng.choice([("v", "v"), ("v", "v+"), ("v+", "v+")])
        block += [(first, t, controls), (second, t, controls)]
    rng.shuffle(block)
    side = (g - len(block)) // 2
    gates = _gates(rng, n, side) + block
    return gates + _gates(rng, n, g - len(gates))


def _poisoned_gates(rng, n, g):
    """One unpaired ``v``: inputs that fire it end (or are read) half-turned."""
    t = rng.randint(1, n)
    others = [line for line in range(1, n + 1) if line != t]
    controls = tuple(c if rng.random() < 0.5 else -c
                     for c in sorted(rng.sample(others, rng.randint(1, 2))))
    side = g // 2
    gates = _gates(rng, n, side) + [("v", t, controls)]
    return gates + _gates(rng, n, g - len(gates))


def _census(rng):
    # N<=8 ops (~2 ms) are 87% of a round, so they hold the median.  N=10
    # ops (~35 ms, half a round's time) come about 500 times in a 20-s run,
    # so the tail stays among them.  N=11 and N=12 are probes (repeat 0):
    # they exit 1 at seed and the timed ops must not fail.
    pool = []
    for n in range(1, 13):
        for as_json in (False, True):
            repeat = 12 if n <= 8 else 2 if n == 9 else 6 if n == 10 else 0
            argv = ["census", "--n", str(n)] + (["--json"] if as_json else [])
            known = DIGIT_LIMIT if n >= 11 else None
            # From N=9 on, big-integer arithmetic is most of an op.
            kernel = "bigint" if n >= 9 else "interp"
            pool.append(Op(f"census-{n}", argv=argv, repeat=repeat, known_failure=known,
                           calibration=kernel))
    for n in (1, 2, 3):
        pool.append(Op("census-brute", argv=["census", "--n", str(n), "--brute-force"]))
    return pool
