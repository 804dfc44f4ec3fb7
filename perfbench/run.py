#!/usr/bin/env python3
"""Benchmark for revpal: four seeded workloads, checked against an oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Workloads are ``synth``, ``build``, ``check`` and ``census`` (see
``workloads.py``).  Each run imports revpal from ``src/``, generates its
inputs from the seed, then runs one untimed warm-up op of each kind and
shuffled rounds of ops in this one process, one op at a time.  Timings
are calibrated: each op's wall time
is scaled by a fixed kernel timed next to it (``calibrate.py``), so that
the machine's changes of speed cancel; the uncalibrated figures are
printed too.  A run lasts until its ops have taken ``--seconds``
calibrated seconds, so every run does about the same work whatever the
machine's speed.  Every result is judged by ``checker.py``, outside the
timed region.  Probes (``repeat=0`` ops: census at N=11 and N=12, a known
defect of the seed) run once after the timed ops; their known failure is
reported but not counted.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs every op twice, traced and untraced, and prints the
per-layer metrics, per op, plus the tracing overhead; the
spans go to ``.bench_traces/<workload>.spans.tsv.gz``.  The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (sibling modules; the script dir is on sys.path)
from calibrate import KERNELS, NOMINAL_S, Calibrator  # noqa: E402
from checker import Checker, run_correct  # noqa: E402
from spans import Tracer  # noqa: E402

#: Fresh interpreters that time the set-up; ``setup_s`` is their median.
SETUP_PROBES = 21
#: The tail latency is the op with exactly this many slower ops beyond it.
TAIL_BEYOND = 10
#: A run also stops once its ops took this many times ``--seconds`` of
#: wall time, so a very slow phase of the machine cannot stretch it.
WALL_CAP = 2


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def import_revpal():
    if not (SRC / "revpal" / "__init__.py").is_file():
        raise BenchError(f"no revpal sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import revpal
    import revpal.cli

    if Path(revpal.__file__).resolve().parent != SRC / "revpal":
        raise BenchError(f"imported revpal from {revpal.__file__}, not {SRC}")
    return revpal


def setup(workload: str, seed: int):
    """Import revpal and build the inputs: the part ``setup_s`` times."""
    revpal = import_revpal()
    pool = workloads.generate(workload, seed)
    perms = {
        i: revpal.Permutation(op.image) for i, op in enumerate(pool) if op.builder
    }
    return revpal, pool, perms


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float, float, float]]:
    """Time ``setup`` in fresh interpreters, so imports are paid in full:
    ``(import revpal, whole set-up, load kernel, interp kernel)`` seconds
    per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(tuple(map(float, proc.stdout.split()[-4:])))
    return times


def calibrated_setup(imported: float, total: float, load: float, interp: float) -> float:
    """One probe's set-up time, calibrated: the import by the ``load``
    kernel and the making of the inputs by the ``interp`` kernel."""
    return (imported * NOMINAL_S["load"] / load
            + (total - imported) * NOMINAL_S["interp"] / interp)


class Runner:
    """Executes ops from the pool, one at a time, and judges each result."""

    def __init__(self, revpal, pool, perms, workload: str, seed: int, workdir: Path):
        self.revpal = revpal
        self.pool = pool
        self.perms = perms
        self.checker = Checker(pool)
        self.calibrator = Calibrator()
        self.rng = random.Random(f"{workload}:{seed}:order")
        self.round = [i for i, op in enumerate(pool) for _ in range(op.repeat)]
        self.failures: Counter = Counter()
        for op in pool:
            for name, text in op.files.items():
                (workdir / name).write_text(text)
                op.argv[op.argv.index(name)] = str((workdir / name).relative_to(ROOT))

    def next_round(self) -> list[int]:
        """A shuffled round in which each kind of op is spread evenly, so a
        run cut off mid-round still has the round's mix of kinds."""
        by_kind = defaultdict(list)
        for index in self.round:
            by_kind[self.pool[index].kind].append(index)
        placed = []
        for members in by_kind.values():
            self.rng.shuffle(members)
            phase = self.rng.random()
            placed += [((k + phase) / len(members), i) for k, i in enumerate(members)]
        return [index for _, index in sorted(placed)]

    def run_cli(self, argv):
        """``(exit code, stdout, last "error:" line of stderr or "")``."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.revpal.cli.main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        return code, out.getvalue(), errors[-1] if errors else ""

    def run_build(self, index):
        op = self.pool[index]
        module = self.revpal.synth if op.builder == "build_palindrome" else self.revpal.alternatives
        circuit = getattr(module, op.builder)(self.perms[index])
        return self.revpal.circuits.serialize_circuit(circuit), len(circuit)

    def run(self, index: int, tracer: Tracer | None = None) -> tuple[float, float, str, str]:
        """Run one op; return its wall time, calibrated time, status and kind."""
        op = self.pool[index]
        if op.builder:
            call = lambda: self.run_build(index)  # noqa: E731
        else:
            call = lambda: self.run_cli(op.argv)  # noqa: E731
        if tracer is not None:
            inner = call
            call = lambda: tracer.op(inner)  # noqa: E731
        self.calibrator.prepare(op.calibration)
        started = perf_counter()
        try:
            result = call()
        except Exception as exc:  # judged a wrong answer; the run goes on
            result = exc
        elapsed = perf_counter() - started
        calibrated = self.calibrator.scale(op.calibration, elapsed)
        status, reason = self.checker.check(index, result)
        if status != "ok":
            self.failures[(op.kind, status, reason)] += 1
        return elapsed, calibrated, status, op.kind


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND ops beyond it, and its percentile."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def warm_up(runner: Runner) -> Counter:
    """Run the first op of each kind once, untimed, so that no first-call
    cost of the process lands in the measured ops; return the statuses."""
    statuses = Counter()
    first = {op.kind: i for i, op in reversed(list(enumerate(runner.pool))) if op.repeat}
    for index in first.values():
        statuses[runner.run(index)[2]] += 1
    runner.calibrator.rescale()
    return statuses


def probe(runner: Runner) -> Counter:
    """Run each probe once, untimed, and return the statuses that count:
    a probe's ``known`` failure is only reported (by ``main``), while
    ``ok`` and ``wrong`` count like those of timed ops."""
    statuses = Counter()
    for index, op in enumerate(runner.pool):
        if op.repeat == 0:
            status = runner.run(index)[2]
            if status != "known":
                statuses[status] += 1
    return statuses


def measure(runner: Runner, seconds: float):
    """Run rounds until ``seconds`` of calibrated op time; return the wall
    and the calibrated latencies, the statuses and the calibrated latencies
    by kind."""
    walls, kinds, statuses = [], [], Counter()
    spent = wall = 0.0

    def done():
        return spent >= seconds or wall >= WALL_CAP * seconds

    while not done():
        for index in runner.next_round():
            elapsed, calibrated, status, kind = runner.run(index)
            walls.append(elapsed)
            kinds.append(kind)
            statuses[status] += 1
            spent += calibrated
            wall += elapsed
            if done():
                break
    latencies = runner.calibrator.rescale()
    by_kind = defaultdict(list)
    for kind, latency in zip(kinds, latencies):
        by_kind[kind].append(latency)
    return walls, latencies, statuses, by_kind


def measure_traced(runner: Runner, seconds: float, tracer: Tracer):
    """Run each op twice, untraced and traced, alternating which goes first."""
    spent = {False: 0.0, True: 0.0}
    statuses = Counter()
    pairs = 0
    while spent[False] + spent[True] < seconds:
        for index in runner.next_round():
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    elapsed, _, status, _ = runner.run(index, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                spent[traced] += elapsed
                statuses[status] += 1
            pairs += 1
            if spent[False] + spent[True] >= seconds:
                break
    return spent, statuses, pairs


def emit(metric_specs, values, statuses, report):
    for line in report:
        print(line)
    metrics = {}
    for spec in metric_specs:
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
    attempted = sum(statuses.values())
    print(json.dumps({
        "correct": run_correct(statuses),
        "attempted": attempted,
        "failed": attempted - statuses["ok"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        kernel_s = {"load": [], "interp": []}
        for name, times in kernel_s.items():
            for _ in range(3):
                started = perf_counter()
                KERNELS[name]()
                times.append(perf_counter() - started)
        started = perf_counter()
        import_revpal()
        imported = perf_counter()
        setup(args.workload, args.seed)
        print(imported - started, perf_counter() - started,
              statistics.median(kernel_s["load"]), statistics.median(kernel_s["interp"]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = setup_seconds(args.workload, args.seed)
    revpal, pool, perms = setup(args.workload, args.seed)
    digest = workloads.digest(pool)
    workdir = ROOT / ".benchwork" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(revpal, pool, perms, args.workload, args.seed, workdir)
        report = [
            f"workload: {args.workload}  seed: {args.seed}  pool: {len(pool)} ops, "
            f"round: {len(runner.round)} ops",
            f"inputs-sha256: {digest}",
        ]
        if args.trace:
            values, statuses = traced_run(runner, args, report)
            metric_specs = spec["per_layer"]
        else:
            values, statuses = plain_run(runner, args, report, setups)
            metric_specs = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for (kind, status, reason), count in sorted(runner.failures.items()):
        what = "known, not counted" if status == "known" else "failed"
        report.append(f"{what}: {count} x {kind} ({status}): {reason}")
    emit(metric_specs, values, statuses, report)
    return 0


def plain_run(runner, args, report, setups):
    warm = warm_up(runner)
    walls, latencies, statuses, kinds = measure(runner, args.seconds)
    attempted = len(latencies)
    failed = attempted - statuses["ok"]
    tail_s, tail_pct = tail(latencies)
    spent = sum(latencies)
    values = {
        "ops_per_s": statuses["ok"] / spent,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(calibrated_setup(*timing) for timing in setups),
    }
    samples = runner.calibrator.samples
    report += [
        "calibration: " + ", ".join(
            f"kernel {name} median {statistics.median(t) * 1e3:.4f} ms over {len(t)} "
            f"timings, scaled to {NOMINAL_S[name] * 1e3:g} ms"
            for name, t in samples.items() if t),
        f"ops_per_s: {values['ops_per_s']:.4f} 1/s ({statuses['ok']} ok ops in {spent:.3f} "
        f"calibrated s; uncalibrated {statuses['ok'] / sum(walls):.4f} 1/s in {sum(walls):.3f} s)",
        f"latency_p50_ms: {values['latency_p50_ms']:.4f} ms "
        f"(uncalibrated {statistics.median(walls) * 1e3:.4f} ms)",
        f"latency_tail_ms: {values['latency_tail_ms']:.4f} ms "
        f"(p{tail_pct:.2f} of {attempted} ops, {min(TAIL_BEYOND, attempted - 1)} beyond; "
        f"uncalibrated {tail(walls)[0] * 1e3:.4f} ms)",
    ]
    if any(op.builder or op.argv[0] == "synth" for op in runner.pool):
        gates = runner.checker.gates
        report.append(
            f"gates_total: {sum(gates.values())} gates "
            f"(one pass over {len(gates)} of {len(runner.pool)} pooled inputs)"
        )
    report += [
        f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} timed ops; "
        f"{statuses['wrong']} wrong)",
        f"peak_rss_mb: {values['peak_rss_mb']:.4f} MB",
        f"setup_s: {values['setup_s']:.6f} s (median of {len(setups)} fresh processes, "
        f"calibrated; uncalibrated {statistics.median(t for _, t, _, _ in setups):.6f} s, of "
        f"which import revpal {statistics.median(i for i, _, _, _ in setups):.6f} s and the "
        f"rest makes the inputs)",
    ]
    for kind, times in sorted(kinds.items()):
        report.append(
            f"class {kind}: {len(times)} ops, median {statistics.median(times) * 1e3:.3f} ms"
        )
    report.append(f"warm-up: {sum(warm.values())} ops, one of each kind, checked but not timed")
    return values, statuses + warm + probe(runner)


def traced_run(runner, args, report):
    tracer = Tracer()
    warm = warm_up(runner)
    spent, statuses, traced_ops = measure_traced(runner, args.seconds, tracer)
    probed = probe(runner)
    totals = tracer.summary()
    values = {}
    for name, value in totals.items():
        values[name] = value if name.endswith("_ratio") else value / traced_ops
    values["trace.overhead_s"] = (spent[True] - spent[False]) / traced_ops
    values["trace.overhead_ratio"] = spent[True] / spent[False] - 1
    out_dir = ROOT / ".bench_traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}.spans.tsv.gz")
    wall = totals["trace.wall_s"]
    report.append(
        f"traced: {traced_ops} ops, {spent[True]:.3f} s traced vs "
        f"{spent[False]:.3f} s untraced on the same ops "
        f"(overhead {values['trace.overhead_ratio'] * 100:.2f}%)"
    )
    layers = sorted(
        (t, name[: -len(".self_s")]) for name, t in totals.items() if name.endswith(".self_s")
    )
    by_module = defaultdict(float)
    for t, name in layers:
        by_module[name.split(".")[0]] += t
    report.append("self time by module: " + ", ".join(
        f"{m} {t / wall * 100:.1f}%" for m, t in sorted(by_module.items(), key=lambda kv: -kv[1])))
    for t, name in reversed(layers):
        report.append(
            f"layer {name}: self {t / wall * 100:.2f}% of traced wall, "
            f"{t / traced_ops * 1e3:.4f} ms/op, {totals.get(name + '.calls', 0) / traced_ops:.2f} calls/op"
        )
    return values, statuses + warm + probed


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
