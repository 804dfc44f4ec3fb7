"""Spans around revpal's public functions, recorded from outside ``src/``.

Each traced function is replaced, for the duration of a traced pass, in
every revpal module namespace (and module-level dict) that holds it, so
callers that did ``from .x import f`` look up the wrapper.  Spans live in
parallel arrays in memory and are written out once, at the end.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

ROOT = "bench.op"

#: (module, attribute) -> span name.  Methods are patched on their class.
FUNCTIONS = [
    ("cli", "main"),
    ("perm", "parse_permutation"),
    ("perm", "find_conjugator"),
    ("synth", "classify"),
    ("synth", "build_palindrome"),
    ("synth", "synthesize_permutation"),
    ("synth", "transposition_chain"),
    ("gates", "transposition_gate"),
    ("gates", "recognize_mpmct"),
    ("alternatives", "decompose"),
    ("alternatives", "build_ancilla_circuit"),
    ("alternatives", "build_v_circuit"),
    ("circuits", "parse_circuit"),
    ("circuits", "serialize_circuit"),
    ("simulate", "equivalent"),
    ("simulate", "equivalent_with_ancilla"),
    ("simulate", "simulate_classical"),
    ("simulate", "simulate_semiclassical"),
    ("census", "count_involutions"),
    ("census", "count_palindromic"),
    ("census", "formula_census"),
    ("census", "brute_force_census"),
]
METHODS = [
    ("circuits", "Circuit", "__init__", "circuits.Circuit"),
    ("census", "CensusReport", "as_text", "census.render"),
    ("census", "CensusReport", "as_json", "census.render"),
]


def _support(args, result):
    return sum(1 for x, y in enumerate(result.image) if x != y)


#: Span name -> function of (args, result) giving the span's count value.
VALUES = {
    "simulate.simulate_classical": lambda a, r: len(a[0].gates),
    "simulate.simulate_semiclassical": lambda a, r: len(a[0].gates),
    "simulate.equivalent": lambda a, r: a[1].degree,
    "simulate.equivalent_with_ancilla": lambda a, r: a[1].degree,
    "perm.find_conjugator": _support,
    "synth.synthesize_permutation": lambda a, r: len(r),
    "synth.build_palindrome": lambda a, r: len(r),
    "alternatives.build_ancilla_circuit": lambda a, r: len(r),
    "alternatives.build_v_circuit": lambda a, r: len(r),
}

SIMULATORS = ("simulate.simulate_classical", "simulate.simulate_semiclassical")
EQUIVALENCES = ("simulate.equivalent", "simulate.equivalent_with_ancilla")
BUILDERS = (
    "synth.build_palindrome",
    "alternatives.build_ancilla_circuit",
    "alternatives.build_v_circuit",
)


class Tracer:
    """Records spans in parallel arrays; ``parent`` links each span to the
    span open when it started, so every span leads back to its op."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_ids = {ROOT: 0}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack: list[int] = []
        self._sites: list[tuple] | None = None

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.value.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def op(self, call):
        """Run ``call()`` inside a root span; one root span per op."""
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        value_of = VALUES.get(name)
        open_, close, values = self._open, self._close, self.value

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if value_of is not None:
                values[idx] = value_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _find_sites(self) -> list[tuple]:
        """Every ``(setter, namespace, key, original, wrapper)`` to patch."""
        sites = []
        modules = [m for k, m in sys.modules.items() if k == "revpal" or k.startswith("revpal.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"revpal.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is original:
                        sites.append((setattr, mod, key, original, wrapper))
                    elif isinstance(val, dict):
                        for k, v in val.items():
                            if v is original:
                                sites.append((dict.__setitem__, val, k, original, wrapper))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"revpal.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            sites.append((setattr, cls, attr, original, self._wrap(span, original)))
        return sites

    def install(self) -> None:
        """Point every namespace that holds a traced function at its wrapper."""
        if self._sites is None:
            self._sites = self._find_sites()
        for setter, target, key, _, wrapper in self._sites:
            setter(target, key, wrapper)

    def uninstall(self) -> None:
        for setter, target, key, original, _ in self._sites:
            setter(target, key, original)

    def summary(self) -> dict[str, float]:
        """Per-layer totals over all recorded spans: self time, calls, counts."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        values: dict[str, int] = defaultdict(int)
        inside_equivalence = 0
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            values[name] += self.value[i]
            p = self.parent[i]
            if name in SIMULATORS and p >= 0 and self.names[self.name[p]] in EQUIVALENCES:
                inside_equivalence += 1
        inputs = sum(calls[s] for s in SIMULATORS)
        # Inputs an exhaustive check would run: 2^n per equivalence check,
        # plus every simulator call made outside one (``simulate --all``).
        possible = sum(values[e] for e in EQUIVALENCES) + inputs - inside_equivalence
        flank = 2 * values["synth.synthesize_permutation"]
        out = {f"{name}.self_s": t for name, t in self_s.items()}
        out.update({f"{name}.calls": c for name, c in calls.items()})
        out.update(
            {
                "simulate.inputs": inputs,
                "simulate.gate_evals": sum(values[s] for s in SIMULATORS),
                "simulate.early_exit_ratio": inputs / possible if possible else 0.0,
                "synth.flank_gates": flank,
                "synth.middle_gates": sum(values[b] for b in BUILDERS) - flank,
                "perm.conjugator_support": values["perm.find_conjugator"],
                "trace.wall_s": sum(dur[i] for i in range(n) if self.parent[i] < 0),
            }
        )
        return out

    def write(self, path) -> None:
        """Write every span as ``name parent start end value``, gzipped TSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart\tend\tvalue\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.value[i]}\n"
                )
