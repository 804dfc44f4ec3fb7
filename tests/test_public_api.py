"""The names ``from revpal import *`` binds, and the module each comes from."""

import importlib

import revpal

MODULES = ("alternatives", "census", "circuits", "gates", "perm", "simulate", "synth")

PUBLIC = [
    "CensusReport",
    "Circuit",
    "CircuitParseError",
    "Classification",
    "Gate",
    "MpmctGate",
    "Permutation",
    "SimulationError",
    "SingleTargetGate",
    "TargetDecomposition",
    "Transposition",
    "brute_force_census",
    "build_ancilla_circuit",
    "build_palindrome",
    "build_v_circuit",
    "centralizer_order",
    "classical_readout",
    "classify",
    "compose",
    "conjugate",
    "count_involutions",
    "count_mpmct",
    "count_of_type",
    "count_palindromic",
    "count_reversible",
    "count_single_target",
    "count_transpositions",
    "cycle_string",
    "decompose",
    "double_factorial",
    "enumerate_gates",
    "enumerate_single_target_gates",
    "equivalent",
    "equivalent_with_ancilla",
    "find_conjugator",
    "formula_census",
    "hamming_one_transpositions",
    "iter_involutions",
    "line_transpositions",
    "lines_for_degree",
    "nearest_gate",
    "one_line",
    "parse_circuit",
    "parse_permutation",
    "partitions",
    "recognize_mpmct",
    "serialize_circuit",
    "simulate_classical",
    "simulate_semiclassical",
    "span_mask",
    "synthesize_permutation",
    "transposition_chain",
    "transposition_gate",
    "truth_table",
]


def test_all_is_the_public_surface():
    assert revpal.__all__ == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from revpal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_each_name_comes_from_the_one_module_that_lists_it():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"revpal.{name}")
        for public in module.__all__:
            owners.setdefault(public, []).append(module)
    assert sorted(owners) == PUBLIC
    for public, [module] in owners.items():
        assert getattr(revpal, public) is getattr(module, public)
