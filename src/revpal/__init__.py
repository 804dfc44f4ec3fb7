"""Palindromic reversible circuits.

Decide which self-inverse reversible functions can be written as a circuit
equal to its own reversal, build those circuits, construct the
ancilla-based and square-root-of-NOT alternatives for the rest, count all
the function classes exactly, and verify everything by simulation.
"""

from .alternatives import (
    TargetDecomposition,
    build_ancilla_circuit,
    build_v_circuit,
    decompose,
)
from .census import (
    CensusReport,
    brute_force_census,
    centralizer_order,
    count_involutions,
    count_mpmct,
    count_of_type,
    count_palindromic,
    count_reversible,
    count_single_target,
    count_transpositions,
    double_factorial,
    formula_census,
    iter_involutions,
    partitions,
)
from .circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    parse_circuit,
    serialize_circuit,
)
from .gates import (
    MpmctGate,
    SingleTargetGate,
    enumerate_gates,
    enumerate_single_target_gates,
    hamming_one_transpositions,
    line_transpositions,
    nearest_gate,
    recognize_mpmct,
    span_mask,
    transposition_gate,
)
from .perm import (
    Permutation,
    Transposition,
    compose,
    conjugate,
    cycle_string,
    find_conjugator,
    lines_for_degree,
    one_line,
    parse_permutation,
)
from .simulate import (
    SimulationError,
    classical_readout,
    equivalent,
    equivalent_with_ancilla,
    simulate_classical,
    simulate_semiclassical,
    truth_table,
)
from .synth import (
    Classification,
    build_palindrome,
    classify,
    synthesize_permutation,
    transposition_chain,
)

__version__ = "0.1.0"

__all__ = [
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
