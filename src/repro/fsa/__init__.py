"""Multitape two-way finite automata — the paper's Section 3 substrate."""

from repro.fsa.compile import CompiledFormula, compile_string_formula
from repro.fsa.decompile import decompile, normalize_for_decompile
from repro.fsa.determinize import (
    DeterministicKernel,
    classify_fragment,
    determinize,
    determinized_for,
    dfa_to_fsa,
    lockstep_intersection,
)
from repro.fsa.generate import accepted_tuples
from repro.fsa.kernel import CompiledKernel, compile_kernel, kernel_for
from repro.fsa.machine import FSA, State, Transition, make_fsa, tape_symbol
from repro.fsa.ops import disregard_tape, drop_tape, permute_tapes, widen
from repro.fsa.simulate import (
    Configuration,
    accepting_run,
    accepts,
    accepts_batch,
    language,
    reachable_configurations,
    reference_accepts,
)
from repro.fsa.specialize import specialize

__all__ = [
    "CompiledFormula",
    "compile_string_formula",
    "decompile",
    "normalize_for_decompile",
    "accepted_tuples",
    "CompiledKernel",
    "DeterministicKernel",
    "classify_fragment",
    "compile_kernel",
    "determinize",
    "determinized_for",
    "dfa_to_fsa",
    "kernel_for",
    "lockstep_intersection",
    "FSA",
    "State",
    "Transition",
    "make_fsa",
    "tape_symbol",
    "disregard_tape",
    "drop_tape",
    "permute_tapes",
    "widen",
    "Configuration",
    "accepting_run",
    "accepts",
    "accepts_batch",
    "language",
    "reachable_configurations",
    "reference_accepts",
    "specialize",
]
