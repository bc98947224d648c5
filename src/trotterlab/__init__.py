"""Exact Trotter-error laboratory for k-local spin chains.

Builds frustration-free and long-range spin models from projector terms,
runs Suzuki product formulas of order 1 to 6 against the exact propagator,
measures the error restricted to low-energy subspaces, and evaluates the
matching analytic bounds so the two can be compared on the same grid.
"""
from .bounds import (BoundInputs, BoundReport, CERTIFIED_MAX_STEPS,
                     FORMULA_COMMUTATOR, FORMULA_CONST_GAMMA, FORMULA_COUNT_CONST,
                     FORMULA_COUNT_GENERAL, FORMULA_GENERIC,
                     FORMULA_WEAKLY_CORRELATED, trotter_number_certified,
                     const_gamma_error_bound, generic_error_bound,
                     projected_commutator_bound, trotter_count_formula,
                     unrestricted_commutator_bound, weakly_correlated_number)
from .embedding import embed_block
from .errors import (ErrorLab, excitation_tail_bound, low_energy_expectation_sum,
                     nested_commutator_sum)
from .formulas import (FormulaPlan, MAX_ORDER, OrderFit, apply_plan, cycle_count,
                       order_check, plan_table, suzuki_plan, validate_plan)
from .lattice import (HamiltonianSpec, LatticeSpec, LocalTerm,
                      ValidationReport, build_aklt, build_long_range_heisenberg,
                      build_mg, extensiveness, greedy_partition,
                      long_range_extensiveness, shift_psd, spec_from_json,
                      spec_to_json, spin_matrices, spin_sector_projector, validate)
from .operators import (assemble, conserved_charge, embed, evolve,
                        low_energy_projector, spectral_norm)
from .verify import CheckResult, results_to_csv, run_verify

__version__ = "0.1.0"

__all__ = [
    "BoundInputs", "BoundReport", "CERTIFIED_MAX_STEPS", "CheckResult", "ErrorLab",
    "FORMULA_COMMUTATOR", "FORMULA_CONST_GAMMA", "FORMULA_COUNT_CONST",
    "FORMULA_COUNT_GENERAL", "FORMULA_GENERIC", "FORMULA_WEAKLY_CORRELATED",
    "FormulaPlan", "HamiltonianSpec", "LatticeSpec", "LocalTerm", "MAX_ORDER",
    "OrderFit", "ValidationReport", "apply_plan", "assemble",
    "build_aklt", "build_long_range_heisenberg", "build_mg", "conserved_charge",
    "trotter_number_certified", "const_gamma_error_bound",
    "cycle_count", "embed", "embed_block", "evolve",
    "excitation_tail_bound", "extensiveness",
    "generic_error_bound", "greedy_partition",
    "long_range_extensiveness", "low_energy_expectation_sum",
    "low_energy_projector", "nested_commutator_sum", "order_check",
    "plan_table", "projected_commutator_bound",
    "results_to_csv", "run_verify", "shift_psd", "spec_from_json",
    "spec_to_json", "spectral_norm", "spin_matrices", "spin_sector_projector",
    "suzuki_plan", "trotter_count_formula", "unrestricted_commutator_bound",
    "validate", "validate_plan", "weakly_correlated_number",
]
