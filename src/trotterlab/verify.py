"""Desk-scale invariant battery behind the ``verify`` subcommand.

Each check exercises one documented invariant on small built-in models and
reports a stable check id, a pass flag and the observed worst case.  The
battery is deterministic for a fixed seed, so two runs serialize to
byte-identical CSV.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BoundInputs, trotter_number_certified, const_gamma_error_bound,
                     generic_error_bound, projected_commutator_bound,
                     trotter_count_formula, unrestricted_commutator_bound)
from .errors import (ErrorLab, excitation_tail_bound, low_energy_expectation_sum,
                     nested_commutator_sum)
from .formulas import FormulaPlan, apply_plan, order_check, plan_table, suzuki_plan
from .lattice import (HamiltonianSpec, LatticeSpec, LocalTerm, PAULI_Z, build_aklt,
                      build_long_range_heisenberg, build_mg, extensiveness,
                      long_range_extensiveness, validate)
from .operators import assemble, embed, evolve, low_energy_projector, spectral_norm

AKLT_SIZES = (3, 4, 5)
MG_SIZES = (4, 6, 8)
LR_SIZE = 5
LR_NU = 2.0


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    observed: float | None
    threshold: float | None


def _commuting_chain(num_sites: int) -> HamiltonianSpec:
    """Ising chain of (Z Z + 1)/2 bonds: all terms commute globally."""
    lattice = LatticeSpec(num_sites, 2)
    block = (np.kron(PAULI_Z, PAULI_Z) + np.eye(4)) / 2
    terms = tuple(LocalTerm((i, i + 1), block) for i in range(num_sites - 1))
    partition = tuple(1 if i % 2 == 0 else 2 for i in range(num_sites - 1))
    return HamiltonianSpec(lattice, terms, partition, locality_k=2, model_tag="ising_zz")


def run_verify(seed: int = 0) -> list[CheckResult]:
    """Run the whole battery; deterministic for a fixed seed."""
    from functools import cache

    rng = np.random.default_rng(seed)
    builders = {"aklt": build_aklt, "mg": build_mg,
                "lr_heisenberg": lambda n: build_long_range_heisenberg(n, LR_NU)}

    @cache
    def lab_for(tag: str, n: int) -> ErrorLab:
        return ErrorLab(builders[tag](n))

    specs = [lab_for(tag, n).spec for tag, sizes in
             (("aklt", AKLT_SIZES), ("mg", MG_SIZES), ("lr_heisenberg", (LR_SIZE,)))
             for n in sizes]
    results, hamiltonians = _lattice_checks(specs, rng)
    results += _operator_checks(specs, hamiltonians, lab_for)
    results += _formula_checks(lab_for)
    results += _error_checks(lab_for, rng)
    results += _bound_checks(lab_for)
    return results


def _lattice_checks(specs, rng) -> tuple[list[CheckResult], list[np.ndarray]]:
    out = []
    worst_margin = math.inf
    all_valid = True
    for spec in specs:
        report = validate(spec)
        all_valid &= report.passed
        worst_margin = min(worst_margin, min(report.term_psd_margins))
    out.append(CheckResult("ham-psd-terms", all_valid, worst_margin, -1e-10))

    worst = ground = 0.0
    hamiltonians = []
    for spec in specs:
        hamiltonian, parts = assemble(spec)
        hamiltonians.append(hamiltonian)
        worst = max(worst, float(np.abs(hamiltonian - sum(parts)).max()))
        if spec.model_tag in ("aklt", "mg"):
            ground = max(ground, abs(float(np.linalg.eigvalsh(hamiltonian)[0])))
    out.append(CheckResult("ham-partition-sum", worst <= 1e-12, worst, 1e-12))
    out.append(CheckResult("ham-frustration-free", ground <= 1e-10, ground, 1e-10))

    base = build_aklt(4)
    worst_drop = math.inf
    for _ in range(5):
        raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        psd = raw @ raw.conj().T / 9
        site = int(rng.integers(0, 3))
        extra = LocalTerm((site, site + 1), psd)
        grown = HamiltonianSpec(base.lattice, base.terms + (extra,),
                                base.partition + (base.gamma_count + 1,),
                                locality_k=2, model_tag="aklt_plus")
        worst_drop = min(worst_drop, extensiveness(grown) - extensiveness(base))
    out.append(CheckResult("ham-extensiveness-monotone", worst_drop >= -1e-12,
                           worst_drop, 0.0))

    growth = long_range_extensiveness(256, 6.0) - long_range_extensiveness(128, 6.0)
    out.append(CheckResult("ham-longrange-bounded", growth <= 1e-6, growth, 1e-6))
    inc_small = long_range_extensiveness(32, 2.0) - long_range_extensiveness(16, 2.0)
    inc_large = long_range_extensiveness(64, 2.0) - long_range_extensiveness(32, 2.0)
    out.append(CheckResult("ham-longrange-decay", inc_large <= inc_small,
                           inc_large - inc_small, 0.0))
    return out, hamiltonians


def _operator_checks(specs, hamiltonians, lab_for) -> list[CheckResult]:
    out = []
    aklt4 = lab_for("aklt", 4)

    worst = 0.0
    for t in (0.1, 1.0):
        for sector in aklt4.sectors:
            for sd in (sector.spectrum, *sector.part_spectra):
                u = evolve(sd, t)
                worst = max(worst, float(np.abs(u.conj().T @ u - np.eye(len(u))).max()))
    out.append(CheckResult("op-evolve-unitary", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for delta in (0.5, 1.0):
        for sector in aklt4.sectors:
            proj = low_energy_projector(sector.spectrum, delta)
            worst = max(worst, float(np.abs(proj @ proj - proj).max()))
            worst = max(worst, float(np.abs(proj - proj.conj().T).max()))
    out.append(CheckResult("op-projector-idempotent", worst <= 1e-10, worst, 1e-10))

    comm = 0.0
    for sector in aklt4.sectors:
        proj = low_energy_projector(sector.spectrum, 1.0)
        u = evolve(sector.spectrum, 0.7)
        comm = max(comm, float(spectral_norm(u @ proj - proj @ u)))
    out.append(CheckResult("op-projector-commutes", comm <= 1e-9, comm, 1e-9))

    worst = -math.inf
    for spec in specs:
        lab = lab_for(spec.model_tag, spec.lattice.num_sites)
        cap = spec.lattice.num_sites * extensiveness(spec)
        worst = max(worst, lab.max_energy - cap)
    out.append(CheckResult("op-norm-cap", worst <= 1e-9, worst, 1e-9))

    dev = 0.0
    resid = 0.0
    for spec, hamiltonian in zip(specs, hamiltonians):
        lab = lab_for(spec.model_tag, spec.lattice.num_sites)
        # every battery H is PSD, so its largest |eigenvalue| is max_energy
        eig_norm = lab.max_energy
        # what is left of H once every sector's rebuilt block is taken away,
        # so entries between sectors count too
        rest = hamiltonian.copy()
        dev = max(dev, abs(spectral_norm(rest) - eig_norm))
        for sector in lab.sectors:
            w, v = sector.spectrum
            u = sector.lift(v)
            rest -= (u * w) @ u.conj().T
        resid = max(resid, float(np.abs(rest).max()) / (1.0 + eig_norm))
    out.append(CheckResult("op-spectral-norm-eig", dev <= 1e-10, dev, 1e-10))
    out.append(CheckResult("op-spectral-reconstruct", resid <= 1e-9, resid, 1e-9))
    return out


def _formula_checks(lab_for) -> list[CheckResult]:
    out = []

    worst_sum = 0.0
    worst_mag = 0.0
    for p in (1, 2, 4, 6):
        for gamma in (1, 2, 3):
            plan = suzuki_plan(p, gamma)
            sums = dict.fromkeys(range(1, gamma + 1), 0.0)
            for g, a in plan.stages:
                sums[g] += a
                worst_mag = max(worst_mag, abs(a))
            worst_sum = max(worst_sum, max(abs(s - 1.0) for s in sums.values()))
    out.append(CheckResult("pf-coefficient-sums", worst_sum <= 1e-12, worst_sum, 1e-12))
    out.append(CheckResult("pf-coefficient-magnitudes", worst_mag <= 1.0, worst_mag, 1.0))

    aklt3 = lab_for("aklt", 3)
    worst = 0.0
    for p in (1, 2, 4):
        plan = suzuki_plan(p, aklt3.spec.gamma_count)
        for sector in aklt3.sectors:
            eye = np.eye(sector.size)
            u = apply_plan(plan, sector.part_spectra, 0.3, eye)
            worst = max(worst, float(np.abs(u.conj().T @ u - eye).max()))
    out.append(CheckResult("pf-unitary", worst <= 1e-9, worst, 1e-9))

    grid = list(np.geomspace(1e-3, 1e-2, 5))
    worst = 0.0
    for model, n in (("aklt", 4), ("mg", 4), ("lr_heisenberg", LR_SIZE)):
        lab = lab_for(model, n)
        for p in (1, 2):
            fit = order_check(suzuki_plan(p, lab.spec.gamma_count), lab, grid)
            worst = max(worst, abs(fit.slope - (p + 1)))
    out.append(CheckResult("pf-order-slope", worst <= 0.2, worst, 0.2))

    same = plan_table(suzuki_plan(4, 3)) == plan_table(suzuki_plan(4, 3))
    out.append(CheckResult("pf-plan-deterministic", same, None, None))

    reference = suzuki_plan(2, 2)
    tampered_stages = list(reference.stages)
    gamma, alpha = tampered_stages[0]
    tampered_stages[0] = (gamma, -alpha)
    tampered = FormulaPlan(2, 2, tuple(tampered_stages))
    fit = order_check(tampered, lab_for("aklt", 4), grid)
    detected = fit.exact is False and abs(fit.slope - 3.0) > 0.2
    out.append(CheckResult("pf-mutation-detected", detected, fit.slope, 3.0))
    return out


def _error_checks(lab_for, rng) -> list[CheckResult]:
    out = []
    aklt4 = lab_for("aklt", 4)
    plan1 = suzuki_plan(1, aklt4.spec.gamma_count)
    plan2 = suzuki_plan(2, aklt4.spec.gamma_count)

    deltas = [0.25, 0.5, 1.0, 2.0, aklt4.max_energy, math.inf]
    errors = [aklt4.projected_error(plan1, 0.1, d) for d in deltas]
    worst_inc = min(b - a for a, b in zip(errors, errors[1:]))
    out.append(CheckResult("err-delta-monotone", worst_inc >= -1e-12, worst_inc, 0.0))

    full = aklt4.full_error(plan1, 0.1)
    worst = max(e - full for e in errors)
    out.append(CheckResult("err-projected-le-full", worst <= 1e-12, worst, 1e-12))

    spec = aklt4.spec
    g = extensiveness(spec)
    k = spec.locality_k
    worst = -math.inf
    for term in spec.terms:
        op = embed(term, spec.lattice)
        for delta in (0.5, 1.0):
            for step in range(5):
                delta_prime = delta + 3 * g * len(term.support) + step * 2.0
                measured = aklt4.leakage_norm(op, delta, delta_prime)
                rhs = excitation_tail_bound(term.norm, len(term.support), k, g,
                                            delta, delta_prime)
                worst = max(worst, measured - rhs)
    out.append(CheckResult("err-leakage-bound", worst <= 1e-12, worst, 0.0))

    worst_ratio = 0.0
    for model, n in (("aklt", 3), ("aklt", 4), ("aklt", 5), ("mg", 4), ("mg", 5),
                     ("lr_heisenberg", LR_SIZE)):
        lab = lab_for(model, n)
        spec = lab.spec
        g = extensiveness(spec)
        # one walk per depth: the unprojected sum, then one per cutoff
        bases = [None] + [lab.low_column_basis(delta) for delta in (0.5, 1.0)]
        for depth in (1, 2):
            unrestricted, *projected = nested_commutator_sum(spec, depth, bases)
            cap = unrestricted_commutator_bound(depth, spec.locality_k, g,
                                               spec.lattice.num_sites)
            worst_ratio = max(worst_ratio, unrestricted / cap)
            for delta, value in zip((0.5, 1.0), projected):
                bound = projected_commutator_bound(depth, spec.locality_k, g, delta)
                worst_ratio = max(worst_ratio, value / bound)
    out.append(CheckResult("err-commutator-bounds", worst_ratio < 1.0, worst_ratio, 1.0))

    worst_ratio = 0.0
    for depth in (1, 2):
        for _ in range(3):
            psi = aklt4.random_subspace_state(1.0, rng)
            value, bound = low_energy_expectation_sum(aklt4, depth, psi, 1.0)
            worst_ratio = max(worst_ratio, value / bound)
    out.append(CheckResult("err-expectation-bound", worst_ratio < 1.0, worst_ratio, 1.0))

    worst = -math.inf
    for plan in (plan1, plan2):
        for steps in (1, 2, 4, 8):
            chained = aklt4.stepped_error(plan, 0.5, steps)
            per_step = steps * aklt4.full_error(plan, 0.5 / steps)
            worst = max(worst, chained - per_step)
    out.append(CheckResult("err-step-accumulation", worst <= 1e-9, worst, 1e-9))

    zero_t = aklt4.full_error(plan1, 0.0)
    commuting = ErrorLab(_commuting_chain(4))
    comm_err = commuting.full_error(suzuki_plan(1, commuting.spec.gamma_count), 0.7)
    worst = max(zero_t, comm_err)
    out.append(CheckResult("err-degenerate-zero", worst <= 1e-12, worst, 1e-12))
    return out


def _bound_checks(lab_for) -> list[CheckResult]:
    out = []

    worst_margin = math.inf
    for model, n in (("aklt", 4), ("mg", 5)):
        lab = lab_for(model, n)
        spec = lab.spec
        g = extensiveness(spec)
        k = spec.locality_k
        gamma = spec.gamma_count
        for p in (1, 2):
            plan = suzuki_plan(p, gamma)
            for delta in (0.5, 1.0):
                for family in (const_gamma_error_bound, generic_error_bound):
                    probe = BoundInputs(spec.lattice.num_sites, k, g, gamma, p,
                                        delta, 0.0, 0.1, 0.01)
                    if family is const_gamma_error_bound:
                        t_max = 1.0 / (math.e * 2 * probe.cycles * gamma * k * g)
                    else:
                        p0 = generic_error_bound(probe).p0
                        t_max = 0.5 / (2 * probe.cycles * p0 * k * g)
                    t = 0.9 * t_max
                    inputs = BoundInputs(spec.lattice.num_sites, k, g, gamma, p,
                                         delta, t, 0.1, 0.01)
                    report = family(inputs)
                    measured = lab.projected_error(plan, t, delta)
                    if not report.time_condition_ok:
                        continue
                    worst_margin = min(worst_margin, report.bound_value - measured)
    out.append(CheckResult("bound-soundness", worst_margin >= 0.0, worst_margin, 0.0))

    diff = abs(projected_commutator_bound(2, 2, 2.0, 4 * 2.0)
               - unrestricted_commutator_bound(2, 2, 2.0, 4))
    out.append(CheckResult("bound-delta-cap-consistency", diff == 0.0, diff, 0.0))

    worst = -math.inf
    base = dict(num_sites=16, locality=2, extensiveness=2.0, gamma_count=2,
                order_p=1, delta=1.0, time=0.1, eps_total=0.001, eps_small=0.01)
    for family in (const_gamma_error_bound, generic_error_bound):
        for deltas in ([0.5, 1.0, 2.0, 4.0],):
            values = [family(BoundInputs(**{**base, "delta": d})).bound_value
                      for d in deltas]
            worst = max(worst, max(a - b for a, b in zip(values, values[1:])))
        times = [0.0, 0.01, 0.05, 0.1]
        values = [family(BoundInputs(**{**base, "time": t})).bound_value for t in times]
        worst = max(worst, max(a - b for a, b in zip(values, values[1:])))
        eps_grid = [0.1, 0.01, 0.001]
        primes = [family(BoundInputs(**{**base, "eps_small": e})).delta_prime
                  for e in eps_grid]
        worst = max(worst, max(a - b for a, b in zip(primes, primes[1:])))
    out.append(CheckResult("bound-monotone", worst <= 1e-12, worst, 0.0))

    degenerate = BoundInputs(**{**base, "eps_total": 2.5})
    counts_ok = (trotter_count_formula(degenerate) == 1
                 and trotter_count_formula(degenerate, "general") == 1)
    zero_time = BoundInputs(**{**base, "time": 0.0})
    eps_exact = (const_gamma_error_bound(zero_time).bound_value == zero_time.eps_small
                 and generic_error_bound(zero_time).bound_value == zero_time.eps_small)
    out.append(CheckResult("bound-degenerate-cases", counts_ok and eps_exact, None, None))

    lab = lab_for("aklt", 4)
    plan = suzuki_plan(2, lab.spec.gamma_count)
    steps = trotter_number_certified(lab, plan, 1.0, 1.0, 0.01)
    direct = lab.stepped_error(plan, 1.0, steps, 1.0)
    out.append(CheckResult("bound-certified-direct", direct <= 0.01, direct, 0.01))
    return out


def results_to_csv(results: list[CheckResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["check", "status", "observed", "threshold"])
    for res in results:
        writer.writerow([
            res.check_id,
            "pass" if res.passed else "fail",
            "" if res.observed is None else repr(float(res.observed)),
            "" if res.threshold is None else repr(float(res.threshold)),
        ])
    return buffer.getvalue()
