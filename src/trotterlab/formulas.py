"""Suzuki product-formula plans and their application.

A plan is a flat list of stages (group label, coefficient).  Stages are
applied rightmost-first: the product

    T_p(t) = E_V ... E_2 E_1,    E_v = exp(-i H_{gamma_v} alpha_v t)

has stage v = 1 acting first on a state, so the first-order plan
[(1, 1), ..., (Gamma, 1)] realizes exp(-iH_Gamma t) ... exp(-iH_1 t).
The second-order plan is the palindrome of half-coefficients, and even
orders 4 and 6 come from the fractal recursion

    S_{2k}(t) = S_{2k-2}(u_k t)^2 S_{2k-2}((1 - 4 u_k) t) S_{2k-2}(u_k t)^2

with u_k = 1 / (4 - 4**(1/(2k-1))).  Each group's coefficients sum to one,
every coefficient has magnitude at most one, and the stage count is
cycles(p) * Gamma with cycles(1) = 1 and cycles(p) = 2 * 5**(p/2 - 1) for
even p.  A plan of order p approximates exp(-iHt) to O(t**(p+1)).

``apply_plan`` never builds a stage unitary: a stage is a diagonal phase in
its group's eigenbasis, and the block crosses between eigenbases through
V_b^dag V_a, real whenever the group Hamiltonians are.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .operators import apply_matrix

if TYPE_CHECKING:
    from .errors import ErrorLab

MAX_ORDER = 6
COEFF_SUM_TOL = 1e-12
EXACT_ERROR_FLOOR = 1e-13


def cycle_count(order_p: int) -> int:
    """Number of passes over the groups: 1, 2, 10, 50 for p = 1, 2, 4, 6."""
    if order_p == 1:
        return 1
    if order_p < 1 or order_p > MAX_ORDER or order_p % 2:
        raise ValueError(f"supported orders are 1 and even 2..{MAX_ORDER}, got {order_p}")
    return 2 * 5 ** (order_p // 2 - 1)


@dataclass(frozen=True)
class FormulaPlan:
    """Stage list in applied-first order; see the module docstring.

    A stage label outside 1..Gamma is refused here, so no plan carries one.
    """

    order_p: int
    gamma_count: int
    stages: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for gamma, _ in self.stages:
            if not 1 <= gamma <= self.gamma_count:
                raise ValueError(f"stage label {gamma} outside 1..{self.gamma_count}")


def suzuki_plan(order_p: int, gamma_count: int) -> FormulaPlan:
    """Build the order-p Suzuki plan for ``gamma_count`` groups."""
    if gamma_count < 1:
        raise ValueError(f"need at least one group, got {gamma_count}")
    cycle_count(order_p)  # refuses an unsupported order before any stage is built
    if order_p == 1:
        stages = [(g, 1.0) for g in range(1, gamma_count + 1)]
    else:
        forward = [(g, 0.5) for g in range(1, gamma_count + 1)]
        stages = forward + forward[::-1]
        for target in range(4, order_p + 1, 2):
            k = target // 2
            u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
            outer = [(g, a * u) for g, a in stages]
            middle = [(g, a * (1.0 - 4.0 * u)) for g, a in stages]
            stages = outer + outer + middle + outer + outer
    plan = FormulaPlan(order_p, gamma_count, tuple(stages))
    validate_plan(plan)
    return plan


def validate_plan(plan: FormulaPlan) -> None:
    """Raise unless stage count, labels, coefficient sums and sizes all check out."""
    expected = cycle_count(plan.order_p) * plan.gamma_count
    if len(plan.stages) != expected:
        raise ValueError(f"expected {expected} stages, plan has {len(plan.stages)}")
    sums = dict.fromkeys(range(1, plan.gamma_count + 1), 0.0)
    for gamma, alpha in plan.stages:
        if abs(alpha) > 1.0 + 1e-12:
            raise ValueError(f"stage coefficient {alpha} exceeds unit magnitude")
        sums[gamma] += alpha
    for gamma, total in sums.items():
        if abs(total - 1.0) > COEFF_SUM_TOL:
            raise ValueError(f"group {gamma} coefficients sum to {total}, not 1")


def apply_plan(plan: FormulaPlan, parts_spectra, t: float, block: np.ndarray,
               transitions: dict | None = None) -> np.ndarray:
    """T_p(t) @ block for a dim x m block, each stage a phase in its group's eigenbasis.

    The block moves into the eigenbasis V_gamma of the first stage's group;
    a stage multiplies by exp(-i alpha t lambda_gamma), a change of group by
    the transition V_b^dag V_a, and the last group's V maps the block back.
    Consecutive stages of one group merge (the coefficient sums are not
    checked, see ``validate_plan``).  ``transitions`` caches V_a^dag V_b for
    a < b (the other direction is its adjoint); pass the same dict to reuse
    them across calls.
    """
    if len(parts_spectra) != plan.gamma_count:
        raise ValueError(
            f"plan wants {plan.gamma_count} group spectra, got {len(parts_spectra)}")
    dim = parts_spectra[0].eigenvalues.size
    if any(sd.eigenvalues.size != dim for sd in parts_spectra):
        raise ValueError("group spectra have inconsistent dimensions")
    if np.ndim(block) != 2 or block.shape[0] != dim:
        raise ValueError(f"block must have shape ({dim}, m), got {np.shape(block)}")
    if transitions is None:
        transitions = {}
    runs = [(gamma, sum(alpha for _, alpha in stages))
            for gamma, stages in groupby(plan.stages, key=itemgetter(0))]
    current = runs[0][0]
    block = apply_matrix(parts_spectra[current - 1].eigenvectors.conj().T, block)
    for gamma, alpha in runs:
        if gamma != current:
            low, high = sorted((current, gamma))
            if (low, high) not in transitions:
                transitions[low, high] = (parts_spectra[low - 1].eigenvectors.conj().T
                                          @ parts_spectra[high - 1].eigenvectors)
            step = transitions[low, high]
            block = apply_matrix(step if gamma < current else step.conj().T, block)
            current = gamma
        block = block * np.exp(-1j * alpha * t * parts_spectra[gamma - 1].eigenvalues)[:, None]
    return apply_matrix(parts_spectra[current - 1].eigenvectors, block)


@dataclass(frozen=True)
class OrderFit:
    """Log-log slope of error against time; ``exact`` when below the noise floor."""

    slope: float | None
    residual: float | None
    exact: bool
    errors: tuple[float, ...]


def order_check(plan: FormulaPlan, lab: ErrorLab,
                t_grid: list[float] | tuple[float, ...]) -> OrderFit:
    """Fit the error-vs-time slope; a plan of order p should give p + 1.

    Errors below ``EXACT_ERROR_FLOOR`` at every grid point are reported as
    exact (commuting partitions) instead of fitted.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 4:
        raise ValueError("need at least 4 grid times")
    if any(t <= 0 for t in t_grid) or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("grid times must be positive and strictly increasing")
    errors = [lab.full_error(plan, t) for t in t_grid]
    if max(errors) <= EXACT_ERROR_FLOOR:
        return OrderFit(None, None, True, tuple(errors))
    log_t = np.log(t_grid)
    log_e = np.log(errors)
    slope, intercept = np.polyfit(log_t, log_e, 1)
    fitted = slope * log_t + intercept
    residual = float(np.sqrt(np.mean((log_e - fitted) ** 2)))
    return OrderFit(float(slope), residual, False, tuple(errors))


def plan_table(plan: FormulaPlan) -> str:
    """Stage table as CSV (columns v, gamma, alpha) for auditing."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["v", "gamma", "alpha"])
    for v, (gamma, alpha) in enumerate(plan.stages, start=1):
        writer.writerow([v, gamma, repr(alpha)])
    return buffer.getvalue()
