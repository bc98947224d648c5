"""Analytic error bounds, Trotter-number formulas and a certified search.

All logarithms are natural.  Shared notation: N sites, locality k (largest
support), extensiveness g (largest per-site sum of term norms), Gamma
commuting groups, formula order p with cycle count c_p, initial energy cap
delta, evolution time t, overall error budget eps_total and per-bound slack
eps_small.

Two families bound the projected error ||(exp(-iHt) - T_p(t)) P_delta||:

* constant-group family (id ``cor_s4``), best when Gamma is O(1):
      delta' = delta + 4 k g ln(2**(1-p) N / (k eps)),
      bound  = 2 c_p Gamma / ((1 - 1/e)(p + 1))
               * (2 c_p Gamma k g t)**p * delta' t + eps,
      valid for |t| <= 1 / (2 e c_p Gamma k g);
* generic family (id ``thm_s3``), log-depth expansion cut at
      p0 = ceil(ln(2 N / (k eps)) + 1):
      delta' = delta + 4 k g (2 + ln(N / eps)),
      bound  = 4 c_p / (p + 1) * (2 c_p p0 k g t)**p * delta' t + eps,
      valid for |t| <= 1 / (4 c_p p0 k g).

The Trotter-number formulas (ids ``prop_s5_const`` / ``prop_s5_general``)
give the step count sufficient for accuracy eps on the energy-delta
subspace, up to an undetermined leading constant which is fixed to 1 here;
``trotter_number_certified`` instead searches for the smallest step count
whose measured per-step error passes, and verifies the result directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ErrorLab
from .formulas import FormulaPlan, cycle_count

FORMULA_CONST_GAMMA = "cor_s4"
FORMULA_GENERIC = "thm_s3"
FORMULA_COMMUTATOR = "thm_s1"
FORMULA_COUNT_CONST = "prop_s5_const"
FORMULA_COUNT_GENERAL = "prop_s5_general"
FORMULA_WEAKLY_CORRELATED = "weakly_corr"

CERTIFIED_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs shared by the bound evaluators.

    ``eps_total`` may exceed 1 only for degenerate checks (any unitary pair
    differs by at most 2); ``eps_small`` must lie in (0, 1).  ``cycles`` is
    the Suzuki cycle count of ``order_p``.
    """

    num_sites: int
    locality: int
    extensiveness: float
    gamma_count: int
    order_p: int
    delta: float
    time: float
    eps_total: float
    eps_small: float
    cycles: int = field(init=False)
    concentration_c: float = 1.0
    energy_expectation: float | None = None

    def __post_init__(self) -> None:
        reals = (self.extensiveness, self.delta, self.time, self.eps_total,
                 self.eps_small, self.concentration_c, self.energy_expectation)
        if not all(math.isfinite(x) for x in reals if x is not None):
            raise ValueError("scalar inputs must be finite")
        if self.num_sites < 2 or self.locality < 1 or self.gamma_count < 1:
            raise ValueError("need N >= 2, k >= 1, Gamma >= 1")
        if self.extensiveness <= 0:
            raise ValueError("extensiveness must be positive")
        if self.order_p < 1:
            raise ValueError("formula order must be positive")
        if self.delta < 0 or self.time < 0:
            raise ValueError("delta and time must be nonnegative")
        if self.delta > self.num_sites * self.extensiveness * (1 + 1e-9):
            raise ValueError("delta exceeds the Hamiltonian norm cap N*g")
        if self.eps_total <= 0:
            raise ValueError("eps_total must be positive")
        if not 0 < self.eps_small < 1:
            raise ValueError("eps_small must lie in (0, 1)")
        if not math.isfinite(2 * self.num_sites / self.eps_small):
            raise ValueError("eps_small is too small: 2 N / eps_small is not finite")
        if self.concentration_c <= 0:
            raise ValueError("concentration constant must be positive")
        object.__setattr__(self, "cycles", cycle_count(self.order_p))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound plus the derived quantities an auditor needs."""

    delta_prime: float | None
    p0: int | None
    time_condition_ok: bool | None
    bound_value: float
    formula_id: str


def const_gamma_error_bound(inputs: BoundInputs) -> BoundReport:
    """Projected-error bound of the constant-group family; see module docstring.

    The modified cap delta' never sits below delta (the log term is clamped
    at zero for extreme parameter combinations).
    """
    k, g = inputs.locality, inputs.extensiveness
    c, gamma, p = inputs.cycles, inputs.gamma_count, inputs.order_p
    eps = inputs.eps_small
    ratio = 2.0 ** (1 - p) * inputs.num_sites / (k * eps)
    delta_prime = inputs.delta + 4.0 * k * g * max(0.0, math.log(ratio))
    scale = 2.0 * c * gamma * k * g
    time_ok = abs(inputs.time) <= 1.0 / (math.e * scale)
    lead = 2.0 * c * gamma / ((1.0 - math.exp(-1.0)) * (p + 1))
    try:
        value = lead * (scale * abs(inputs.time)) ** p * delta_prime * abs(inputs.time) + eps
    except OverflowError:
        value = math.inf  # (scale t)**p overflows: the bound is vacuous
    return BoundReport(delta_prime, None, time_ok, value, FORMULA_CONST_GAMMA)


def generic_error_bound(inputs: BoundInputs) -> BoundReport:
    """Projected-error bound of the generic family; see module docstring."""
    k, g = inputs.locality, inputs.extensiveness
    c, p = inputs.cycles, inputs.order_p
    eps = inputs.eps_small
    p0 = max(1, math.ceil(math.log(2.0 * inputs.num_sites / (k * eps)) + 1.0))
    delta_prime = inputs.delta + 4.0 * k * g * (2.0 + math.log(inputs.num_sites / eps))
    scale = 2.0 * c * p0 * k * g
    time_ok = abs(inputs.time) <= 0.5 / scale
    try:
        value = (4.0 * c / (p + 1) * (scale * abs(inputs.time)) ** p * delta_prime
                 * abs(inputs.time) + eps)
    except OverflowError:
        value = math.inf  # (scale t)**p overflows: the bound is vacuous
    return BoundReport(delta_prime, p0, time_ok, value, FORMULA_GENERIC)


def projected_commutator_bound(depth: int, locality: int, extensiveness: float,
                               delta: float) -> float:
    """Cap q! (2kg)**q * delta on projected nested-commutator sums of depth q."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return math.factorial(depth) * (2.0 * locality * extensiveness) ** depth * delta


def unrestricted_commutator_bound(depth: int, locality: int, extensiveness: float,
                                  num_sites: int) -> float:
    """Unrestricted variant: the energy cap is the norm cap N*g."""
    return projected_commutator_bound(depth, locality, extensiveness,
                                      num_sites * extensiveness)


def _count_value(extensiveness: float, time: float, delta: float, eps: float,
                 order_p: int, num_sites: int, regime: str) -> int:
    if eps >= 2:
        return 1
    gt = extensiveness * abs(time)
    log_term = math.log(num_sites / eps)
    base = gt * ((delta * abs(time) + gt * log_term) / eps) ** (1.0 / order_p)
    if regime == "general":
        base *= log_term
    return max(1, math.ceil(base))


def trotter_count_formula(inputs: BoundInputs, regime: str = "const_gamma") -> int:
    """Sufficient Trotter step count, leading constant fixed to one.

    const_gamma regime:  r = ceil(g t ((delta t + g t ln(N/eps)) / eps)**(1/p));
    general regime:      the same times an extra ln(N/eps).
    eps >= 2 is degenerate (any unitary pair differs by at most 2): r = 1.
    """
    if regime not in ("const_gamma", "general"):
        raise ValueError(f"unknown regime {regime!r}")
    return _count_value(inputs.extensiveness, inputs.time, inputs.delta,
                        inputs.eps_total, inputs.order_p, inputs.num_sites, regime)


def trotter_number_certified(lab: ErrorLab, plan: FormulaPlan, t: float,
                            delta: float, eps_total: float) -> int:
    """Smallest step count r with r * error(t/r) <= eps on the delta subspace.

    Doubling followed by bisection on the per-step criterion; the returned r
    is then verified a posteriori against the directly computed stepped
    error.  Aborts with a diagnostic if r would exceed ``CERTIFIED_MAX_STEPS``.
    """
    if eps_total <= 0:
        raise ValueError("eps_total must be positive")
    if eps_total >= 2:
        return 1

    def passes(steps: int) -> bool:
        return steps * lab.projected_error(plan, t / steps, delta) <= eps_total

    steps = 1
    while not passes(steps):
        steps *= 2
        if steps > CERTIFIED_MAX_STEPS:
            raise RuntimeError(
                f"no passing step count up to {CERTIFIED_MAX_STEPS} "
                f"(t={t}, delta={delta}, eps={eps_total})")
    if steps > 1:
        low, high = steps // 2 + 1, steps
        while low < high:
            mid = (low + high) // 2
            if passes(mid):
                high = mid
            else:
                low = mid + 1
        steps = high
    direct = lab.stepped_error(plan, t, steps, delta)
    if direct > eps_total + 1e-9:
        raise RuntimeError(
            f"a-posteriori check failed: stepped error {direct} exceeds {eps_total}")
    return steps


def weakly_correlated_number(inputs: BoundInputs) -> tuple[float, int]:
    """Concentration width x and step count for weakly correlated states.

    x = g * sqrt(2 N / c * ln(4 / eps)) caps the energy tail weight of a
    state with Gaussian concentration constant c at eps/4; the step count
    reuses the count formula with the energy cap <H> + x.  Returns (x, r).
    """
    if inputs.energy_expectation is None:
        raise ValueError("weakly correlated count needs the energy expectation")
    arg = math.log(4.0 / inputs.eps_total)
    x = inputs.extensiveness * math.sqrt(
        max(0.0, 2.0 * inputs.num_sites / inputs.concentration_c * arg))
    count = _count_value(inputs.extensiveness, inputs.time,
                         inputs.energy_expectation + x, inputs.eps_total,
                         inputs.order_p, inputs.num_sites, "const_gamma")
    return x, count
