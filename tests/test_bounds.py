"""Closed-form bound evaluators, Trotter-number formulas, certified search.

Golden values below were frozen from high-precision evaluation of the
printed formulas (documented next to each assertion); measured quantities
(certified step counts, fitted concentration constants) are locked against
a direct computation in the same test.
"""
import dataclasses
import math

import numpy as np
import pytest

import oracle_dense
import trotterlab as tl
from trotterlab import errors


def make_inputs(**overrides) -> tl.BoundInputs:
    """A mid-sized baseline; individual tests override what they probe."""
    base = dict(num_sites=16, locality=2, extensiveness=2.0, gamma_count=2,
                order_p=1, delta=1.0, time=0.01, eps_total=0.01, eps_small=0.01)
    base.update(overrides)
    return tl.BoundInputs(**base)


# ---------------------------------------------------------------- reports

def test_const_gamma_delta_prime_frozen():
    # delta' = 1 + 4*2*2*ln(2**0 * 16 / (2*0.01)) = 1 + 16 ln 800
    report = tl.const_gamma_error_bound(make_inputs())
    assert report.delta_prime == pytest.approx(107.95378764268683, rel=1e-14)
    assert report.formula_id == "cor_s4"
    assert report.p0 is None


def test_const_gamma_delta_prime_floor():
    # 2**(1-6) * 4 / (2 * 0.0625) = 1, so the log vanishes and delta' = delta
    report = tl.const_gamma_error_bound(make_inputs(
        num_sites=4, order_p=6, eps_small=0.0625, delta=1.0))
    assert report.delta_prime == 1.0
    # log argument below 1 clamps to zero instead of lowering delta'
    clamped = tl.const_gamma_error_bound(make_inputs(
        num_sites=4, order_p=6, eps_small=0.9, delta=1.0))
    assert clamped.delta_prime == 1.0


def test_generic_p0_and_delta_prime_frozen():
    report = tl.generic_error_bound(make_inputs())
    # p0 = ceil(ln(2*16/(2*0.01)) + 1) = ceil(8.378) = 9
    assert report.p0 == 9
    # delta' = 1 + 16*(2 + ln(16/0.01))
    assert report.delta_prime == pytest.approx(151.04414253164595, rel=1e-14)
    assert report.formula_id == "thm_s3"


def test_bound_equals_slack_at_zero_time():
    for evaluate in (tl.const_gamma_error_bound, tl.generic_error_bound):
        report = evaluate(make_inputs(time=0.0))
        assert report.bound_value == 0.01


def test_time_condition_flags():
    # const family limit 1/(e * 2*1*2*2*2) = 0.02299; generic 0.5/72 = 0.00694
    assert tl.const_gamma_error_bound(make_inputs(time=0.02)).time_condition_ok
    assert not tl.const_gamma_error_bound(make_inputs(time=0.03)).time_condition_ok
    assert tl.generic_error_bound(make_inputs(time=0.006)).time_condition_ok
    assert not tl.generic_error_bound(make_inputs(time=0.008)).time_condition_ok
    # a violated condition still reports an evaluated bound
    late = tl.const_gamma_error_bound(make_inputs(time=0.5))
    assert late.bound_value > 0
    # (scale t)**p overflows a float: the bound is vacuous, not an error
    for evaluate in (tl.const_gamma_error_bound, tl.generic_error_bound):
        huge = evaluate(make_inputs(order_p=6, time=1e100))
        assert huge.bound_value == math.inf and not huge.time_condition_ok


def test_bound_monotone_in_delta_and_time():
    for evaluate in (tl.const_gamma_error_bound, tl.generic_error_bound):
        by_delta = [evaluate(make_inputs(delta=d)).bound_value
                    for d in (0.1, 0.5, 1.0, 2.0, 8.0)]
        assert all(a <= b for a, b in zip(by_delta, by_delta[1:]))
        by_time = [evaluate(make_inputs(time=t)).bound_value
                   for t in (0.0, 0.002, 0.005, 0.01, 0.02)]
        assert all(a <= b for a, b in zip(by_time, by_time[1:]))


def test_delta_prime_monotone_in_inverse_slack():
    # the bound value itself is not monotone in 1/eps near t=0 (it equals
    # eps there), but the modified cap always is
    for evaluate in (tl.const_gamma_error_bound, tl.generic_error_bound):
        caps = [evaluate(make_inputs(eps_small=e)).delta_prime
                for e in (0.5, 0.1, 0.01, 0.001)]
        assert all(a < b for a, b in zip(caps, caps[1:]))


def test_bounds_sound_on_measured_grid(aklt4):
    """Analytic bounds dominate the measured projected error when the time
    condition holds."""
    g = tl.extensiveness(aklt4.spec)
    for p in (1, 2):
        plan = tl.suzuki_plan(p, 2)
        for delta in (0.5, 1.0):
            for evaluate in (tl.const_gamma_error_bound, tl.generic_error_bound):
                probe = tl.BoundInputs(4, 2, g, 2, p, delta, 1.0, 0.01, 0.01)
                if evaluate is tl.const_gamma_error_bound:
                    t_max = 1.0 / (math.e * 2 * probe.cycles * 2 * 2 * g)
                else:
                    p0 = evaluate(probe).p0
                    t_max = 0.5 / (2 * probe.cycles * p0 * 2 * g)
                for frac in (0.5, 0.9):
                    t = frac * t_max
                    report = evaluate(tl.BoundInputs(4, 2, g, 2, p, delta, t,
                                                     0.01, 0.01))
                    assert report.time_condition_ok
                    measured = aklt4.projected_error(plan, t, delta)
                    assert measured <= report.bound_value


# ----------------------------------------------------- commutator caps

def test_commutator_cap_depth_zero_is_delta():
    assert tl.projected_commutator_bound(0, 2, 2.0, 0.7) == 0.7


def test_commutator_cap_frozen_value():
    # 2! * (2*2*2)**2 * 1 = 128
    assert tl.projected_commutator_bound(2, 2, 2.0, 1.0) == 128.0


def test_commutator_cap_negative_depth_rejected():
    with pytest.raises(ValueError, match="depth"):
        tl.projected_commutator_bound(-1, 2, 2.0, 1.0)


def test_unrestricted_cap_is_projected_at_norm_cap():
    for q in range(4):
        assert tl.unrestricted_commutator_bound(q, 2, 2.0, 5) == \
            tl.projected_commutator_bound(q, 2, 2.0, 10.0)


# ------------------------------------------------------- step counts

def test_count_formula_frozen_values():
    # base = 2*((1 + 2 ln 40)/0.1) = 167.56; general multiplies by ln 40
    inputs = tl.BoundInputs(4, 2, 2.0, 2, 1, 1.0, 1.0, 0.1, 0.01)
    assert tl.trotter_count_formula(inputs, "const_gamma") == 168
    assert tl.trotter_count_formula(inputs, "general") == 619


def test_count_formula_degenerate_eps():
    for eps in (2.0, 4.0):
        inputs = make_inputs(eps_total=eps)
        assert tl.trotter_count_formula(inputs, "const_gamma") == 1
        assert tl.trotter_count_formula(inputs, "general") == 1


def test_count_formula_unknown_regime():
    with pytest.raises(ValueError, match="regime"):
        tl.trotter_count_formula(make_inputs(), "tight")


def test_count_formula_monotone():
    counts_t = [tl.trotter_count_formula(make_inputs(time=t))
                for t in (0.1, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(counts_t, counts_t[1:]))
    counts_d = [tl.trotter_count_formula(make_inputs(time=1.0, delta=d))
                for d in (0.0, 1.0, 10.0, 30.0)]
    assert all(a <= b for a, b in zip(counts_d, counts_d[1:]))
    counts_e = [tl.trotter_count_formula(make_inputs(time=1.0, eps_total=e))
                for e in (0.5, 0.1, 0.01)]
    assert all(a <= b for a, b in zip(counts_e, counts_e[1:]))


def test_count_formula_norm_cap_matches_arbitrary_state_scaling():
    """At delta = N*g the count reduces to gt(Ngt/eps)^(1/p) up to the
    small additive log inside the root."""
    for p, slack in ((1, 1.02), (2, 1.01)):
        inputs = tl.BoundInputs(1000, 2, 1.0, 2, p, 1000.0, 1.0, 0.01, 0.01)
        count = tl.trotter_count_formula(inputs, "const_gamma")
        naive = 1.0 * (1000.0 * 1.0 / 0.01) ** (1.0 / p)
        assert naive <= count <= slack * naive


def test_count_formula_vs_certified_search(aklt4):
    """The closed-form count with leading constant one overshoots the
    certified count; the ratio is recorded, not asserted, because the
    formula's true constant is not pinned down."""
    g = tl.extensiveness(aklt4.spec)
    inputs = tl.BoundInputs(4, 2, g, 2, 1, 1.0, 1.0, 0.1, 0.01)
    formula = tl.trotter_count_formula(inputs, "const_gamma")
    plan = tl.suzuki_plan(1, 2)
    certified = tl.trotter_number_certified(aklt4, plan, 1.0, 1.0, 0.1)
    assert 1 <= certified <= formula
    print(f"count formula/certified = {formula}/{certified} "
          f"= {formula / certified:.1f}")


# --------------------------------------------------- certified search

def test_certified_commuting_single_step():
    z = np.diag([1.0, -1.0])
    zz = np.kron(z, z)
    lattice = tl.LatticeSpec(num_sites=3, local_dim=2)
    terms = [tl.LocalTerm((0, 1), zz + np.eye(4)), tl.LocalTerm((1, 2), zz + np.eye(4))]
    spec = tl.HamiltonianSpec(lattice, terms, partition=(1, 2), locality_k=2)
    plan = tl.suzuki_plan(1, 2)
    assert tl.trotter_number_certified(tl.ErrorLab(spec), plan, 1.7, 2.0, 0.01) == 1


def test_certified_degenerate_eps(aklt4):
    plan = tl.suzuki_plan(1, 2)
    assert tl.trotter_number_certified(aklt4, plan, 1.0, 1.0, 2.0) == 1


def test_certified_rejects_nonpositive_eps(aklt4):
    plan = tl.suzuki_plan(1, 2)
    with pytest.raises(ValueError, match="eps_total"):
        tl.trotter_number_certified(aklt4, plan, 1.0, 1.0, 0.0)


def test_certified_minimal_and_directly_verified(aklt4):
    plan = tl.suzuki_plan(2, 2)
    r = tl.trotter_number_certified(aklt4, plan, 1.0, 1.0, 1e-3)
    assert r == 8  # search margin ~16% below budget, step 7 ~10% above
    assert r * aklt4.projected_error(plan, 1.0 / r, 1.0) <= 1e-3
    assert (r - 1) * aklt4.projected_error(plan, 1.0 / (r - 1), 1.0) > 1e-3
    direct = aklt4.stepped_error(plan, 1.0, r, 1.0)
    assert direct <= 1e-3


def test_certified_aborts_past_step_cap(mg4, monkeypatch):
    plan = tl.suzuki_plan(1, 2)
    monkeypatch.setattr(errors, "CERTIFIED_MAX_STEPS", 4)
    with pytest.raises(RuntimeError, match="no passing step count up to 4 "):
        tl.trotter_number_certified(mg4, plan, 1.0, 2.0, 1e-9)


# ---------------------------------------------- weakly correlated states

def test_weak_correlation_width_frozen():
    inputs = tl.BoundInputs(100, 2, 1.0, 2, 1, 0.0, 1.0, 0.01, 0.01,
                            energy_expectation=2.0)
    x, count = tl.weakly_correlated_number(inputs)
    # x = 1 * sqrt(2*100 * ln(4/0.01)) = sqrt(200 ln 400) = 34.616
    assert x == pytest.approx(math.sqrt(200.0 * math.log(400.0)), rel=1e-12)
    assert count >= 1


def test_weak_correlation_width_degenerate():
    inputs = make_inputs(eps_total=4.0, energy_expectation=2.0)
    x, count = tl.weakly_correlated_number(inputs)
    assert x == 0.0
    assert count == 1


def test_weak_correlation_count_consistency():
    inputs = tl.BoundInputs(100, 2, 1.0, 2, 1, 0.0, 1.0, 0.01, 0.01,
                            energy_expectation=2.0)
    x, count = tl.weakly_correlated_number(inputs)
    shifted = dataclasses.replace(inputs, delta=2.0 + x, energy_expectation=None)
    assert count == tl.trotter_count_formula(shifted, "const_gamma")


def test_weak_correlation_requires_energy():
    with pytest.raises(ValueError, match="energy"):
        tl.weakly_correlated_number(make_inputs())


def test_product_state_tail_concentration(lab_cache):
    """Exponential suppression of high-energy weight for a product state.

    The fitted constant is the largest c with tail(x) <= exp(-c x^2/(N g^2))
    across the probe grid; it is model-dependent, so it is only required to
    exist (finite, positive) and is printed for the record.
    """
    lab = lab_cache("aklt", 6)
    n, g = 6, tl.extensiveness(lab.spec)
    vals, vectors = oracle_dense.dense_spectra(lab.spec)[0]
    # alternating m=+1, m=-1 product state; each bond projector picks up
    # the squared Clebsch-Gordan weight 1/6, giving <H> = 5/6 exactly
    digits = [0, 2] * 3
    index = sum(d * 3 ** (n - 1 - i) for i, d in enumerate(digits))
    psi = np.zeros(3 ** n, dtype=complex)
    psi[index] = 1.0
    energy = float(np.real(psi.conj() @ tl.assemble(lab.spec)[0] @ psi))
    assert energy == pytest.approx(5.0 / 6.0, rel=1e-12)

    weights = np.abs(vectors.conj().T @ psi) ** 2
    fits = []
    for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
        x = frac * (vals.max() - energy)
        tail = float(weights[vals > energy + x].sum())
        if tail > 0.0:
            fits.append(-math.log(tail) * n * g * g / (x * x))
    assert fits, "probe grid fell entirely past the spectrum edge"
    c_fit = min(fits)
    assert math.isfinite(c_fit) and c_fit > 0
    for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
        x = frac * (vals.max() - energy)
        tail = float(weights[vals > energy + x].sum())
        assert tail <= math.exp(-c_fit * x * x / (n * g * g)) + 1e-12
    print(f"fitted concentration constant c = {c_fit:.3f}")


# ------------------------------------------------------- input checks

@pytest.mark.parametrize("overrides", [
    {"num_sites": 1},
    {"locality": 0},
    {"gamma_count": 0},
    {"extensiveness": 0.0},
    {"extensiveness": -1.0},
    {"order_p": 0},
    {"delta": -0.5},
    {"time": -1.0},
    {"delta": 40.0},            # exceeds N*g = 32
    {"eps_total": 0.0},
    {"eps_small": 0.0},
    {"eps_small": 1.0},
    {"eps_small": 1e-320},      # 2 N / eps_small overflows
    {"time": math.inf},
    {"concentration_c": 0.0},
])
def test_inputs_rejected(overrides):
    with pytest.raises(ValueError):
        make_inputs(**overrides)


def test_cycles_default_follows_order():
    assert make_inputs(order_p=1).cycles == 1
    assert make_inputs(order_p=2).cycles == 2
    assert make_inputs(order_p=4).cycles == 10
    assert make_inputs(order_p=6).cycles == 50
