"""Product-formula tests.

``apply_plan`` is checked against a brute-force product of
``scipy.linalg.expm`` factors, and the empirical order against two-point
error ratios e(t)/e(t/2) -> 2**(p+1).
"""
import numpy as np
import pytest
import scipy.linalg

import oracle_dense
import trotterlab as tl
from trotterlab.formulas import EXACT_ERROR_FLOOR, FormulaPlan
from trotterlab.lattice import LatticeSpec, LocalTerm

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def commuting_zz_spec(n: int) -> tl.HamiltonianSpec:
    # all ZZ bonds commute, so a single group is legitimate
    bond = (np.kron(PAULI_Z, PAULI_Z) + np.eye(4)) / 2
    terms = tuple(LocalTerm((i, i + 1), bond) for i in range(n - 1))
    return tl.HamiltonianSpec(LatticeSpec(n, 2), terms, (1,) * (n - 1),
                              locality_k=2, model_tag="ising_zz")


def test_cycle_count_values():
    assert [tl.cycle_count(p) for p in (1, 2, 4, 6)] == [1, 2, 10, 50]
    for bad in (0, 3, 5, 8, -2):
        with pytest.raises(ValueError):
            tl.cycle_count(bad)


def test_first_order_stages():
    plan = tl.suzuki_plan(1, 2)
    assert plan.stages == ((1, 1.0), (2, 1.0))


def test_second_order_palindrome():
    plan = tl.suzuki_plan(2, 2)
    assert plan.stages == ((1, 0.5), (2, 0.5), (2, 0.5), (1, 0.5))
    plan3 = tl.suzuki_plan(2, 3)
    assert plan3.stages == ((1, 0.5), (2, 0.5), (3, 0.5),
                            (3, 0.5), (2, 0.5), (1, 0.5))


def test_stage_counts_and_sums():
    for p, gamma in ((4, 3), (6, 2), (6, 3)):
        plan = tl.suzuki_plan(p, gamma)
        assert len(plan.stages) == tl.cycle_count(p) * gamma
        for label in range(1, gamma + 1):
            total = sum(a for g, a in plan.stages if g == label)
            assert total == pytest.approx(1.0, abs=1e-12)
        assert max(abs(a) for _, a in plan.stages) <= 1.0
    assert len(tl.suzuki_plan(4, 3).stages) == 30
    assert len(tl.suzuki_plan(6, 2).stages) == 100


def test_fourth_order_recursion_coefficients():
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    plan = tl.suzuki_plan(4, 1)
    alphas = [a for _, a in plan.stages]
    expected = [u / 2, u / 2, u / 2, u / 2,
                (1 - 4 * u) / 2, (1 - 4 * u) / 2,
                u / 2, u / 2, u / 2, u / 2]
    np.testing.assert_allclose(alphas, expected, atol=1e-15)


def test_validate_plan_catches_tampering():
    plan = tl.suzuki_plan(2, 2)
    truncated = FormulaPlan(2, 2, plan.stages[:-1])
    with pytest.raises(ValueError, match="stages"):
        tl.validate_plan(truncated)
    with pytest.raises(ValueError, match="label"):   # refused as the plan is built
        tl.validate_plan(FormulaPlan(2, 2, ((1, 0.5), (3, 0.5), (3, 0.5), (1, 0.5))))
    bad_sum = FormulaPlan(2, 2, ((1, 0.5), (2, 0.5), (2, 0.5), (1, -0.5)))
    with pytest.raises(ValueError, match="sum"):
        tl.validate_plan(bad_sum)
    big_coeff = FormulaPlan(1, 2, ((1, 2.0), (2, 1.0)))
    with pytest.raises(ValueError, match="magnitude"):
        tl.validate_plan(big_coeff)


def test_apply_plan_matches_expm_product(mg4):
    spec = mg4.spec
    _, parts = tl.assemble(spec)
    spectra = [np.linalg.eigh(p) for p in parts]
    t = 0.37
    for p in (1, 2, 4):
        plan = tl.suzuki_plan(p, spec.gamma_count)
        oracle = np.eye(spec.lattice.hilbert_dim, dtype=complex)
        for gamma, alpha in plan.stages:
            oracle = scipy.linalg.expm(-1j * alpha * t * parts[gamma - 1]) @ oracle
        mine = tl.apply_plan(plan, spectra, t, np.eye(spec.lattice.hilbert_dim))
        np.testing.assert_allclose(mine, oracle, atol=1e-12)
        block = mg4.low_column_basis(1.0)
        np.testing.assert_allclose(tl.apply_plan(plan, spectra, t, block),
                                   oracle @ block, atol=1e-12)


def test_apply_plan_negative_time_is_adjoint(aklt4):
    plan = tl.suzuki_plan(2, aklt4.spec.gamma_count)
    eye = np.eye(aklt4.spec.lattice.hilbert_dim)
    part_spectra = oracle_dense.dense_spectra(aklt4.spec)[1]
    forward = tl.apply_plan(plan, part_spectra, 0.4, eye)
    backward = tl.apply_plan(plan, part_spectra, -0.4, eye)
    np.testing.assert_allclose(backward, forward.conj().T, atol=1e-12)


def test_apply_plan_input_validation(aklt4):
    part_spectra = oracle_dense.dense_spectra(aklt4.spec)[1]
    plan = tl.suzuki_plan(1, 3)
    with pytest.raises(ValueError, match="group spectra"):
        tl.apply_plan(plan, part_spectra, 0.1, np.eye(81))
    plan = tl.suzuki_plan(1, 2)
    with pytest.raises(ValueError, match="shape"):
        tl.apply_plan(plan, part_spectra, 0.1, np.ones(81))
    with pytest.raises(ValueError, match="shape"):
        tl.apply_plan(plan, part_spectra, 0.1, np.eye(27))


def test_apply_plan_refuses_bad_labels(mg4):
    # label 0 used to index the last group's spectrum silently; such a plan
    # is now refused as it is built, before any of its callers can run it
    gamma = mg4.spec.gamma_count
    eye = np.eye(mg4.spec.lattice.hilbert_dim)

    def bad_plan(bad):
        return FormulaPlan(1, gamma, ((bad, 1.0), *((g, 1.0) for g in range(2, gamma + 1))))

    for bad in (0, gamma + 1):
        with pytest.raises(ValueError, match=f"stage label {bad} outside 1..{gamma}"):
            tl.apply_plan(bad_plan(bad), oracle_dense.dense_spectra(mg4.spec)[1], 0.1, eye)
        with pytest.raises(ValueError, match="stage label"):
            mg4.full_error(bad_plan(bad), 0.1)
        with pytest.raises(ValueError, match="stage label"):   # not one column below -1
            mg4.projected_error(bad_plan(bad), 0.1, -1.0)


def test_error_halving_ratio(mg4):
    # e(t) = C t^{p+1} + O(t^{p+2}), so e(t)/e(t/2) ~ 2^{p+1}
    t = 0.02
    for p in (1, 2):
        plan = tl.suzuki_plan(p, mg4.spec.gamma_count)
        ratio = mg4.full_error(plan, t) / mg4.full_error(plan, t / 2)
        assert ratio == pytest.approx(2.0 ** (p + 1), rel=0.07)


def test_order_check_slopes(aklt4):
    grid = list(np.geomspace(1e-3, 1e-2, 5))
    for p in (1, 2):
        fit = tl.order_check(tl.suzuki_plan(p, 2), aklt4, grid)
        assert not fit.exact
        assert fit.slope == pytest.approx(p + 1, abs=0.2)
        assert fit.residual < 0.05
        assert len(fit.errors) == 5


def test_order_check_higher_order_slope(lab_cache):
    # larger times keep fourth-order errors well above the noise floor
    lab = lab_cache("aklt", 3)
    fit = tl.order_check(tl.suzuki_plan(4, 2), lab, list(np.geomspace(0.05, 0.2, 5)))
    assert not fit.exact
    assert fit.slope == pytest.approx(5.0, abs=0.3)


def test_order_check_exact_for_commuting_groups():
    lab = tl.ErrorLab(commuting_zz_spec(4))
    fit = tl.order_check(tl.suzuki_plan(1, 1), lab, [0.1, 0.2, 0.4, 0.8])
    assert fit.exact
    assert fit.slope is None and fit.residual is None
    assert max(fit.errors) <= EXACT_ERROR_FLOOR


def test_order_check_grid_validation(aklt4):
    plan = tl.suzuki_plan(1, 2)
    with pytest.raises(ValueError, match="4 grid times"):
        tl.order_check(plan, aklt4, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="increasing"):
        tl.order_check(plan, aklt4, [0.1, 0.3, 0.2, 0.4])
    with pytest.raises(ValueError, match="increasing"):
        tl.order_check(plan, aklt4, [-0.1, 0.1, 0.2, 0.3])


def test_mutation_is_detected(aklt4):
    # flipping one coefficient sign must destroy the second-order slope
    reference = tl.suzuki_plan(2, 2)
    stages = list(reference.stages)
    gamma, alpha = stages[0]
    stages[0] = (gamma, -alpha)
    tampered = FormulaPlan(2, 2, tuple(stages))
    with pytest.raises(ValueError):
        tl.validate_plan(tampered)
    grid = list(np.geomspace(1e-3, 1e-2, 5))
    fit = tl.order_check(tampered, aklt4, grid)
    assert abs(fit.slope - 3.0) > 0.2


def test_plan_table_golden():
    table = tl.plan_table(tl.suzuki_plan(1, 2))
    assert table == "v,gamma,alpha\n1,1,1.0\n2,2,1.0\n"
    assert tl.plan_table(tl.suzuki_plan(4, 3)) == tl.plan_table(tl.suzuki_plan(4, 3))


def test_plan_is_immutable():
    plan = tl.suzuki_plan(1, 2)
    with pytest.raises(AttributeError):
        plan.order_p = 2
