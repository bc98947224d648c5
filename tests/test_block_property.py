"""Property test: the eigenvector-block route against the dense oracle.

Random PSD local terms on up to five qubits are grouped by
``greedy_partition``; for random (p, t, cutoffs, steps) the block errors of
``ErrorLab.errors`` must match the dense propagator difference of
``oracle_dense``, and the projected commutator sums on the block must match
the projector sandwich.  Complex Hermitian terms run in complex128 and
real-symmetric ones in float64; both are drawn.  A third family masks the
terms to a conserved charge (digit sum or its parity, d = 2 or 3), so the
lab's sector spectra are checked against one dense ``eigh``.  A fourth
family is built of exact total-spin projectors, for which the lab takes
every error from the smallest-|S^z| sector alone.  A fifth family is
exactly flip-invariant, each block averaged with its index reversal, so the
lab folds the sectors that the flip maps to themselves into halves and
skips mirror sectors.  A sixth family puts several terms on each support,
one support gapped, so the walk's pairs within one group and across groups
and its exact-zero pruning are checked for a whole list of bases at once.
Last, the sector eigensolver ``block_eigh`` is checked against one
``np.linalg.eigh`` on permuted block-diagonal matrices.
Examples are derandomized so the suite stays deterministic.
"""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracle_dense
import trotterlab as tl
from trotterlab.errors import BLOCK_EIGH_MIN, block_eigh
from trotterlab.lattice import spin_casimirs
from trotterlab.operators import flip_invariant, spin_projector_terms

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=100)


@st.composite
def random_specs(draw, real: bool = False) -> tl.HamiltonianSpec:
    num_sites = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lattice = tl.LatticeSpec(num_sites, 2)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 2))
        support = tuple(sorted(rng.choice(num_sites, size=size, replace=False).tolist()))
        raw = rng.standard_normal((2 ** size,) * 2)
        if not real:
            raw = raw + 1j * rng.standard_normal((2 ** size,) * 2)
        terms.append(tl.LocalTerm(support, raw @ raw.conj().T / 2 ** size))
    partition = tl.greedy_partition(lattice, terms)
    locality = max(len(term.support) for term in terms)
    spec = tl.HamiltonianSpec(lattice, tuple(terms), partition, locality_k=locality)
    assert spec.dtype == (np.float64 if real else np.complex128)
    return spec


def digit_sums(num_sites, local_dim):
    index = np.arange(local_dim ** num_sites)
    return sum(index // local_dim ** k % local_dim for k in range(num_sites))


@st.composite
def charged_specs(draw, local_dims=(2, 3), moduli=(None, 2), flip=False):
    """PSD terms that are exactly 0 between unequal charges, with the modulus used.

    The charge is the digit sum (modulus None), its parity (modulus 2) or
    nothing (modulus 1).  With ``flip`` each block B becomes
    (B + B[::-1, ::-1]) / 2, exactly flip-invariant: then d = 3 puts F's
    fixed point (every digit 1) in a sector, and N (d - 1) odd makes
    digit-sum sectors mirror pairs and swaps the two parity labels.
    """
    local_dim = draw(st.sampled_from(local_dims))
    modulus = draw(st.sampled_from(moduli))
    real = draw(st.booleans())
    num_sites = draw(st.integers(2, 5 if local_dim == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 2))
        support = tuple(sorted(rng.choice(num_sites, size=size, replace=False).tolist()))
        charge = digit_sums(size, local_dim)
        if modulus:
            charge %= modulus
        raw = rng.standard_normal((local_dim ** size,) * 2)
        if not real:
            raw = raw + 1j * rng.standard_normal((local_dim ** size,) * 2)
        raw[charge[:, None] != charge] = 0
        block = raw @ raw.conj().T / local_dim ** size
        terms.append(tl.LocalTerm(support, (block + block[::-1, ::-1]) / 2 if flip else block))
    lattice = tl.LatticeSpec(num_sites, local_dim)
    partition = tl.greedy_partition(lattice, terms)
    locality = max(len(term.support) for term in terms)
    return tl.HamiltonianSpec(lattice, tuple(terms), partition, locality_k=locality), modulus


@st.composite
def spin_projector_specs(draw):
    """Exact ``spin_sector_projector`` terms of random total spin on 2-3 random sites."""
    local_dim = draw(st.sampled_from((2, 3)))
    num_sites = draw(st.integers(3, 6 if local_dim == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for _ in range(draw(st.integers(2, 5))):
        size = draw(st.integers(2, 3))
        support = tuple(sorted(rng.choice(num_sites, size=size, replace=False).tolist()))
        casimir = draw(st.sampled_from(spin_casimirs(size, local_dim)))
        terms.append(tl.LocalTerm(support, tl.spin_sector_projector(size, local_dim, casimir)))
    lattice = tl.LatticeSpec(num_sites, local_dim)
    partition = tl.greedy_partition(lattice, terms)
    locality = max(len(term.support) for term in terms)
    return tl.HamiltonianSpec(lattice, tuple(terms), partition, locality_k=locality)


@st.composite
def shared_support_specs(draw):
    """Two supports or three, the first gapped (sites 0 and j > 1), with two PSD
    terms on the first and one or two on each other; qubits or qutrits."""
    local_dim = draw(st.sampled_from((2, 3)))
    num_sites = draw(st.integers(3, 4 if local_dim == 2 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    supports = [(0, int(rng.integers(2, num_sites)))]
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 2))
        supports.append(tuple(sorted(rng.choice(num_sites, size=size, replace=False).tolist())))
    terms = []
    for count, support in zip([2] + [draw(st.integers(1, 2)) for _ in supports[1:]], supports):
        for _ in range(count):
            dim = local_dim ** len(support)
            raw = rng.standard_normal((dim, dim))
            if draw(st.booleans()):
                raw = raw + 1j * rng.standard_normal((dim, dim))
            terms.append(tl.LocalTerm(support, raw @ raw.conj().T / dim))
    lattice = tl.LatticeSpec(num_sites, local_dim)
    return tl.HamiltonianSpec(lattice, tuple(terms), tl.greedy_partition(lattice, terms),
                              locality_k=2)


ERROR_DRAWS = dict(order_p=st.sampled_from((1, 2, 4, 6)), t=st.floats(0.0, 1.0),
                   fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
                   inf_at=st.integers(0, 3), steps=st.integers(1, 3))
COMMUTATOR_DRAWS = dict(depth=st.integers(1, 3), fraction=st.floats(0.0, 1.0))


def check_errors(spec, order_p, t, fractions, inf_at, steps):
    lab = tl.ErrorLab(spec)
    plan = tl.suzuki_plan(order_p, spec.gamma_count)
    deltas = [f * lab.max_energy for f in fractions]
    deltas.insert(min(inf_at, len(deltas)), math.inf)
    block = lab.errors(plan, t, deltas, steps)
    dense = oracle_dense.errors(lab, plan, t, deltas, steps)
    assert block == pytest.approx(dense, rel=0, abs=1e-12)


def check_commutator_sum(spec, depth, fraction):
    lab = tl.ErrorLab(spec)
    delta = fraction * lab.max_energy
    block = tl.nested_commutator_sum(spec, depth, lab.low_column_basis(delta))
    dense = oracle_dense.commutator_sum(spec, depth, oracle_dense.projector(lab, delta))
    # sums that vanish exactly (one low eigenvector, depth 1) leave round-off
    # on both sides, hence the small absolute floor
    assert block == pytest.approx(dense, rel=1e-12, abs=1e-13)
    check_unprojected_sum(spec, depth)


def check_unprojected_sum(spec, depth):
    walked = tl.nested_commutator_sum(spec, depth)
    dense = oracle_dense.commutator_sum(spec, depth)
    assert walked == pytest.approx(dense, rel=1e-12, abs=1e-13)


@PROPERTY_SETTINGS
@given(spec=random_specs(), **ERROR_DRAWS)
def test_block_errors_match_dense_oracle(spec, order_p, t, fractions, inf_at, steps):
    check_errors(spec, order_p, t, fractions, inf_at, steps)


@PROPERTY_SETTINGS
@given(spec=random_specs(real=True), **ERROR_DRAWS)
def test_real_block_errors_match_dense_oracle(spec, order_p, t, fractions, inf_at, steps):
    check_errors(spec, order_p, t, fractions, inf_at, steps)


@PROPERTY_SETTINGS
@given(spec=random_specs(), **COMMUTATOR_DRAWS)
def test_block_commutator_sum_matches_projector_sandwich(spec, depth, fraction):
    check_commutator_sum(spec, depth, fraction)


@PROPERTY_SETTINGS
@given(spec=random_specs(real=True), **COMMUTATOR_DRAWS)
def test_real_block_commutator_sum_matches_projector_sandwich(spec, depth, fraction):
    check_commutator_sum(spec, depth, fraction)


@PROPERTY_SETTINGS
@given(drawn=charged_specs(local_dims=(3,)), depth=st.integers(1, 3))
def test_qutrit_commutator_sum_matches_dense_oracle(drawn, depth):
    check_unprojected_sum(drawn[0], depth)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=shared_support_specs(), depth=st.integers(1, 3), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_basis_list_walk_matches_single_calls_and_dense_oracle(spec, depth, fraction, seed):
    lab = tl.ErrorLab(spec)
    dim = spec.lattice.hilbert_dim
    delta = fraction * lab.max_energy
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, dim + 1))
    isometry = np.linalg.qr(rng.standard_normal((dim, width))
                            + 1j * rng.standard_normal((dim, width)))[0]
    bases = [None, lab.low_column_basis(delta), isometry, np.zeros((dim, 0))]
    sums = tl.nested_commutator_sum(spec, depth, bases)
    assert type(sums) is list and all(type(value) is float for value in sums)
    assert sums == [tl.nested_commutator_sum(spec, depth, basis) for basis in bases]
    assert tl.nested_commutator_sum(spec, depth, tuple(bases)) == sums
    assert sums[3] == 0.0
    projectors = [None, oracle_dense.projector(lab, delta), isometry @ isometry.conj().T]
    commutators = list(oracle_dense.nested_commutators(spec, depth))
    dense = [sum(np.linalg.norm(c if p is None else p @ c @ p, 2) for c in commutators)
             for p in projectors]
    assert sums[:3] == pytest.approx(dense, rel=1e-12, abs=1e-13)


@PROPERTY_SETTINGS
@given(spec=random_specs(), depth=st.integers(0, 3), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_expectation_sum_matches_dense_oracle(spec, depth, fraction, seed):
    lab = tl.ErrorLab(spec)
    ground = min(float(sector.spectrum.eigenvalues[0]) for sector in lab.sectors)
    delta = max(fraction * lab.max_energy, ground)
    psi = lab.random_subspace_state(delta, np.random.default_rng(seed))
    value, _ = tl.low_energy_expectation_sum(lab, depth, psi, delta)
    dense = oracle_dense.expectation_sum(spec, depth, psi)
    assert value == pytest.approx(dense, rel=1e-12, abs=1e-13)


@PROPERTY_SETTINGS
@given(drawn=charged_specs(), **ERROR_DRAWS)
def test_sector_spectra_and_errors_match_dense_oracle(drawn, order_p, t, fractions, inf_at,
                                                      steps):
    spec, modulus = drawn
    sums = digit_sums(spec.lattice.num_sites, spec.lattice.local_dim)
    charge = tl.conserved_charge(spec)
    if modulus is None:
        assert np.array_equal(charge, sums)
    else:   # a parity mask may conserve the digit sum as well
        assert np.array_equal(charge, sums) or np.array_equal(charge, sums % 2)
    lab = tl.ErrorLab(spec)
    dense = np.linalg.eigvalsh(oracle_dense.kron_assemble(spec)[0])
    sectors = np.sort(np.concatenate([sector.spectrum.eigenvalues for sector in lab.sectors]))
    assert np.abs(sectors - dense).max() <= 1e-12
    check_errors(spec, order_p, t, fractions, inf_at, steps)


@PROPERTY_SETTINGS
@given(spec=spin_projector_specs(), **{**ERROR_DRAWS, "t": st.floats(0.05, 1.0)})
def test_spin_invariant_errors_from_one_sector_match_dense_oracle(spec, order_p, t, fractions,
                                                                  inf_at, steps):
    assert spin_projector_terms(spec)
    check_errors(spec, order_p, t, fractions, inf_at, steps)


def check_low_column_projectors(lab, deltas):
    for delta in deltas:
        basis = lab.low_column_basis(delta)
        assert np.abs(basis @ basis.conj().T
                      - oracle_dense.projector(lab, delta)).max() <= 1e-12


@PROPERTY_SETTINGS
@given(drawn=charged_specs(moduli=(None, 2, 1), flip=True), **ERROR_DRAWS)
def test_flip_halves_match_dense_oracle(drawn, order_p, t, fractions, inf_at, steps):
    spec = drawn[0]
    assert flip_invariant(spec)
    lab = tl.ErrorLab(spec)
    charge = tl.conserved_charge(spec)
    halves = []   # a charge sector that the flip maps onto itself comes as its + and - halves
    for label in range(charge.max() + 1):
        rows = np.flatnonzero(charge == label)
        halves += [1, -1] if set(charge.size - 1 - rows) == set(rows) else [0]
    assert [sector.sign for sector in lab.sectors] == halves
    assert sum(sector.size for sector in lab.sectors) == spec.lattice.hilbert_dim
    check_errors(spec, order_p, t, fractions, inf_at, steps)
    check_low_column_projectors(lab, [f * lab.max_energy for f in fractions] + [math.inf])


def test_block_one_ulp_off_the_flip_does_not_qualify():
    base = tl.build_long_range_heisenberg(5, 2.0)
    assert flip_invariant(base)
    block = base.terms[0].block.copy()
    block[0, 0] = np.nextafter(block[0, 0].real, np.inf)   # diagonal: still Hermitian, same charge
    terms = (tl.LocalTerm(base.terms[0].support, block),) + base.terms[1:]
    spec = tl.HamiltonianSpec(base.lattice, terms, base.partition, locality_k=base.locality_k)
    assert not flip_invariant(spec)
    lab = tl.ErrorLab(spec)
    assert [sector.sign for sector in lab.sectors] == [0, 0]   # the two parity sectors, whole
    for p in (1, 2, 4):
        plan = tl.suzuki_plan(p, spec.gamma_count)
        deltas = [0.2 * lab.max_energy, 0.6 * lab.max_energy, math.inf]
        assert lab.errors(plan, 0.3, deltas) == pytest.approx(
            oracle_dense.errors(lab, plan, 0.3, deltas), rel=0, abs=1e-12)
    check_low_column_projectors(lab, [0.2 * lab.max_energy])


@st.composite
def block_hermitian_matrices(draw):
    """A Hermitian matrix of exact blocks under a random permutation of its states.

    Blocks of 1-12 states, real or complex, some a multiple of the identity
    or a copy of the block before (repeated eigenvalues); some off-diagonal
    pairs are a value minus itself, exactly 0, which may split a block.
    Single states with a few repeated values fill it up to at least
    ``BLOCK_EIGH_MIN`` states, so that ``block_eigh`` looks for its blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "identity", "repeat")))
        if kind == "repeat" and blocks:
            blocks.append(blocks[-1])
            continue
        size = draw(st.integers(1, 12))
        if kind == "identity":
            blocks.append(rng.standard_normal() * np.eye(size))
            continue
        raw = rng.standard_normal((size, size))
        if not real:
            raw = raw + 1j * rng.standard_normal((size, size))
        block = raw + raw.conj().T
        cancel = np.triu(rng.random((size, size)) < 0.3, 1)
        block[cancel] -= block[cancel]
        block.T[cancel] -= block.T[cancel]
        blocks.append(block)
    fill = max(0, BLOCK_EIGH_MIN - sum(map(len, blocks))) + draw(st.integers(0, 8))
    blocks += [np.array([[value]]) for value in rng.choice((-1.0, 0.0, 0.5, 2.0), fill)]
    matrix = scipy.linalg.block_diag(*blocks).astype(np.float64 if real else np.complex128)
    order = rng.permutation(len(matrix))
    return matrix[np.ix_(order, order)]


@PROPERTY_SETTINGS
@given(matrix=block_hermitian_matrices(), upper=st.tuples(st.integers(0), st.integers(0)))
def test_block_eigh_matches_eigh(matrix, upper):
    n = len(matrix)
    values, vectors = block_eigh(matrix)
    scale = max(1.0, float(np.abs(matrix).max()))
    assert vectors.shape == matrix.shape and vectors.dtype == matrix.dtype
    assert np.all(np.diff(values) >= 0)
    assert np.abs(values - np.linalg.eigvalsh(matrix)).max() <= 1e-12 * scale
    assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() <= 1e-12
    assert np.abs((vectors * values) @ vectors.conj().T - matrix).max() <= 1e-12 * scale
    # an entry in the upper triangle alone is not read, as eigh does not read it
    i, j = sorted((upper[0] % n, upper[1] % n))
    if i < j and matrix[j, i] == 0:
        touched = matrix.copy()
        touched[i, j] = 1.0
        for a, b in zip(block_eigh(touched), (values, vectors)):
            assert np.array_equal(a, b)


@PROPERTY_SETTINGS
@given(diagonal=st.lists(st.sampled_from((-1.5, 0.0, 0.25, 2.0)) | st.floats(-3, 3),
                         min_size=BLOCK_EIGH_MIN, max_size=BLOCK_EIGH_MIN + 12),
       complex_=st.booleans())
def test_block_eigh_of_a_diagonal_is_its_sorted_diagonal(diagonal, complex_):
    # each state is a block of one: its diagonal entry and e_i, in ascending
    # order, ties by state, bit for bit
    matrix = np.diag(np.array(diagonal, complex if complex_ else float))
    values, vectors = block_eigh(matrix)
    order = np.argsort(diagonal, kind="stable")
    assert np.array_equal(values, np.sort(diagonal))
    assert np.array_equal(vectors, np.eye(len(diagonal))[:, order])
