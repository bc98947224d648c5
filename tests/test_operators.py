"""Dense-operator layer tests.

The digit-scatter embedding is cross-checked against plain ``np.kron``
chains (``test_embedding_property`` checks it against a general Kronecker
reference), the matrix exponential against ``scipy.linalg.expm`` and the
spectral norm against ``np.linalg.norm(A, 2)``.  Site 0 is the most
significant digit of a basis index.
"""
import math

import numpy as np
import pytest
import scipy.linalg

import trotterlab as tl
from trotterlab import operators
from trotterlab.embedding import embed_block
from trotterlab.lattice import LatticeSpec, LocalTerm
from trotterlab.operators import apply_matrix, low_energy_mask, spin_projector_terms

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)


def random_hermitian(dim: int, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_embed_site_zero_is_most_significant():
    lattice = LatticeSpec(2, 2)
    on_first = tl.embed(LocalTerm((0,), PAULI_Z), lattice)
    on_second = tl.embed(LocalTerm((1,), PAULI_Z), lattice)
    np.testing.assert_array_equal(np.diag(on_first).real, [1, 1, -1, -1])
    np.testing.assert_array_equal(np.diag(on_second).real, [1, -1, 1, -1])


def test_embed_contiguous_matches_kron():
    rng = np.random.default_rng(7)
    block = random_hermitian(4, rng)
    lattice = LatticeSpec(3, 2)
    embedded = tl.embed(LocalTerm((1, 2), block), lattice)
    np.testing.assert_allclose(embedded, np.kron(EYE2, block), atol=1e-14)
    embedded = tl.embed(LocalTerm((0, 1), block), lattice)
    np.testing.assert_allclose(embedded, np.kron(block, EYE2), atol=1e-14)


def test_embed_gapped_support():
    rng = np.random.default_rng(8)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    lattice = LatticeSpec(3, 2)
    embedded = tl.embed(LocalTerm((0, 2), np.kron(a, b)), lattice)
    np.testing.assert_allclose(embedded,
                               np.kron(np.kron(a, EYE2), b), atol=1e-13)


def test_embed_block_unsorted_placement():
    rng = np.random.default_rng(9)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    # first tensor factor of the block goes to site 2, second to site 0
    out = embed_block(np.kron(a, b), (2, 0), 3, 2)
    np.testing.assert_allclose(out, np.kron(np.kron(b, EYE2), a), atol=1e-13)


def test_embed_block_rejects_bad_support():
    with pytest.raises(ValueError):
        embed_block(np.eye(4), (0, 0), 3, 2)
    with pytest.raises(ValueError):
        embed_block(np.eye(4), (0, 3), 3, 2)
    with pytest.raises(ValueError):
        embed_block(np.eye(3), (0, 1), 3, 2)


def test_assemble_matches_kron_sum(aklt4):
    spec = aklt4.spec
    dim = spec.lattice.hilbert_dim
    oracle = np.zeros((dim, dim), dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    for term in spec.terms:
        factors = []
        site = 0
        while site < spec.lattice.num_sites:
            if site == term.support[0]:
                factors.append(term.block)
                site += len(term.support)  # supports are contiguous here
            else:
                factors.append(eye3)
                site += 1
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        oracle += acc
    hamiltonian, parts = tl.assemble(spec)
    np.testing.assert_allclose(hamiltonian, oracle, atol=1e-12)
    np.testing.assert_allclose(sum(parts), oracle, atol=1e-12)
    assert len(parts) == spec.gamma_count


def test_built_in_specs_assemble_to_float64():
    for spec in (tl.build_aklt(3), tl.build_mg(4), tl.build_long_range_heisenberg(4, 2.0)):
        assert spec.dtype == np.float64
        hamiltonian, parts = tl.assemble(spec)
        assert hamiltonian.dtype == np.float64
        assert all(part.dtype == np.float64 for part in parts)
        assert all(tl.embed(term, spec.lattice).dtype == np.float64 for term in spec.terms)


def test_embed_block_dtype_follows_imaginary_part():
    real = embed_block(np.kron(PAULI_Y, PAULI_Y), (0, 2), 3, 2)
    assert real.dtype == np.float64
    assert embed_block(PAULI_Y, (1,), 3, 2).dtype == np.complex128
    np.testing.assert_array_equal(real, np.kron(np.kron(PAULI_Y, EYE2), PAULI_Y))


def test_apply_matrix_real_on_complex_matches_matmul():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    for shape in ((5, 3), (5, 0)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for left in (a, a.T):
            out = apply_matrix(left, x)
            assert out.dtype == np.complex128 and out.shape == x.shape
            np.testing.assert_allclose(out, left @ x, rtol=0, atol=1e-13)
    x = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    np.testing.assert_allclose(apply_matrix(a, x[:, ::2]), a @ x[:, ::2], rtol=0, atol=1e-13)


def test_evolve_matches_expm():
    rng = np.random.default_rng(11)
    h = random_hermitian(20, rng)
    spectral = np.linalg.eigh(h)
    for t in (0.0, 0.3, -1.7):
        mine = tl.evolve(spectral, t)
        oracle = scipy.linalg.expm(-1j * t * h)
        np.testing.assert_allclose(mine, oracle, atol=1e-11)
        np.testing.assert_allclose(mine @ mine.conj().T, np.eye(20), atol=1e-12)


def test_spectral_norm_matches_two_norm(monkeypatch):
    rng = np.random.default_rng(12)
    for dim in (1, 7, 30):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert tl.spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)
        assert tl.spectral_norm(a.real) == pytest.approx(np.linalg.norm(a.real, 2), rel=1e-10)
    assert tl.spectral_norm(np.zeros((4, 4))) == 0.0
    assert tl.spectral_norm(PAULI_X) == pytest.approx(1.0, abs=1e-12)
    seen = []   # float64 stays real; anything else, integers included, runs in complex128
    monkeypatch.setattr(operators, "_matrix_norm", lambda a: seen.append(a.dtype) or 0.0)
    for a in (np.eye(2), np.eye(2, dtype=complex), [[1, 0], [0, 2]]):
        tl.spectral_norm(a)
    assert seen == [np.float64, np.complex128, np.complex128]


def test_low_energy_projector_rank_and_ties():
    values = np.array([0.0, 1.0, 1.0, 2.0, 3.5])
    spectral = np.linalg.eigh(np.diag(values).astype(complex))
    assert round(float(np.trace(tl.low_energy_projector(spectral, 1.0)).real)) == 3
    assert round(float(np.trace(tl.low_energy_projector(spectral, 0.5)).real)) == 1
    assert tl.spectral_norm(tl.low_energy_projector(spectral, -0.5)) == 0.0
    proj = tl.low_energy_projector(spectral, 2.0)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)


def test_low_energy_mask_tie_slack():
    values = np.array([-2e-15, 3e-15, 0.5, 1.0])
    mask = low_energy_mask(values, 0.0)
    assert mask.tolist() == [True, True, False, False]
    assert (~mask).sum() == 2


def test_projector_commutes_with_hamiltonian(aklt4):
    h, _ = tl.assemble(aklt4.spec)
    proj = tl.low_energy_projector(np.linalg.eigh(h), 1.0)
    assert tl.spectral_norm(proj @ h - h @ proj) < 1e-9


def test_charge_detection_on_built_in_models():
    # AKLT: U(1), 13 sectors of trinomial size; MG: U(1), binomial sizes;
    # lr: only the parity of the digit sum, as its XX and YY groups flip pairs
    trinomial = [1, 6, 21, 50, 90, 126, 141, 126, 90, 50, 21, 6, 1]
    assert np.bincount(tl.conserved_charge(tl.build_aklt(6))).tolist() == trinomial
    binomial = [math.comb(10, k) for k in range(11)]
    assert np.bincount(tl.conserved_charge(tl.build_mg(10))).tolist() == binomial
    charge = tl.conserved_charge(tl.build_long_range_heisenberg(6, 2.0))
    assert np.bincount(charge).tolist() == [32, 32]
    # site 0 is the most significant digit; parity of the digit sum
    assert charge[[0b000000, 0b000001, 0b100000, 0b110000]].tolist() == [0, 1, 1, 0]


def test_charge_detection_falls_back_exactly():
    lattice = LatticeSpec(3, 2)
    rng = np.random.default_rng(7)
    generic = LocalTerm((0, 2), random_hermitian(4, rng) + 10 * np.eye(4))
    spec = tl.HamiltonianSpec(lattice, (generic,), (1,), locality_k=2)
    assert np.unique(tl.conserved_charge(spec)).tolist() == [0]
    # one off-charge entry of 1e-300 breaks the digit sum (|00> and |01>),
    # then its parity too; one between |00> and |11> leaves the parity
    for pair, sectors in (((0, 1), 1), ((0, 3), 2)):
        block = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        block[pair] = block[pair[::-1]] = 1e-300
        spec = tl.HamiltonianSpec(lattice, (LocalTerm((0, 1), block),), (1,), locality_k=2)
        assert np.unique(tl.conserved_charge(spec)).size == sectors
    block = np.diag([1.0, 2.0, 3.0, 4.0])
    spec = tl.HamiltonianSpec(lattice, (LocalTerm((0, 1), block),), (1,), locality_k=2)
    assert np.unique(tl.conserved_charge(spec)).size == 4


def charged_complex_spec() -> tl.HamiltonianSpec:
    """AKLT N=4 plus a complex qutrit pair term masked to the digit sum."""
    base = tl.build_aklt(4)
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    charge = np.add.outer(np.arange(3), np.arange(3)).ravel()
    raw[charge[:, None] != charge] = 0
    extra = LocalTerm((0, 2), raw @ raw.conj().T / 9)
    return tl.HamiltonianSpec(base.lattice, base.terms + (extra,),
                              base.partition + (base.gamma_count + 1,), locality_k=2)


@pytest.mark.parametrize("spec", [tl.build_aklt(5), tl.build_mg(7),
                                  tl.build_long_range_heisenberg(6, 2.0),
                                  charged_complex_spec()],
                         ids=["aklt5", "mg7", "lr6", "complex"])
def test_sector_assembly_is_the_cut_of_the_dense_one(spec):
    hamiltonian, parts = tl.assemble(spec)
    charge = tl.conserved_charge(spec)
    assert charge.max() > 0
    for label in range(charge.max() + 1):
        rows = np.flatnonzero(charge == label)
        index = np.ix_(rows, rows)
        block, block_parts = tl.assemble(spec, rows)
        assert block.dtype == spec.dtype
        assert np.array_equal(block, hamiltonian[index])
        assert len(block_parts) == len(parts)
        assert all(np.array_equal(a, b[index]) for a, b in zip(block_parts, parts))


def test_sector_assembly_refuses_rows_that_leak():
    # all of sectors 2 and 3 is a block of H; sector 2 plus one state of 3 is not
    spec = tl.build_aklt(3)
    hamiltonian, _ = tl.assemble(spec)
    charge = tl.conserved_charge(spec)
    rows = np.flatnonzero((charge == 2) | (charge == 3))
    assert np.array_equal(tl.assemble(spec, rows)[0], hamiltonian[np.ix_(rows, rows)])
    leaking = np.append(np.flatnonzero(charge == 2), np.flatnonzero(charge == 3)[0])
    with pytest.raises(ValueError, match="couples the rows to other basis states"):
        tl.assemble(spec, np.sort(leaking))
    # lr conserves only the parity: digit sums 0 and 1 couple to 2 through XX and YY
    lr = tl.build_long_range_heisenberg(6, 2.0)
    sums = np.array([bin(i).count("1") for i in range(64)])
    with pytest.raises(ValueError, match="couples the rows to other basis states"):
        tl.assemble(lr, np.flatnonzero(sums <= 1))
    for bad in (np.array([3, 2]), np.array([2, 2]), np.array([0, 27]), np.array([-1, 0]),
                np.array([[0, 1]]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="rows must be sorted distinct basis states"):
            tl.assemble(spec, bad)


def test_assembly_on_rows_against_columns():
    # a half's rows against all states of its sector: the cut of the dense H
    spec = tl.build_aklt(3)
    hamiltonian, parts = tl.assemble(spec)
    charge = tl.conserved_charge(spec)
    columns = np.flatnonzero(charge == 3)
    for rows in (columns[:4], columns[3:4], columns[:0], columns):
        block, block_parts = tl.assemble(spec, rows, columns)
        assert block.shape == (rows.size, columns.size)
        assert np.array_equal(block, hamiltonian[np.ix_(rows, columns)])
        assert all(np.array_equal(a, b[np.ix_(rows, columns)]) for a, b in zip(block_parts, parts))
    with pytest.raises(ValueError, match="couples the rows to other basis states"):
        tl.assemble(spec, columns[:4], columns[1:])
    for bad in (columns[::-1], np.append(columns, 27), np.array([-1, 0]), columns[:, None],
                columns.astype(float)):
        with pytest.raises(ValueError, match="columns must be sorted distinct basis states"):
            tl.assemble(spec, columns, bad)


def test_spin_projector_terms_by_bit_equality():
    aklt, mg = tl.build_aklt(4), tl.build_mg(5)
    for spec in (aklt, mg, tl.spec_from_json(tl.spec_to_json(aklt)),
                 tl.spec_from_json(tl.spec_to_json(mg))):
        assert spin_projector_terms(spec)
    lr = tl.build_long_range_heisenberg(4, 2.0)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    aklt_plus = tl.HamiltonianSpec(aklt.lattice,
                                   aklt.terms + (LocalTerm((1, 2), raw @ raw.conj().T / 9),),
                                   aklt.partition + (3,), locality_k=2, model_tag="aklt_plus")

    def with_first_block(spec, block):
        terms = (LocalTerm(spec.terms[0].support, block),) + spec.terms[1:]
        return tl.HamiltonianSpec(spec.lattice, terms, spec.partition,
                                  locality_k=spec.locality_k, model_tag=spec.model_tag)

    bond = aklt.terms[0].block
    nudged = bond.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, 2.0)
    for spec in (lr, aklt_plus, with_first_block(aklt, 2 * bond),
                 with_first_block(aklt, nudged)):
        assert not spin_projector_terms(spec)
    # every allowed total spin qualifies, not only the one the builders use
    assert spin_projector_terms(with_first_block(aklt, tl.spin_sector_projector(2, 3, 0.0)))
