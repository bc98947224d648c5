"""Model construction tests.

The two frustration-free bond/trio projectors have closed polynomial forms
in the exchange coupling; those serve as independent oracles against the
sector-projector construction used by the builders.
"""
import numpy as np
import pytest

import trotterlab as tl
from trotterlab import lattice
from trotterlab.lattice import (LatticeSpec, LocalTerm, greedy_partition, spin_casimirs,
                                spin_matrices, spin_sector_projector)
from trotterlab.operators import flip_invariant

SQ2 = 1.0 / np.sqrt(2.0)
SX1 = SQ2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
SY1 = SQ2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)


def aklt_bond_oracle() -> np.ndarray:
    # spin-2 projector for two spin-1 sites: 1/3 + (S.S)/2 + (S.S)^2/6
    dot = sum(np.kron(a, a) for a in (SX1, SY1, SZ1))
    return np.eye(9) / 3 + dot / 2 + (dot @ dot) / 6


def mg_trio_oracle() -> np.ndarray:
    # spin-3/2 projector for three spin-1/2 sites: (S_tot^2 - 3/4) / 3
    acc = np.zeros((8, 8), dtype=complex)
    for axis in (PAULI_X, PAULI_Y, PAULI_Z):
        s = 0.5 * axis
        total = (np.kron(np.kron(s, EYE2), EYE2)
                 + np.kron(np.kron(EYE2, s), EYE2)
                 + np.kron(EYE2, np.kron(EYE2, s)))
        acc += total @ total
    return (acc - 0.75 * np.eye(8)) / 3


def test_spin_matrices_algebra():
    for d in (2, 3, 4, 5):
        sx, sy, sz = spin_matrices(d)
        s = (d - 1) / 2
        np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
        casimir = sx @ sx + sy @ sy + sz @ sz
        np.testing.assert_allclose(casimir, s * (s + 1) * np.eye(d), atol=1e-12)


def test_spin_matrices_match_literal_spin_one():
    sx, sy, sz = spin_matrices(3)
    np.testing.assert_allclose(sx, SX1, atol=1e-14)
    np.testing.assert_allclose(sy, SY1, atol=1e-14)
    np.testing.assert_allclose(sz, SZ1, atol=1e-14)


def test_sector_projector_is_projector():
    proj = spin_sector_projector(2, 3, 6.0)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(proj, proj.conj().T, atol=1e-13)
    # the spin-2 multiplet of two spin-1 sites has 5 states
    assert round(float(np.trace(proj).real)) == 5


def eigh_sector_projector(n_sites, local_dim, casimir):
    # the former construction: eigenvectors of (S_tot)^2 near the target value
    total = sum(op @ op for op in (
        sum(tl.embed_block(a, [i], n_sites, local_dim) for i in range(n_sites))
        for a in spin_matrices(local_dim)))
    w, v = np.linalg.eigh(total)
    cols = v[:, np.abs(w - casimir) < 1e-8]
    return cols @ cols.conj().T


@pytest.mark.parametrize("build, n_sites, local_dim, casimir",
                         [(tl.build_aklt, 2, 3, 6.0), (tl.build_mg, 3, 2, 15 / 4)])
def test_casimir_projector_is_exactly_charge_conserving(build, n_sites, local_dim, casimir):
    block = build(n_sites).terms[0].block
    index = np.arange(local_dim ** n_sites)
    digit_sum = sum(index // local_dim ** k % local_dim for k in range(n_sites))
    off_charge = block[digit_sum[:, None] != digit_sum]
    assert off_charge.size and np.all(off_charge == 0.0)
    reference = eigh_sector_projector(n_sites, local_dim, casimir)
    assert np.abs(block - reference).max() <= 1e-15


def test_spin_projectors_are_exactly_flip_symmetric():
    # the index reversal maps S^z to -S^z, so the models commute with the spin flip
    for n_sites, local_dim in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for casimir in spin_casimirs(n_sites, local_dim):
            proj = spin_sector_projector(n_sites, local_dim, casimir)
            assert np.array_equal(proj, proj[::-1, ::-1])
    assert flip_invariant(tl.build_aklt(5)) and flip_invariant(tl.build_mg(6))


def test_casimir_must_be_an_allowed_total_spin():
    # two spin-1 sites allow S = 0, 1, 2; three spin-1/2 sites allow S = 1/2, 3/2
    for n_sites, local_dim, casimir in ((2, 3, 5.0), (2, 3, 12.0), (3, 2, 2.0), (3, 2, 0.0)):
        with pytest.raises(ValueError, match="is not S\\(S\\+1\\)"):
            spin_sector_projector(n_sites, local_dim, casimir)
    proj = spin_sector_projector(3, 2, 0.75)   # the two spin-1/2 doublets
    assert round(float(np.trace(proj))) == 4


def test_aklt_bond_matches_polynomial_oracle():
    spec = tl.build_aklt(2)
    assert len(spec.terms) == 1
    np.testing.assert_allclose(spec.terms[0].block, aklt_bond_oracle(), atol=1e-12)


def test_mg_trio_matches_total_spin_oracle():
    spec = tl.build_mg(3)
    assert len(spec.terms) == 1
    np.testing.assert_allclose(spec.terms[0].block, mg_trio_oracle(), atol=1e-12)
    assert round(float(np.trace(spec.terms[0].block).real)) == 4


def test_aklt_structure():
    spec = tl.build_aklt(5)
    assert spec.model_tag == "aklt"
    assert spec.locality_k == 2
    assert [t.support for t in spec.terms] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert spec.partition == (1, 2, 1, 2)
    assert spec.gamma_count == 2
    report = tl.validate(spec)
    assert report.passed and not report.failures


def test_mg_structure():
    spec = tl.build_mg(6)
    assert spec.locality_k == 3
    assert [t.support for t in spec.terms] == [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]
    assert spec.partition == (1, 2, 3, 1)
    assert spec.gamma_count == 3
    assert tl.validate(spec).passed


def test_mg_requires_three_sites():
    with pytest.raises(ValueError):
        tl.build_mg(2)


def test_long_range_structure_and_couplings():
    spec = tl.build_long_range_heisenberg(4, 2.0, 1.5)
    # 6 pairs, 3 axes each, grouped by axis
    assert len(spec.terms) == 18
    assert spec.gamma_count == 3
    assert spec.locality_k == 2
    assert tl.validate(spec).passed
    by_support = {}
    for term, label in zip(spec.terms, spec.partition):
        by_support.setdefault(term.support, []).append(label)
    assert set(by_support) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    for labels in by_support.values():
        assert sorted(labels) == [1, 2, 3]
    # coupling J0 |i-j|^-nu times a unit-norm PSD block
    for term in spec.terms:
        distance = term.support[1] - term.support[0]
        assert term.norm == pytest.approx(1.5 * distance ** -2.0, rel=1e-12)
    for nu, j0 in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            tl.build_long_range_heisenberg(4, nu, j0)


def test_terms_are_psd_after_build(lab_cache):
    for spec in (tl.build_aklt(3), tl.build_mg(4), tl.build_long_range_heisenberg(3, 1.0)):
        for term in spec.terms:
            assert float(np.linalg.eigvalsh(term.block)[0]) >= -1e-12


def test_frustration_free_ground_energy(aklt4, mg4):
    for lab in (aklt4, mg4):
        assert abs(min(float(sector.spectrum.eigenvalues[0]) for sector in lab.sectors)) < 1e-10


def test_extensiveness_values():
    assert tl.extensiveness(tl.build_aklt(2)) == pytest.approx(1.0, abs=1e-12)
    assert tl.extensiveness(tl.build_aklt(4)) == pytest.approx(2.0, abs=1e-12)
    assert tl.extensiveness(tl.build_mg(4)) == pytest.approx(2.0, abs=1e-12)
    assert tl.extensiveness(tl.build_mg(6)) == pytest.approx(3.0, abs=1e-12)


def test_extensiveness_against_direct_site_sums():
    spec = tl.build_long_range_heisenberg(5, 2.0)
    per_site = [0.0] * spec.lattice.num_sites
    for term in spec.terms:
        for site in term.support:
            per_site[site] += term.norm
    assert tl.extensiveness(spec) == pytest.approx(max(per_site), rel=1e-12)


def test_long_range_extensiveness_closed_form():
    # N=3, nu=1: center site couples at distance 1 to both ends -> 3 axes * 2
    assert tl.long_range_extensiveness(3, 1.0) == pytest.approx(6.0, rel=1e-12)
    spec = tl.build_long_range_heisenberg(5, 2.0)
    assert tl.extensiveness(spec) == pytest.approx(
        tl.long_range_extensiveness(5, 2.0), rel=1e-12)


def all_sites_scan(num_sites, decay_exponent, base_coupling):
    """Largest coupling sum over every site, each summed in site order.

    Site i meets the distances i, ..., 1, then 1, ..., N-1-i: the window at
    N-1-i of the couplings at distances N-1, ..., 1, 1, ..., N-1.
    """
    if num_sites < 2:
        return 0.0
    per_distance = 3 * base_coupling * np.arange(1.0, num_sites) ** (-decay_exponent)
    mirrored = np.concatenate([per_distance[::-1], per_distance])
    rows = np.lib.stride_tricks.sliding_window_view(mirrored, num_sites - 1)
    return float(np.cumsum(rows, axis=1)[:, -1].max())


def test_long_range_extensiveness_matches_all_sites_scan():
    # the two middle sites carry the largest coupling sum; summation order
    # can leave one ulp between sites of equal exact sums, hence rel 1e-15
    for num_sites in range(1, 301):
        for decay_exponent in (0.5, 1.0, 2.0, 3.0, 6.0, 10.0):
            for base_coupling in (0.3, 1.0):
                scan = all_sites_scan(num_sites, decay_exponent, base_coupling)
                middle = tl.long_range_extensiveness(num_sites, decay_exponent, base_coupling)
                assert middle == pytest.approx(scan, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError, match="decay exponent"):
        tl.long_range_extensiveness(8, -1.0)


def test_shift_psd():
    term = LocalTerm((0,), PAULI_Z)
    shifted = tl.shift_psd(term)
    np.testing.assert_allclose(shifted.block, PAULI_Z + np.eye(2), atol=1e-14)
    eigs = np.linalg.eigvalsh(shifted.block)
    assert float(eigs[0]) >= -1e-14
    # already-PSD block still gets its norm added; energies shift, gaps do not
    proj = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(tl.shift_psd(LocalTerm((1,), proj)).block,
                               proj + np.eye(2), atol=1e-14)


def test_validate_reports_non_psd_term():
    lattice = LatticeSpec(2, 2)
    bad = LocalTerm((0,), -PAULI_Z)
    good = LocalTerm((1,), np.eye(2) - np.outer([1, 0], [1, 0]))
    spec = tl.HamiltonianSpec(lattice, (bad, good), (1, 2), locality_k=1)
    report = tl.validate(spec)
    assert not report.passed
    assert any("psd" in f.lower() for f in report.failures)


def test_validate_reports_non_commuting_group():
    lattice = LatticeSpec(3, 3)
    block = tl.build_aklt(2).terms[0].block
    terms = (LocalTerm((0, 1), block), LocalTerm((1, 2), block))
    spec = tl.HamiltonianSpec(lattice, terms, (1, 1), locality_k=2)
    report = tl.validate(spec)
    assert not report.passed
    assert any("commut" in f.lower() for f in report.failures)
    # the same terms in separate groups are fine
    assert tl.validate(tl.HamiltonianSpec(lattice, terms, (1, 2), locality_k=2)).passed


def test_hamiltonian_spec_rejects_bad_labels():
    lattice = LatticeSpec(3, 3)
    block = tl.build_aklt(2).terms[0].block
    terms = (LocalTerm((0, 1), block), LocalTerm((1, 2), block))
    with pytest.raises(ValueError, match="1..Gamma"):
        tl.HamiltonianSpec(lattice, terms, (1, 3), locality_k=2)
    with pytest.raises(ValueError, match="exceeds k"):
        tl.HamiltonianSpec(lattice, terms, (1, 2), locality_k=1)
    with pytest.raises(ValueError, match="at least one term"):
        tl.HamiltonianSpec(lattice, (), (), locality_k=2)


def test_local_term_rejects_bad_input():
    with pytest.raises(ValueError, match="strictly increasing"):
        LocalTerm((1, 0), np.eye(4))
    with pytest.raises(ValueError, match="Hermitian"):
        LocalTerm((0,), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        LocalTerm((0,), np.ones((2, 3)))
    # NaN fails every comparison, so the Hermiticity test alone would pass it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            LocalTerm((0,), np.diag([1.0, bad]))


def test_local_term_block_immutable():
    term = LocalTerm((0,), PAULI_Z)
    with pytest.raises(ValueError):
        term.block[0, 0] = 5.0


def test_dimension_cap(monkeypatch):
    # a lattice is refused only when its dimension reaches 2^64, whatever the
    # memory: what a run allocates is checked where it is allocated
    text = tl.spec_to_json(tl.build_aklt(7))
    monkeypatch.setattr(lattice, "physical_memory", lambda: 16 * 3 ** 12)
    assert LatticeSpec(7, 3).hilbert_dim == 3 ** 7
    assert tl.build_aklt(7).lattice.hilbert_dim == 3 ** 7
    assert tl.spec_from_json(text).lattice.hilbert_dim == 3 ** 7
    assert LatticeSpec(40, 3).hilbert_dim == 3 ** 40 < 2 ** 64
    assert LatticeSpec(63, 2).hilbert_dim == 2 ** 63
    refused = f">= 2\\^64 states need >= 2\\^67 bytes, more than the {16 * 3 ** 12} bytes"
    for sites, local_dim in ((41, 3), (64, 2), (32, 4)):
        with pytest.raises(ValueError, match=refused):
            LatticeSpec(sites, local_dim)


def test_lattice_spec_rejects_tiny():
    with pytest.raises(ValueError):
        LatticeSpec(1, 2)
    with pytest.raises(ValueError):
        LatticeSpec(4, 1)


def test_greedy_partition_chain():
    spec = tl.build_aklt(6)
    labels = greedy_partition(spec.lattice, spec.terms)
    assert labels == (1, 2, 1, 2, 1)
    regrouped = tl.HamiltonianSpec(spec.lattice, spec.terms, labels, locality_k=2)
    assert tl.validate(regrouped).passed


def test_greedy_partition_trio_chain():
    spec = tl.build_mg(7)
    labels = greedy_partition(spec.lattice, spec.terms)
    assert len(set(labels)) == 3
    regrouped = tl.HamiltonianSpec(spec.lattice, spec.terms, labels, locality_k=3)
    assert tl.validate(regrouped).passed


def test_greedy_partition_single_term():
    spec = tl.build_aklt(2)
    assert greedy_partition(spec.lattice, spec.terms) == (1,)


def test_json_round_trip_byte_identical():
    for spec in (tl.build_aklt(3), tl.build_mg(4), tl.build_long_range_heisenberg(3, 2.0)):
        text = tl.spec_to_json(spec)
        again = tl.spec_from_json(text)
        assert tl.spec_to_json(again) == text
        assert again.model_tag == spec.model_tag
        assert again.partition == spec.partition
        assert again.locality_k == spec.locality_k
        for a, b in zip(again.terms, spec.terms):
            assert a.support == b.support
            np.testing.assert_array_equal(a.block, b.block)


def test_json_rejects_empty_terms():
    spec = tl.build_aklt(3)
    text = tl.spec_to_json(spec).replace('"aklt"', '"x"')
    assert tl.spec_from_json(text).model_tag == "x"
    with pytest.raises(ValueError):
        tl.spec_from_json('{"model_tag": "x", "N": 2, "local_dim": 2, "terms": [], "partition": []}')
