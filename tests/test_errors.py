"""Exact error measurements against independent dense oracles.

The block errors are recomputed through the dense propagators and
projectors of ``oracle_dense``, the propagators through
``scipy.linalg.expm``, and the pruned commutator sums against the unpruned
brute-force enumeration of ``oracle_dense``.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import oracle_dense
import trotterlab as tl
from trotterlab import errors, lattice
from trotterlab.errors import LAB_FLOOR_BYTES, lab_bytes, sector_listing
from trotterlab.operators import spin_projector_terms


def test_lab_runs_one_eigh_per_charge_sector(monkeypatch):
    sizes = []
    assembled = []
    real_eigh, real_assemble = errors.block_eigh, errors.assemble

    def counting_eigh(matrix):
        sizes.append(matrix.shape[0])
        return real_eigh(matrix)

    def counting_assemble(spec, rows, columns=None):
        assembled.append(rows.size)
        return real_assemble(spec, rows, columns)

    monkeypatch.setattr(errors, "block_eigh", counting_eigh)
    monkeypatch.setattr(errors, "assemble", counting_assemble)
    lab = tl.ErrorLab(tl.build_aklt(4))
    assert sizes == assembled == []   # a sector builds its spectra on first use
    for sector in lab.sectors:
        sector.spectrum, sector.part_spectra
    # the 9 total-S^z sectors of four spin-1 sites; the flip maps S^z = 0 (19
    # states, one fixed point) to itself, in halves of 10 and 9, and each
    # S^z > 0 onto -S^z, whose spectra it reads
    assert [(s.size, s.sign) for s in lab.sectors] == [
        (1, 0), (4, 0), (10, 0), (16, 0), (10, 1), (9, -1), (16, 0), (10, 0), (4, 0), (1, 0)]
    mirrors = lab.sectors[6:]
    assert [s.image for s in mirrors] == lab.sectors[3::-1]
    assert all(s.spectrum is s.image.spectrum and s.part_spectra is s.image.part_spectra
               for s in mirrors)
    # H and then each group on every other sector; one that is not visited
    # keeps no group from H's pass, so asked for its groups after H it
    # assembles again, and each half assembles only its own rows (the 9
    # pairs, and for + the fixed point) against the 19 states of its sector
    assert sizes == [s.size for s in lab.sectors[:6] for _ in range(3)]
    assert assembled == [1, 1, 4, 4, 10, 10, 16, 16, 10, 9]
    for sector in lab.sectors:   # cached, and the folded groups are freed
        sector.spectrum, sector.part_spectra
        assert sector._parts is None
    assert len(sizes) == 18
    # the lifts of all sectors are an orthonormal basis of the whole space
    lifts = np.hstack([sector.lift(np.eye(sector.size)) for sector in lab.sectors])
    assert np.abs(lifts.T @ lifts - np.eye(81)).max() <= 1e-15
    assert sorted(np.concatenate([sector.rows for sector in lab.sectors if sector.sign >= 0])
                  ) == list(range(81))
    h, parts = oracle_dense.kron_assemble(lab.spec)
    for index, matrix in enumerate((h, *parts)):
        spectra = [(sector.spectrum, *sector.part_spectra)[index] for sector in lab.sectors]
        assert all(np.all(np.diff(sd.eigenvalues) >= 0) for sd in spectra)
        assert np.abs(np.sort(np.concatenate([sd.eigenvalues for sd in spectra]))
                      - np.linalg.eigvalsh(matrix)).max() <= 1e-12
        rebuilt = np.zeros_like(matrix)
        for sector, (w, v) in zip(lab.sectors, spectra):
            assert np.abs(v.T @ v - np.eye(sector.size)).max() <= 1e-12
            u = sector.lift(v)
            assert np.abs(u.T @ matrix @ u - np.diag(w)).max() <= 1e-12
            rebuilt += (u * w) @ u.T
        assert np.abs(rebuilt - matrix).max() <= 1e-12


def test_full_error_against_expm_oracle(lab_cache):
    lab = lab_cache("aklt", 3)
    spec = lab.spec
    h, parts = tl.assemble(spec)
    t = 0.3
    plan = tl.suzuki_plan(1, spec.gamma_count)
    exact = scipy.linalg.expm(-1j * t * h)
    trotter = np.eye(spec.lattice.hilbert_dim, dtype=complex)
    for gamma, alpha in plan.stages:
        trotter = scipy.linalg.expm(-1j * alpha * t * parts[gamma - 1]) @ trotter
    oracle = np.linalg.norm(exact - trotter, 2)
    assert lab.full_error(plan, t) == pytest.approx(oracle, abs=1e-12)


def test_projected_error_against_dense_projector(aklt4):
    plan = tl.suzuki_plan(1, 2)
    t = 0.1
    diff = oracle_dense.difference(aklt4, plan, t)
    for delta in (0.5, 1.0, 2.0):
        dense = oracle_dense.projector(aklt4, delta)
        oracle = np.linalg.norm(diff @ dense, 2)
        assert aklt4.projected_error(plan, t, delta) == pytest.approx(oracle, abs=1e-11)


def test_projected_error_none_and_inf_mean_full(aklt4):
    plan = tl.suzuki_plan(2, 2)
    full = aklt4.full_error(plan, 0.2)
    assert aklt4.projected_error(plan, 0.2, None) == full
    assert aklt4.projected_error(plan, 0.2, math.inf) == full
    assert aklt4.projected_error(plan, 0.2, aklt4.max_energy) == pytest.approx(full, abs=1e-12)


def test_projected_error_below_ground_is_zero(aklt4):
    plan = tl.suzuki_plan(1, 2)
    assert aklt4.projected_error(plan, 0.3, -0.5) == 0.0


def test_complex_block_assembles_complex_and_matches_oracle():
    # one term with a nonzero imaginary part makes the whole lab complex128
    base = tl.build_aklt(3)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    extra = tl.LocalTerm((1, 2), raw @ raw.conj().T / 9)
    spec = tl.HamiltonianSpec(base.lattice, base.terms + (extra,),
                              base.partition + (base.gamma_count + 1,), locality_k=2)
    assert spec.dtype == np.complex128
    hamiltonian, parts = tl.assemble(spec)
    assert hamiltonian.dtype == np.complex128
    assert all(part.dtype == np.complex128 for part in parts)
    lab = tl.ErrorLab(spec)
    assert [sector.spectrum.eigenvectors.dtype for sector in lab.sectors] == [np.complex128]
    deltas = (0.1 * lab.max_energy, 0.4 * lab.max_energy, math.inf)
    for p in (1, 2, 4):
        plan = tl.suzuki_plan(p, spec.gamma_count)
        for steps in (1, 2):
            assert lab.errors(plan, 0.3, deltas, steps) == pytest.approx(
                oracle_dense.errors(lab, plan, 0.3, deltas, steps), rel=0, abs=1e-12)


def test_transitions_built_once_and_empty_block_is_zero():
    lab = tl.ErrorLab(tl.build_mg(5))
    assert spin_projector_terms(lab.spec)
    plan = tl.suzuki_plan(6, lab.spec.gamma_count)
    lab.errors(plan, 0.2, (1.0, math.inf))
    built = [dict(sector.transitions) for sector in lab.sectors]
    # a spin-invariant spec evaluates only the S^z = 1/2 sector (digit sum 2);
    # palindromic plans only step between neighbouring groups
    assert [set(cache) for cache in built] == [set()] * 2 + [{(1, 2), (2, 3)}] + [set()] * 3
    lab.errors(plan, 0.7, (0.5, math.inf), steps=2)
    for sector, cache in zip(lab.sectors, built):
        assert sector.transitions.keys() == cache.keys()
        assert all(sector.transitions[key] is cache[key] for key in cache)
    assert lab.errors(plan, 0.3, (-1.0, -0.5)) == [0.0, 0.0]
    sector = lab.sectors[2]
    empty = tl.apply_plan(plan, sector.part_spectra, 0.3, np.zeros((sector.size, 0)),
                          sector.transitions)
    assert empty.shape == (sector.size, 0)


def doubled(spec):
    """Twice every term: flip-invariant like ``spec``, but not spin-invariant."""
    return tl.HamiltonianSpec(spec.lattice, tuple(tl.LocalTerm(term.support, 2 * term.block)
                                                  for term in spec.terms),
                              spec.partition, locality_k=spec.locality_k)


@pytest.mark.parametrize("n, visited", [
    # N = 5: the flip maps digit sum c to 5 - c, so 3, 4, 5 mirror 2, 1, 0
    (5, [True] * 3 + [False] * 3),
    # N = 6: 3 maps to itself and splits into its two halves
    (6, [True] * 5 + [False] * 3),
])
def test_errors_skip_mirror_sectors(n, visited):
    plan = tl.suzuki_plan(6, 3)
    lab = tl.ErrorLab(doubled(tl.build_mg(n)))
    assert not spin_projector_terms(lab.spec)
    assert [s.sign for s in lab.sectors] == [0] * 3 + [1, -1] * (n % 2 == 0) + [0] * 3
    values = lab.errors(plan, 0.2, (1.0, 3.0, math.inf))
    # palindromic plans only step between neighbouring groups
    assert [set(s.transitions) == {(1, 2), (2, 3)} for s in lab.sectors] == visited
    assert not any(s.transitions for s, seen in zip(lab.sectors, visited) if not seen)
    assert values == pytest.approx(oracle_dense.errors(lab, plan, 0.2, (1.0, 3.0, math.inf)),
                                   rel=0, abs=1e-12)


@pytest.mark.parametrize("spec", [
    # digit sums 3, 4, 5 mirror 2, 1, 0
    doubled(tl.build_mg(5)),
    # N (d - 1) = 7 is odd, so the flip swaps the two parity labels
    tl.build_long_range_heisenberg(7, 2.0),
], ids=["doubled-mg5", "lr7"])
def test_mirror_sectors_read_their_image(spec, monkeypatch):
    assembled, sizes = [], []
    real_eigh, real_assemble = errors.block_eigh, errors.assemble
    monkeypatch.setattr(errors, "block_eigh", lambda m: (sizes.append(len(m)), real_eigh(m))[1])
    monkeypatch.setattr(errors, "assemble", lambda which, rows, columns=None: (
        assembled.append((rows, columns)), real_assemble(which, rows, columns))[1])
    lab = tl.ErrorLab(spec)
    built = [s for s in lab.sectors if s.image is None]
    assert len(built) < len(lab.sectors)
    top = lab.max_energy
    op = tl.embed(spec.terms[0], spec.lattice)
    low = oracle_dense.projector(lab, 0.2 * top)
    high = np.eye(len(op)) - oracle_dense.projector(lab, 0.5 * top)
    assert lab.leakage_norm(op, 0.2 * top, 0.5 * top) == pytest.approx(
        np.linalg.norm(high @ op @ low, 2), rel=0, abs=1e-12)
    for fraction in (0.1, 0.4, 1.0):
        basis = lab.low_column_basis(fraction * top)
        assert np.abs(basis @ basis.conj().T
                      - oracle_dense.projector(lab, fraction * top)).max() <= 1e-12
    # one assembly and one eigh of H per sector that is not a mirror: its own
    # rows against every state of its charge sector
    assert [(rows.tolist(), columns.tolist()) for rows, columns in assembled] == [
        (s.rows[:s.size].tolist(), s.rows.tolist()) for s in built]
    assert sizes == [s.size for s in built]


def test_unvisited_sectors_keep_no_blocks():
    lab = tl.ErrorLab(tl.build_mg(8))
    lab.low_column_basis(1.0)
    # only the visited S^z = 0 halves hold their folded groups, for the sweeps
    assert [s._parts is not None for s in lab.sectors] == [s.visited for s in lab.sectors]
    assert all(len(s._parts) == lab.spec.gamma_count
               and all(part.shape == (s.size, s.size) for part in s._parts)
               for s in lab.sectors if s.visited)
    h, parts = oracle_dense.kron_assemble(lab.spec)
    for sector in lab.sectors:
        for matrix, (w, v) in zip((h, *parts), (sector.spectrum, *sector.part_spectra)):
            u = sector.lift(v)
            assert np.abs(u.T @ matrix @ u - np.diag(w)).max() <= 1e-12
    assert all(s._parts is None for s in lab.sectors)


def test_visited_half_asked_for_its_groups_first_assembles_once(monkeypatch):
    # H's pass runs first, so its folded groups are the ones the group spectra take
    assembled = []
    real_assemble = errors.assemble
    monkeypatch.setattr(errors, "assemble", lambda which, rows, columns=None: (
        assembled.append(rows.size), real_assemble(which, rows, columns))[1])
    lab = tl.ErrorLab(tl.build_mg(6))
    visited = [s for s in lab.sectors if s.visited]
    assert [(s.size, s.sign) for s in visited] == [(10, 1), (10, -1)]
    for sector in visited:
        sector.part_spectra, sector.spectrum
        assert sector._parts is None
    assert assembled == [10, 10]
    plan = tl.suzuki_plan(2, lab.spec.gamma_count)
    assert lab.full_error(plan, 0.3) == tl.ErrorLab(lab.spec).full_error(plan, 0.3)


@pytest.mark.parametrize("n", [5, 6])
def test_long_range_projected_commutator_sums_below_their_caps(n):
    # lr's ground energy is far above 0 (3.94 at N=5), so the cutoffs sit above it
    lab = tl.ErrorLab(tl.build_long_range_heisenberg(n, 2.0))
    spec = lab.spec
    g = tl.extensiveness(spec)
    ground = min(float(s.spectrum.eigenvalues[0]) for s in lab.sectors)
    deltas = [ground + 0.5, ground + 1.0, ground + 2.0]
    bases = [lab.low_column_basis(delta) for delta in deltas]
    assert all(basis.shape[1] >= 1 for basis in bases)
    for depth in (1, 2):
        sums = tl.nested_commutator_sum(spec, depth, bases)
        caps = [tl.projected_commutator_bound(depth, spec.locality_k, g, delta)
                for delta in deltas]
        assert all(value < cap for value, cap in zip(sums, caps))
        assert max(sums) > 0.0


def complex_flip_spec():
    """AKLT N=4 plus a complex qutrit pair term that conserves the digit sum and
    equals its index reversal exactly, so the middle sector folds into halves."""
    base = tl.build_aklt(4)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    charge = np.add.outer(np.arange(3), np.arange(3)).ravel()
    raw[charge[:, None] != charge] = 0
    block = raw @ raw.conj().T / 9
    extra = tl.LocalTerm((1, 3), (block + block[::-1, ::-1]) / 2)
    spec = tl.HamiltonianSpec(base.lattice, base.terms + (extra,),
                              base.partition + (base.gamma_count + 1,), locality_k=2)
    assert spec.dtype == np.complex128
    return spec


@pytest.mark.parametrize("spec, halves", [
    (tl.build_aklt(4), 2), (tl.build_aklt(5), 2), (tl.build_mg(6), 2),
    (tl.build_mg(7), 0),   # the flip maps digit sum c to 7 - c: mirrors, no halves
    (tl.build_long_range_heisenberg(6, 2.0), 4), (complex_flip_spec(), 2),
], ids=["aklt4", "aklt5", "mg6", "mg7", "lr6", "complex-flip"])
def test_sector_blocks_are_the_fold_of_the_dense_assembly(spec, halves, monkeypatch):
    # the matrices that reach block_eigh, from each sector's own rows against its
    # charge sector, equal bit for bit the reference fold of the whole dense
    # sector block: the same entries, added in the same order
    taken = []
    real_eigh = errors.block_eigh
    monkeypatch.setattr(errors, "block_eigh",
                        lambda m: (taken.append(m.copy()), real_eigh(m))[1])
    lab = tl.ErrorLab(spec)
    built = [s for s in lab.sectors if s.image is None]
    assert sum(s.sign != 0 for s in built) == halves
    for sector in built:
        sector.spectrum, sector.part_spectra
    h, parts = oracle_dense.kron_assemble(spec)
    expected = [oracle_dense.fold(matrix[np.ix_(s.rows, s.rows)], s.sign)
                for s in built for matrix in (h, *parts)]
    assert len(taken) == len(expected)
    assert all(a.dtype == spec.dtype and np.array_equal(a, b) for a, b in zip(taken, expected))


def test_block_eigh_stacks_blocks_of_one_size(monkeypatch):
    # blocks {0, 3}, {2, 4, 5}, {6, 7} and every other state alone: the two
    # pairs go to eigh as one stack, each on its ascending states
    n = errors.BLOCK_EIGH_MIN
    matrix = np.diag(np.arange(float(n)))
    for a, b in ((3, 0), (4, 2), (5, 4), (7, 6)):
        matrix[a, b] = matrix[b, a] = 0.5
    taken = []
    real_eigh = errors.eigh
    monkeypatch.setattr(errors, "eigh", lambda m: (taken.append(m), real_eigh(m))[1])
    values, vectors = errors.block_eigh(matrix)
    assert [m.shape for m in taken] == [(n - 7, 1, 1), (2, 2, 2), (1, 3, 3)]
    assert np.array_equal(taken[1], [matrix[np.ix_(s, s)] for s in ([0, 3], [6, 7])])
    assert np.array_equal(taken[2][0], matrix[np.ix_([2, 4, 5], [2, 4, 5])])
    assert np.abs(values - np.linalg.eigvalsh(matrix)).max() <= 1e-13
    assert np.abs((vectors * values) @ vectors.T - matrix).max() <= 1e-13
    # a matrix of one block, or of fewer states, goes to eigh as itself
    for k in range(n - 1):
        matrix[k + 1, k] = matrix[k, k + 1] = 1.0
    for whole in (matrix, np.diag(np.arange(n - 1.0))):
        taken.clear()
        assert np.array_equal(errors.block_eigh(whole).eigenvalues, real_eigh(whole).eigenvalues)
        assert len(taken) == 1 and taken[0] is whole


def test_errors_skip_sectors_without_columns():
    # lr N=6: the ground state lies in one parity half; the other halves have
    # no column at or below it and take neither group spectra nor apply_plan
    lab = tl.ErrorLab(tl.build_long_range_heisenberg(6, 2.0))
    assert [s.sign for s in lab.sectors] == [1, -1, 1, -1]
    ground = min(float(s.spectrum.eigenvalues[0]) for s in lab.sectors)
    plan = tl.suzuki_plan(2, lab.spec.gamma_count)
    assert lab.errors(plan, 0.3, (ground,)) == pytest.approx(
        oracle_dense.errors(lab, plan, 0.3, (ground,)), rel=0, abs=1e-12)
    built = ["part_spectra" in vars(s) for s in lab.sectors]
    assert built.count(True) == 1
    assert [bool(s.transitions) for s in lab.sectors] == built


def test_projected_monotone_in_delta_and_below_full(aklt4):
    plan = tl.suzuki_plan(1, 2)
    t = 0.1
    full = aklt4.full_error(plan, t)
    previous = 0.0
    for delta in (0.25, 0.5, 1.0, 2.0, 4.0):
        value = aklt4.projected_error(plan, t, delta)
        assert value >= previous - 1e-12
        assert value <= full + 1e-12
        previous = value


def test_errors_one_difference_per_cutoff_list(lab_cache):
    lab = lab_cache("mg", 4)
    plan = tl.suzuki_plan(1, lab.spec.gamma_count)
    diff = oracle_dense.difference(lab, plan, 0.2)
    values = lab.errors(plan, 0.2, (math.inf, 0.5, 1.0))
    # the single-cutoff calls use a narrower block, so only the last bits may differ
    assert values == pytest.approx([lab.full_error(plan, 0.2),
                                    lab.projected_error(plan, 0.2, 0.5),
                                    lab.projected_error(plan, 0.2, 1.0)], abs=1e-14)
    assert values[0] == pytest.approx(tl.spectral_norm(diff), abs=1e-12)
    assert values[1] == pytest.approx(
        tl.spectral_norm(diff @ lab.low_column_basis(0.5)), abs=1e-12)


def test_stepped_error_single_step_matches(aklt4):
    plan = tl.suzuki_plan(1, 2)
    assert aklt4.stepped_error(plan, 0.3, 1) == pytest.approx(
        aklt4.full_error(plan, 0.3), abs=1e-12)
    assert aklt4.stepped_error(plan, 0.3, 1, 1.0) == pytest.approx(
        aklt4.projected_error(plan, 0.3, 1.0), abs=1e-12)


def test_stepped_error_accumulation(aklt4):
    plan = tl.suzuki_plan(2, 2)
    t = 0.5
    for steps in (1, 2, 4, 8):
        chained = aklt4.stepped_error(plan, t, steps, 1.0)
        assert chained <= steps * aklt4.projected_error(plan, t / steps, 1.0) + 1e-9


def test_leakage_norm_dual_route(aklt4):
    op = tl.embed(aklt4.spec.terms[1], aklt4.spec.lattice)
    delta, delta_prime = 0.5, 3.0
    measured = aklt4.leakage_norm(op, delta, delta_prime)
    low = oracle_dense.projector(aklt4, delta)
    high = np.eye(op.shape[0]) - oracle_dense.projector(aklt4, delta_prime)
    oracle = np.linalg.norm(high @ op @ low, 2)
    assert measured == pytest.approx(oracle, abs=1e-11)
    with pytest.raises(ValueError, match="exceed"):
        aklt4.leakage_norm(op, 1.0, 0.5)


def test_leakage_identity_and_high_cutoff(aklt4):
    assert aklt4.leakage_norm(np.eye(81), 0.5, 1.5) == pytest.approx(0.0, abs=1e-12)
    op = tl.embed(aklt4.spec.terms[0], aklt4.spec.lattice)
    assert aklt4.leakage_norm(op, 0.5, aklt4.max_energy + 1.0) == 0.0


def test_excitation_tail_bound_formula():
    value = tl.excitation_tail_bound(1.25, 2, 2, 2.0, 0.5, 14.0)
    oracle = 1.25 * math.exp(-(14.0 - 0.5 - 3 * 2.0 * 2) / (4 * 2 * 2.0))
    assert value == pytest.approx(oracle, rel=1e-14)


def test_leakage_below_tail_bound(lab_cache):
    lab = lab_cache("aklt", 5)
    spec = lab.spec
    g = tl.extensiveness(spec)
    for term in spec.terms:
        op = tl.embed(term, spec.lattice)
        size = len(term.support)
        for shift in (0.0, 2.0, 5.0):
            delta = 0.5
            delta_prime = delta + 3 * g * size + shift
            measured = lab.leakage_norm(op, delta, delta_prime)
            cap = tl.excitation_tail_bound(term.norm, size, spec.locality_k, g,
                                           delta, delta_prime)
            assert measured <= cap + 1e-12


def test_nested_commutator_sum_matches_brute_force(aklt4, mg4):
    for lab in (aklt4, mg4):
        spec = lab.spec
        for depth in (1, 2):
            pruned = tl.nested_commutator_sum(spec, depth)
            brute = oracle_dense.commutator_sum(spec, depth)
            assert pruned == pytest.approx(brute, abs=1e-10)
        pruned = tl.nested_commutator_sum(spec, 2, lab.low_column_basis(1.0))
        brute = oracle_dense.commutator_sum(spec, 2, oracle_dense.projector(lab, 1.0))
        assert pruned == pytest.approx(brute, abs=1e-10)


def test_nested_commutator_sum_zero_for_commuting():
    z = np.diag([1.0, -1.0]).astype(complex)
    bond = (np.kron(z, z) + np.eye(4)) / 2
    terms = tuple(tl.LocalTerm((i, i + 1), bond) for i in range(3))
    spec = tl.HamiltonianSpec(tl.LatticeSpec(4, 2), terms, (1, 1, 1),
                              locality_k=2, model_tag="ising_zz")
    assert tl.nested_commutator_sum(spec, 1) == pytest.approx(0.0, abs=1e-12)


def test_commuting_chain_walk_prunes_every_commutator(monkeypatch):
    """Diagonal bonds commute bit for bit, so every [h_1, h_0] is exactly 0 and
    is dropped as it is made: the depth-2 walk takes no norm at all."""
    bond = (np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) + np.eye(4)) / 2
    terms = tuple(tl.LocalTerm((i, i + 1), bond) for i in range(4))
    spec = tl.HamiltonianSpec(tl.LatticeSpec(5, 2), terms, (1, 2, 1, 2), locality_k=2)

    def no_norm(*args, **kwargs):
        raise AssertionError("the walk took a norm")

    monkeypatch.setattr(errors, "_matrix_norm", no_norm)
    assert tl.nested_commutator_sum(spec, 2) == 0.0
    assert tl.nested_commutator_sum(spec, 2, [None, np.eye(32)[:, :3]]) == [0.0, 0.0]


def test_nested_commutator_sum_skips_empty_block(aklt4, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("a term was embedded for an empty block")

    monkeypatch.setattr(errors, "lift_block", no_embedding)
    assert tl.nested_commutator_sum(aklt4.spec, 2, aklt4.low_column_basis(-1.0)) == 0.0
    assert tl.nested_commutator_sum(aklt4.spec, 2, [np.zeros((81, 0))] * 2) == [0.0, 0.0]


@pytest.mark.parametrize("shape", [(81,), (81, 1, 1), (80, 2), ()])
def test_nested_commutator_sum_refuses_a_basis_that_is_not_a_column_block(aklt4, shape):
    # alone, in a tuple of bases, and as a list entry that is not an array
    for basis in (np.zeros(shape), (None, np.zeros(shape)), [np.zeros(shape).tolist()]):
        with pytest.raises(ValueError, match="basis must be a 81 x m block"):
            tl.nested_commutator_sum(aklt4.spec, 1, basis)


def test_nested_commutator_depth_limits(aklt4):
    with pytest.raises(ValueError, match="depth"):
        tl.nested_commutator_sum(aklt4.spec, 0)
    with pytest.raises(ValueError, match="depth"):
        tl.nested_commutator_sum(aklt4.spec, 4)


def test_commutator_sums_below_analytic_caps(aklt4, mg4):
    for lab in (aklt4, mg4):
        spec = lab.spec
        g = tl.extensiveness(spec)
        n = spec.lattice.num_sites
        for depth in (1, 2):
            unrestricted = tl.nested_commutator_sum(spec, depth)
            assert unrestricted <= tl.unrestricted_commutator_bound(
                depth, spec.locality_k, g, n)
            for delta in (0.5, 1.0):
                projected = tl.nested_commutator_sum(spec, depth,
                                                     lab.low_column_basis(delta))
                assert projected <= tl.projected_commutator_bound(
                    depth, spec.locality_k, g, delta)


def test_expectation_sum_ground_state(aklt4):
    ground = oracle_dense.dense_spectra(aklt4.spec)[0].eigenvectors[:, 0]
    value = tl.low_energy_expectation_sum(aklt4, 1, ground, 0.0)
    assert type(value) is float
    assert tl.projected_commutator_bound(1, aklt4.spec.locality_k,
                                         tl.extensiveness(aklt4.spec), 0.0) == 0.0
    assert value <= 1e-9


def test_expectation_sum_random_low_state(aklt4):
    rng = np.random.default_rng(3)
    k, g = aklt4.spec.locality_k, tl.extensiveness(aklt4.spec)
    for depth in (0, 1, 2):
        psi = aklt4.random_subspace_state(1.0, rng)
        value = tl.low_energy_expectation_sum(aklt4, depth, psi, 1.0)
        bound = tl.projected_commutator_bound(depth, k, g, 1.0)
        assert bound == pytest.approx(math.factorial(depth) * (2 * k * g) ** depth, rel=1e-12)
        assert value <= bound + 1e-9


def test_expectation_sum_depth_one_frozen_bound(aklt4):
    # k = 2, g = 2, delta = 1 -> 1! * (2*2*2)^1 * 1 = 8
    rng = np.random.default_rng(4)
    psi = aklt4.random_subspace_state(1.0, rng)
    value = tl.low_energy_expectation_sum(aklt4, 1, psi, 1.0)
    bound = tl.projected_commutator_bound(1, aklt4.spec.locality_k,
                                          tl.extensiveness(aklt4.spec), 1.0)
    # g carries ~1e-15 eigensolver noise, so the frozen value is approximate
    assert bound == pytest.approx(8.0, rel=1e-12)
    assert value <= bound


def test_expectation_sum_rejects_leaky_state(aklt4):
    vectors = oracle_dense.dense_spectra(aklt4.spec)[0].eigenvectors
    with pytest.raises(ValueError, match="subspace"):
        tl.low_energy_expectation_sum(aklt4, 1, vectors[:, -1], 0.5)
    with pytest.raises(ValueError, match="normalized"):
        tl.low_energy_expectation_sum(aklt4, 1, 2.0 * vectors[:, 0], 0.5)


def test_random_subspace_state_properties(aklt4):
    rng = np.random.default_rng(5)
    psi = aklt4.random_subspace_state(1.0, rng)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    proj = oracle_dense.projector(aklt4, 1.0)
    assert np.linalg.norm(proj @ psi - psi) < 1e-12
    again = aklt4.random_subspace_state(1.0, np.random.default_rng(5))
    np.testing.assert_allclose(again, psi, atol=1e-14)


def test_random_subspace_state_depends_only_on_the_subspace(lab_cache):
    # the state is P g / ||P g|| for the Gaussian g the seed draws, whatever
    # eigenvectors span the subspace and whatever order their columns take
    for lab in (lab_cache("aklt", 4), lab_cache("lr_heisenberg", 5, decay_exponent=2.0)):
        dim = lab.spec.lattice.hilbert_dim
        draws = np.random.default_rng(11)
        g = draws.standard_normal(dim) + 1j * draws.standard_normal(dim)
        energies = oracle_dense.dense_spectra(lab.spec)[0].eigenvalues
        delta = energies[0] + 0.3 * (energies[-1] - energies[0])
        oracle = oracle_dense.projector(lab, delta) @ g
        psi = lab.random_subspace_state(delta, np.random.default_rng(11))
        np.testing.assert_allclose(psi, oracle / np.linalg.norm(oracle), rtol=0, atol=1e-12)


def test_low_column_basis_spans_the_low_energy_subspace(lab_cache):
    # AKLT conserves the digit sum (U(1)), lr only its parity
    for lab in (lab_cache("aklt", 4), lab_cache("lr_heisenberg", 5, decay_exponent=2.0)):
        energies = oracle_dense.dense_spectra(lab.spec)[0].eigenvalues
        for fraction in (-0.1, 0.0, 0.1, 0.3, math.inf):
            delta = energies[0] + fraction * (energies[-1] - energies[0])
            basis = lab.low_column_basis(delta)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                                       rtol=0, atol=1e-12)
            oracle = (np.eye(lab.spec.lattice.hilbert_dim) if math.isinf(delta)
                      else oracle_dense.projector(lab, delta))
            np.testing.assert_allclose(basis @ basis.conj().T, oracle, rtol=0, atol=1e-12)


# ----------------------------------------------------- memory admission

def test_lab_bytes_counts_the_listing():
    # s (the largest assembly, Gamma + 1 blocks of n^2 for a whole sector of n
    # states or of size n + size^2 for a half + H's eigenvectors on every sector
    # but the mirrors + (Gamma + Gamma (Gamma - 1)/2) blocks per visited sector)
    # + 16 * 4 (the largest visited sector)^2 + the floor.
    # AKLT N=4: total-S^z sectors of 1, 4, 10, 16, 19, 16, 10, 4, 1 states; 19
    # splits into halves of 10 and 9, the only sector visited (Gamma = 2), and
    # the last four mirror the first four
    aklt = tl.build_aklt(4)
    listing = sector_listing(aklt)
    assert [(s.rows.size, s.sign, s.size, s.visited, s.image is not None) for s in listing] == [
        (1, 0, 1, False, False), (4, 0, 4, False, False), (10, 0, 10, False, False),
        (16, 0, 16, False, False), (19, 1, 10, True, False), (19, -1, 9, True, False),
        (16, 0, 16, False, True), (10, 0, 10, False, True), (4, 0, 4, False, True),
        (1, 0, 1, False, True)]
    halves = 10 ** 2 + 9 ** 2
    # the + half's 10 x 19 rows and 10 x 10 fold outweigh the 16 x 16 sector
    assert lab_bytes(aklt, listing) == LAB_FLOOR_BYTES + 8 * (
        3 * (10 * 19 + 10 ** 2) + (1 + 4 ** 2 + 10 ** 2 + 16 ** 2) + halves
        + 3 * halves) + 16 * 4 * 10 ** 2
    # MG N=6 (Gamma = 3): sectors of 1, 6, 15, 20, 15, 6, 1 states, 20 in halves of 10
    mg = tl.build_mg(6)
    halves = 2 * 10 ** 2
    assert lab_bytes(mg, sector_listing(mg)) == LAB_FLOOR_BYTES + 8 * (
        4 * (10 * 20 + 10 ** 2) + (1 + 6 ** 2 + 15 ** 2) + halves
        + 6 * halves) + 16 * 4 * 10 ** 2
    # a complex spec that conserves only the parity and is not flip-invariant:
    # two whole sectors of 4 states, both visited, 16 bytes per entry
    y_term = tl.LocalTerm((0, 1), np.kron(lattice.PAULI_Y, lattice.PAULI_Y) + np.eye(4))
    complex_term = tl.LocalTerm((1, 2), np.kron(lattice.PAULI_X, lattice.PAULI_Y) + np.eye(4))
    complex_spec = tl.HamiltonianSpec(tl.LatticeSpec(3, 2), (y_term, complex_term),
                                      (1, 2), 2)
    assert complex_spec.dtype == np.complex128
    listing = sector_listing(complex_spec)
    assert [(s.rows.size, s.sign, s.visited, s.image) for s in listing] == [(4, 0, True, None)] * 2
    assert lab_bytes(complex_spec, listing) == LAB_FLOOR_BYTES + 16 * (
        3 * 4 ** 2 + 2 * 4 ** 2 + 3 * 2 * 4 ** 2) + 16 * 4 * 4 ** 2


def test_error_lab_refuses_before_assembly(monkeypatch):
    spec = tl.build_aklt(4)
    need = lab_bytes(spec, sector_listing(spec))

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the memory check")

    monkeypatch.setattr(errors, "assemble", no_assembly)
    monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes, more than the {need - 1}"):
        tl.ErrorLab(spec)
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "physical_memory", lambda: need)
    assert sum(sector.size for sector in tl.ErrorLab(spec).sectors) == 81


def test_dense_assembly_refused_where_the_sector_lab_fits(monkeypatch):
    # AKLT N=7 (dim 2187): H and two groups on every basis state need
    # 3 * 8 * 2187^2 bytes, one embedded term 16 * 2187^2, and the lab far less
    spec = tl.build_aklt(7)
    need = lab_bytes(spec, sector_listing(spec))
    assert need < 16 * 2187 ** 2
    monkeypatch.setattr(lattice, "physical_memory", lambda: need)
    with pytest.raises(ValueError, match=f"needs {3 * 8 * 2187 ** 2} bytes, more than the {need}"):
        tl.assemble(spec)
    with pytest.raises(ValueError, match=f"needs {16 * 2187 ** 2} bytes, more than the {need}"):
        tl.embed(spec.terms[0], spec.lattice)
    lab = tl.ErrorLab(spec)
    assert lab.errors(tl.suzuki_plan(2, 2), 0.1, (1.0,))[0] > 0


RSS_PROBE = r"""
import sys
from trotterlab import cli
from trotterlab.errors import lab_bytes, sector_listing

def peak_rss():
    with open("/proc/self/status") as status:
        return next(1024 * int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

config = cli.parse_sweep_config(sys.argv[1])
before = peak_rss()
cli.run_sweep(config)
rise = peak_rss() - before
spec = cli._build_model(config.model, config.n_list[0], config.nu, config.j0)
print(rise, lab_bytes(spec, sector_listing(spec)))
"""
# one chain size each, with and without a full error (inf)
RSS_CONFIGS = ["model = mg\nn = 9\np = 4\nt = 0.1\ndelta = 1.0, inf"] + [
    f"model = {model}\nn = {n}\np = 4\nt = 0.1\ndelta = {deltas}"
    for model, n, low in (("mg", 12, 1.0), ("aklt", 8, 1.0), ("lr_heisenberg", 10, 12.0))
    for deltas in (low, f"{low}, inf")]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_lab_bytes_covers_measured_peak():
    # A fresh process per config, so the peak RSS rise is its sweep's alone, and
    # the estimate stays 5% above it.  VmHWM is the ru_maxrss of the process's
    # own address space: ru_maxrss itself starts at the parent's peak in a child
    # started from a large process.
    for config in RSS_CONFIGS:
        rise, estimate = map(int, fresh_python(RSS_PROBE, config).split())
        assert 0 < 1.05 * rise <= estimate, config


def fresh_python(code: str, arg: str) -> str:
    """Stdout of ``code`` run with ``arg`` in a new interpreter that imports this trotterlab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(tl.__file__)), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, arg], capture_output=True,
                          text=True, check=True, env=env, timeout=120).stdout


MODULE_PROBE = r"""
import sys
from trotterlab import cli, verify
cli.run_sweep(cli.parse_sweep_config(sys.argv[1]))
verify.run_verify(0)
print("numpy.ma" in sys.modules)
"""


def test_sweep_and_verify_leave_numpy_ma_unimported():
    # numpy.ma (which np.unique imports, among others) adds about 1.3 MB to the
    # peak RSS of every run; this session has imported it, hence a new process.
    # lr N=10 splits its sector matrices into many blocks, verify covers every model
    config = "model = lr_heisenberg\nn = 10\np = 2\nt = 0.1\ndelta = inf"
    assert fresh_python(MODULE_PROBE, config).split() == ["False"]
