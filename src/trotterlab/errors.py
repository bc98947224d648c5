"""Exact Trotter errors, optionally restricted to low-energy subspaces.

The central quantity is the spectral norm of (exp(-iHt) - T_p(t)) P, where
P projects onto eigenstates with energy at most delta.  It depends only on
the block V of those eigenvectors, since exp(-iHt) V = V exp(-iEt): the
error is ||V exp(-iEt) - T_p(t) V||, and with every column it is the full
norm, as V is then unitary.  Every term conserves the charge of
``conserved_charge``, so H and each group Hamiltonian are block diagonal on
its sectors: ``ErrorLab`` diagonalizes them with one ``eigh`` per sector
and scatters the sector eigenvectors into dense dim x dim columns.  Sweeps
over (p, t, delta) then only pay for phases and transitions on the block
and norms.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh

from .formulas import FormulaPlan, apply_plan
from .lattice import COMPLEX_BYTES, HamiltonianSpec, extensiveness, require_memory
from .operators import (Spectrum, _matrix_norm, assemble, conserved_charge, embed,
                        low_energy_mask)

SUBSPACE_TOL = 1e-10
MAX_COMMUTATOR_DEPTH = 3
# complex dim x dim blocks of a full error (the difference, the Trotter side,
# the Gram matrix and its eigvalsh copy): the smallest count that keeps
# lab_bytes 5% above every measured peak RSS rise (AKLT N=6, 7; MG N=9, 10,
# 11; lr N=9, 10; p = 1 to 6; cutoffs 1.0 and inf).
LAB_COMPLEX_BLOCKS = 4


def lab_bytes(spec: HamiltonianSpec) -> int:
    """Peak bytes of an ``ErrorLab``: dim^2 (s (2 Gamma + Gamma (Gamma - 1)/2 + 2) + 16 B).

    s is the itemsize of ``spec.dtype`` (8 when every term is real, else 16).
    It counts H and its eigenvectors, the Gamma group Hamiltonians and their
    eigenvectors, and the transitions between group eigenbases; B =
    ``LAB_COMPLEX_BLOCKS`` complex blocks hold a full error's working set.
    """
    gamma = spec.gamma_count
    matrices = 2 * gamma + gamma * (gamma - 1) // 2 + 2
    entries = spec.lattice.hilbert_dim ** 2
    return entries * (spec.dtype.itemsize * matrices + COMPLEX_BYTES * LAB_COMPLEX_BLOCKS)


def _sector_spectrum(matrix: np.ndarray, sectors: list[np.ndarray],
                     ascending: bool) -> Spectrum:
    """Spectrum of a matrix that is block diagonal on ``sectors``, one ``eigh`` per sector.

    Each sector's eigenvectors go straight into their dense columns, zero
    off the sector's rows.  With ``ascending`` the eigenvalues are stably
    sorted, ties in sector order; otherwise the columns follow the sectors
    and each sector's ``eigh`` result is dropped once it is written.
    """
    dim = matrix.shape[0]
    vectors = np.zeros_like(matrix)
    parts = (eigh(matrix[np.ix_(rows, rows)]) for rows in sectors)
    if ascending:   # every eigenvalue is needed before the first column is known
        parts = list(parts)
        values = np.concatenate([part.eigenvalues for part in parts])
        order = np.argsort(values, kind="stable")
    else:
        values, order = np.empty(dim), np.arange(dim)
    columns = np.argsort(order)   # where each sector eigenpair lands
    start = 0
    for rows, part in zip(sectors, parts):
        stop = start + rows.size
        values[start:stop] = part.eigenvalues
        vectors[np.ix_(rows, columns[start:stop])] = part.eigenvectors
        start = stop
    return Spectrum(values[order], vectors)


class ErrorLab:
    """Spectra cache plus error evaluators for one Hamiltonian spec.

    Keeps H, the spectra of H (eigenvalues ascending) and of each group's
    partial Hamiltonian (in sector order), and the transitions between
    group eigenbases that ``apply_plan`` builds (at most Gamma (Gamma - 1)/2,
    each once); the partial Hamiltonians themselves are dropped.  Every
    spectrum is dense, dim x dim eigenvectors, built with one ``eigh`` per
    charge sector.  Everything is float64 when every term block is real,
    complex128 otherwise.
    """

    def __init__(self, spec: HamiltonianSpec):
        require_memory(lab_bytes(spec),
                       f"ErrorLab on {spec.model_tag} N={spec.lattice.num_sites}")
        self.spec = spec
        self.hamiltonian, parts = assemble(spec)
        charge = conserved_charge(spec)
        # every label from 0 to the largest occurs; np.unique would import numpy.ma
        sectors = [np.flatnonzero(charge == label) for label in range(charge.max() + 1)]
        self.spectrum = _sector_spectrum(self.hamiltonian, sectors, ascending=True)
        self.part_spectra = tuple(_sector_spectrum(p, sectors, ascending=False)
                                  for p in parts)
        self.transitions: dict[tuple[int, int], np.ndarray] = {}

    @property
    def max_energy(self) -> float:
        return float(self.spectrum.eigenvalues[-1])

    def _column_count(self, delta: float | None) -> int:
        """Number of eigenvalues <= delta (ties included); None means all."""
        if delta is None:
            return self.spectrum.eigenvalues.size
        return int(np.count_nonzero(low_energy_mask(self.spectrum.eigenvalues, delta)))

    def low_column_basis(self, delta: float | None) -> np.ndarray:
        """Eigenvector columns with eigenvalue <= delta: a prefix, as eigenvalues ascend."""
        return self.spectrum.eigenvectors[:, :self._column_count(delta)]

    def errors(self, plan: FormulaPlan, t: float,
               deltas: list[float] | tuple[float, ...], steps: int = 1) -> list[float]:
        """Norms of (exp(-iHt) - T_p(t/steps)**steps) P_delta, one per cutoff.

        Each cutoff takes its column prefix of one difference on the widest
        block; None or inf means every column, the full norm.
        """
        if steps < 1:
            raise ValueError("need at least one step")
        counts = [self._column_count(delta) for delta in deltas]
        block = self.spectrum.eigenvectors[:, :max(counts, default=0)]
        diff = block * np.exp(-1j * t * self.spectrum.eigenvalues[:block.shape[1]])
        # the plan repeated steps times at t/steps
        stepped = FormulaPlan(plan.order_p, plan.gamma_count, plan.stages * steps)
        diff -= apply_plan(stepped, self.part_spectra, t / steps, block, self.transitions)
        return [_matrix_norm(diff[:, :m]) for m in counts]

    def full_error(self, plan: FormulaPlan, t: float) -> float:
        return self.errors(plan, t, (None,))[0]

    def projected_error(self, plan: FormulaPlan, t: float, delta: float | None) -> float:
        return self.errors(plan, t, (delta,))[0]

    def stepped_error(self, plan: FormulaPlan, t: float, steps: int,
                      delta: float | None = None) -> float:
        return self.errors(plan, t, (delta,), steps)[0]

    def leakage_norm(self, op: np.ndarray, delta: float, delta_prime: float) -> float:
        """Norm of P_above(delta_prime) O P_below(delta)."""
        if delta_prime <= delta:
            raise ValueError("delta_prime must exceed delta")
        if op.shape != self.hamiltonian.shape:
            raise ValueError("operator dimension does not match the lab")
        high = self.spectrum.eigenvectors[:, self._column_count(delta_prime):]
        low = self.low_column_basis(delta)
        return _matrix_norm(high.conj().T @ op @ low)

    def random_subspace_state(self, delta: float, rng: np.random.Generator) -> np.ndarray:
        """Haar-ish random unit state inside the low-energy subspace."""
        basis = self.low_column_basis(delta)
        if basis.shape[1] == 0:
            raise ValueError(f"no eigenstates at or below {delta}")
        coeff = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        psi = basis @ coeff
        return psi / np.linalg.norm(psi)


def excitation_tail_bound(op_norm: float, support_size: int, locality: int,
                          extensiveness_g: float, delta: float, delta_prime: float) -> float:
    """Analytic cap on the leakage norm of a local term:

    ||O|| * exp(-(delta_prime - delta - 3 g |X|) / (4 k g)).
    """
    gap = delta_prime - delta - 3.0 * extensiveness_g * support_size
    return op_norm * math.exp(-gap / (4.0 * locality * extensiveness_g))


def _tuple_walk(spec: HamiltonianSpec, depth: int, leaf) -> None:
    """Depth-first walk over tuples of embedded terms whose supports chain-overlap.

    A nested commutator [h_q, ..., [h_1, h_0]] vanishes identically unless
    each new support intersects the union of the previous ones, so disjoint
    branches are pruned exactly.
    """
    embedded = [embed(term, spec.lattice) for term in spec.terms]
    supports = [set(term.support) for term in spec.terms]
    for matrix, support in zip(embedded, supports):
        _descend(embedded, supports, depth, leaf, matrix, support)


def _descend(embedded, supports, levels: int, leaf, current: np.ndarray, union: set) -> None:
    """Hand ``leaf`` every commutator of ``levels`` more overlapping terms with ``current``.

    Not a closure: a nested function that calls itself forms a reference
    cycle, which would keep every embedded term alive until the cyclic
    garbage collector runs.
    """
    if levels == 0:
        leaf(current)
        return
    for matrix, support in zip(embedded, supports):
        if support & union:
            _descend(embedded, supports, levels - 1, leaf,
                     matrix @ current - current @ matrix, union | support)


def nested_commutator_sum(spec: HamiltonianSpec, depth: int,
                          basis: np.ndarray | None = None) -> float:
    """Sum over term tuples of the nested-commutator norm, optionally projected.

    With an orthonormal block V (``ErrorLab.low_column_basis``) the summand
    is ||V^dag [h_q, ..., [h_1, h_0]] V||, which equals ||P C P|| for the
    projector P = V V^dag; depth is the number of commutators (1..3).
    """
    if not 1 <= depth <= MAX_COMMUTATOR_DEPTH:
        raise ValueError(f"depth must be 1..{MAX_COMMUTATOR_DEPTH}, got {depth}")
    dim = spec.lattice.hilbert_dim
    if basis is not None and basis.shape[0] != dim:
        raise ValueError("basis dimension does not match the spec")
    if basis is not None and basis.shape[1] == 0:
        return 0.0  # every projected leaf is a 0 x 0 block
    total = 0.0

    def leaf(matrix: np.ndarray) -> None:
        nonlocal total
        if basis is not None:
            matrix = basis.conj().T @ matrix @ basis
        total += _matrix_norm(matrix)

    _tuple_walk(spec, depth, leaf)
    return total


def low_energy_expectation_sum(lab: ErrorLab, depth: int, psi: np.ndarray,
                               delta: float) -> tuple[float, float]:
    """Summed absolute expectations of nested commutators in a low-energy state.

    Returns (value, bound) with bound = depth! * (2kg)**depth * delta; psi
    must be a unit vector supported on energies at most delta.  Depth 0 sums
    the bare term expectations.
    """
    if not 0 <= depth <= MAX_COMMUTATOR_DEPTH:
        raise ValueError(f"depth must be 0..{MAX_COMMUTATOR_DEPTH}, got {depth}")
    spec = lab.spec
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != spec.lattice.hilbert_dim:
        raise ValueError("state dimension does not match the spec")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    low = lab.low_column_basis(delta)
    residual = psi - low @ (low.conj().T @ psi)
    if np.linalg.norm(residual) > SUBSPACE_TOL:
        raise ValueError(f"state leaks out of the energy-{delta} subspace")
    total = 0.0

    def leaf(matrix: np.ndarray) -> None:
        nonlocal total
        total += abs(complex(psi.conj() @ (matrix @ psi)))

    _tuple_walk(spec, depth, leaf)
    g = extensiveness(spec)
    bound = math.factorial(depth) * (2.0 * spec.locality_k * g) ** depth * delta
    return total, bound
