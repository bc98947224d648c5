"""Dense operator engine: embedding, assembly, charges, propagators, projectors, norms.

Every operator is a dense ndarray: float64 when every term block of its
spec is real (all built-in models), complex128 otherwise.  A spectrum is an
``np.linalg.eigh`` result, a pair of ``eigenvalues`` and orthonormal
``eigenvectors`` columns; ``ErrorLab`` keeps one per sector of
``conserved_charge``, each from ``assemble`` of that sector's rows against
its charge sector's states, diagonalised block by block of its exact
nonzero pattern (``errors.block_eigh``), and a real Hamiltonian gets real
eigenvectors.
Spectral norms come from the Hermitian eigendecomposition of A^dag A;
propagators from the eigendecomposition of the (Hermitian) generator,
reused across times.
"""
from __future__ import annotations

from itertools import groupby

import numpy as np

from .embedding import block_entries, embed_block
from .lattice import (COMPLEX_BYTES, HamiltonianSpec, LatticeSpec, LocalTerm, require_memory,
                      spin_casimirs, spin_sector_projector)

SPECTRAL_TIE_TOL = 1e-12


def embed(term: LocalTerm, lattice: LatticeSpec) -> np.ndarray:
    """Embed a local term into the full chain (identity off support)."""
    require_memory(COMPLEX_BYTES * lattice.hilbert_dim ** 2, "a dense embedded term")
    return embed_block(term.block, term.support, lattice.num_sites, lattice.local_dim)


def assemble(spec: HamiltonianSpec, rows: np.ndarray | None = None,
             columns: np.ndarray | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum of all embedded terms plus the per-group partial Hamiltonians, of ``spec.dtype``.

    On every basis state, or on the sorted basis states ``rows`` against the
    sorted ``columns`` (default ``rows``); each term must then be exactly 0 from
    ``rows`` to the states outside ``columns`` (see ``block_entries``), as on a
    charge sector.  Terms add in order, each run on one support by one index.
    """
    size = spec.lattice.hilbert_dim if rows is None else len(rows)
    shape = (size, size if columns is None else len(columns))
    dtype = spec.dtype
    require_memory((spec.gamma_count + 1) * dtype.itemsize * size * shape[1], "H and its groups")
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    total = np.zeros(shape, dtype=dtype)
    partials = [np.zeros(shape, dtype=dtype) for _ in range(spec.gamma_count)]
    for support, run in groupby(zip(spec.terms, spec.partition), lambda pair: pair[0].support):
        blocks, gammas = zip(*((term.block, gamma) for term, gamma in run))
        index, values = block_entries(np.stack(blocks), support, n, d, rows, columns)
        for gamma, value in zip(gammas, values):
            total[index] += value
            partials[gamma - 1][index] += value
    return total, partials


def _digit_sums(num_sites: int, local_dim: int) -> np.ndarray:
    """Sum of the base-``local_dim`` digits of every basis index of ``num_sites`` sites."""
    return np.sum(np.unravel_index(np.arange(local_dim ** num_sites),
                                   (local_dim,) * num_sites), axis=0)


def _conserves(block: np.ndarray, local_charge: np.ndarray) -> bool:
    """True when ``block`` is exactly 0 between local states of unequal charge."""
    return not block[np.not_equal.outer(local_charge, local_charge)].any()


def conserved_charge(spec: HamiltonianSpec) -> np.ndarray:
    """One integer label per basis state, a charge that every term conserves exactly.

    The digit sum (total S^z up to a shift) when every term block is exactly
    0 between local states of unequal digit sums; otherwise the digit sum
    mod 2 when the same holds for it; otherwise a single label.  No
    tolerance: an entry of 1e-300 between two charges breaks conservation.
    H and every group are then block diagonal on the states of equal label.
    """
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    # int64: the n digit arrays of every basis index, their stacked copy, the sum, the labels
    require_memory(8 * (2 * n + 2) * d ** n, f"the charge labels of {d}^{n} basis states")
    for modulus in (n * (d - 1) + 1, 2):   # the digit sum itself, then its parity
        if all(_conserves(term.block, _digit_sums(len(term.support), d) % modulus)
               for term in spec.terms):
            return _digit_sums(n, d) % modulus
    return np.zeros(d ** n, dtype=int)


def flip_invariant(spec: HamiltonianSpec) -> bool:
    """True when every term block equals ``block[::-1, ::-1]`` exactly.

    Reversing a block's index flips every digit s -> d - 1 - s of its
    support, so such a term commutes with the spin flip F, the map
    i -> dim - 1 - i on basis indices, and H and every group are then
    F-invariant exactly as assembled.  Bit equality decides it, no tolerance.
    """
    return all(np.array_equal(term.block, term.block[::-1, ::-1]) for term in spec.terms)


def spin_projector_terms(spec: HamiltonianSpec) -> bool:
    """True when every term block equals a ``spin_sector_projector`` of its support exactly.

    Such a term commutes with the total spin of the chain, and so do H,
    every group, both propagators and every P_delta.  Bit equality
    (``np.array_equal``) decides it, no tolerance; twice a projector, or one
    off by an ulp, does not qualify.
    """
    d = spec.lattice.local_dim
    projectors: dict[int, list[np.ndarray]] = {}
    for term in spec.terms:
        k = len(term.support)
        if k not in projectors:
            projectors[k] = [spin_sector_projector(k, d, c) for c in spin_casimirs(k, d)]
        if not any(np.array_equal(term.block, proj) for proj in projectors[k]):
            return False
    return True


def evolve(spectrum, t: float) -> np.ndarray:
    """Unitary exp(-i t H) from the spectrum of H."""
    phases = np.exp(-1j * t * spectrum.eigenvalues)
    v = spectrum.eigenvectors
    return (v * phases) @ v.conj().T


def apply_matrix(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a block x; a real ``a`` acts on a complex x as one real product."""
    if a.dtype != np.float64 or x.dtype != np.complex128:
        return a @ x
    # the float64 view interleaves real and imaginary parts along each row
    return (a @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


def _matrix_norm(a: np.ndarray):
    """Spectral norm of a matrix, or the array of norms of a stack on leading axes."""
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().mT @ a)[..., -1], 0.0))
    return float(norms) if a.ndim == 2 else norms


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value from the eigvalsh of A^dag A: real for float64, else complex."""
    a = np.asarray(a)
    return _matrix_norm(a if a.dtype == np.float64 else a.astype(complex))


def low_energy_mask(eigenvalues: np.ndarray, delta: float) -> np.ndarray:
    """Boolean mask for eigenvalues <= delta, with a tie slack.

    Frustration-free ground energies come out of ``eigvalsh`` as +-1e-15,
    not exactly 0; the slack (1e-12 times the spectral scale) keeps them
    inside the delta = 0 subspace without touching separated eigenvalues.
    The high-energy side must always be taken as the complement of this
    mask so the two projectors sum to the identity.
    """
    values = np.asarray(eigenvalues, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    return values <= delta + SPECTRAL_TIE_TOL * scale


def low_energy_projector(spectrum, delta: float) -> np.ndarray:
    """Projector onto eigenvectors with eigenvalue <= delta (ties included)."""
    v = spectrum.eigenvectors[:, low_energy_mask(spectrum.eigenvalues, delta)]
    return v @ v.conj().T
