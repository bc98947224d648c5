"""Dense reference route for Trotter errors and nested-commutator sums.

Every quantity here lives on the full dim x dim space: the exact and the
Trotter propagators are matrices, steps are a matrix power, the low-energy
subspace is a projector, a projected commutator leaf is the sandwich P C P
and an expectation leaf is <psi|C|psi>.  The package computes the same
numbers on eigenvector blocks and support-local stacks; the tests compare
the two routes.  Terms are embedded here by Kronecker products and an axis
permutation, not by the package's digit scatter, and every spectrum is one
dense ``np.linalg.eigh`` of the whole matrix: a lab is read only for its
spec, never for its sector spectra.
"""
import functools
import itertools
import math

import numpy as np

import trotterlab as tl


def kron_embed(block, where, num_sites, local_dim):
    """``block`` on the sites ``where`` (first factor first), identity elsewhere.

    kron(block, I) carries the sites ``where + rest`` on its tensor axes;
    permuting the axes puts site k on axis k.  Float64 when the block's
    imaginary part is exactly zero, complex128 otherwise.
    """
    d, n, where = local_dim, num_sites, list(where)
    block = np.asarray(block, dtype=complex)
    if not block.imag.any():
        block = block.real
    order = where + [i for i in range(n) if i not in where]
    full = np.kron(block, np.eye(d ** (n - len(where)), dtype=block.dtype))
    src = [order.index(site) for site in range(n)]
    perm = src + [n + a for a in src]
    out = full.reshape((d,) * (2 * n)).transpose(perm).reshape(d ** n, d ** n)
    return np.ascontiguousarray(out)


def kron_assemble(spec):
    """H and the group partials as term-order sums of ``kron_embed`` terms."""
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    total = np.zeros((d ** n, d ** n), dtype=spec.dtype)
    partials = [np.zeros_like(total) for _ in range(spec.gamma_count)]
    for term, gamma in zip(spec.terms, spec.partition):
        emb = kron_embed(term.block, term.support, n, d)
        total += emb
        partials[gamma - 1] += emb
    return total, partials


def fold(block, sign):
    """The flip half ``sign`` (+1 or -1) of a whole n x n sector block; 0 keeps it whole.

    F reverses the sector's sorted states, so state i pairs with n - 1 - i:
    the first n // 2 are the pairs and, for odd n, the middle one is F's
    fixed point.  On (e_a +- e_Fa)/sqrt(2) and e_f the + half is
    [[M_pp + M_pF, sqrt(2) M_pf], [sqrt(2) M_fp, M_ff]] and the - half
    M_pp - M_pF, cut from the whole block.
    """
    if not sign:
        return block
    pairs, size = len(block) // 2, (len(block) + (sign > 0)) // 2
    half = block[:size, :size].copy()
    mirror = block[:pairs, ::-1][:, :pairs]   # M[a, F b] on the pairs
    if sign > 0:
        half[:pairs, :pairs] += mirror
    else:
        half -= mirror
    half[pairs:, :pairs] *= math.sqrt(2)   # the fixed point's couplings, if any
    half[:pairs, pairs:] *= math.sqrt(2)
    return half


@functools.lru_cache(maxsize=4)
def dense_spectra(spec):
    """Dense ``eigh`` of ``kron_assemble(spec)``: H's spectrum, then each group's."""
    total, partials = kron_assemble(spec)
    return np.linalg.eigh(total), [np.linalg.eigh(p) for p in partials]


def difference(lab, plan, t, steps=1):
    """exp(-iHt) - T_p(t/steps)**steps, with T_p multiplied out from the identity."""
    spectrum, part_spectra = dense_spectra(lab.spec)
    trotter = np.eye(spectrum.eigenvalues.size, dtype=complex)
    for gamma, alpha in plan.stages:
        trotter = tl.evolve(part_spectra[gamma - 1], alpha * (t / steps)) @ trotter
    return tl.evolve(spectrum, t) - np.linalg.matrix_power(trotter, steps)


def projector(lab, delta):
    return tl.low_energy_projector(dense_spectra(lab.spec)[0], delta)


def errors(lab, plan, t, deltas, steps=1):
    """||difference @ P_delta|| per cutoff; None or inf is the full norm."""
    diff = difference(lab, plan, t, steps)
    return [np.linalg.norm(diff if delta is None or math.isinf(delta)
                           else diff @ projector(lab, delta), 2)
            for delta in deltas]


def full_error(lab, plan, t):
    return errors(lab, plan, t, (math.inf,))[0]


def nested_commutators(spec, depth):
    """Every [h_q, ..., [h_1, h_0]] over all term tuples of length depth + 1.

    No pruning: tuples with a disjoint support give commutators that vanish
    exactly, so they add zero to any sum of norms.
    """
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    embedded = [kron_embed(term.block, term.support, n, d) for term in spec.terms]
    for tup in itertools.product(range(len(embedded)), repeat=depth + 1):
        mat = embedded[tup[0]]
        for idx in tup[1:]:
            mat = embedded[idx] @ mat - mat @ embedded[idx]
        yield mat


def commutator_sum(spec, depth, proj=None):
    """Sum of ||P [h_q, ..., [h_1, h_0]] P|| over every term tuple."""
    return sum(np.linalg.norm(mat if proj is None else proj @ mat @ proj, 2)
               for mat in nested_commutators(spec, depth))


def expectation_sum(spec, depth, psi):
    """Sum of |<psi| [h_q, ..., [h_1, h_0]] |psi>| over every term tuple."""
    return sum(abs(np.vdot(psi, mat @ psi)) for mat in nested_commutators(spec, depth))
