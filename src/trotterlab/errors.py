"""Quantities measured on a lab; the closed-form caps they meet are in ``bounds``.

The central quantity is the spectral norm of (exp(-iHt) - T_p(t)) P, where
P projects onto eigenstates with energy at most delta.  It depends only on
the block V of those eigenvectors, since exp(-iHt) V = V exp(-iEt): the
error is ||V exp(-iEt) - T_p(t) V||, and with every column it is the full
norm, as V is then unitary.  Every term conserves the charge of
``conserved_charge``, so H, each group Hamiltonian, both propagators and P
are block diagonal on its sectors, and the norm of a block-diagonal matrix
is the largest norm of its blocks.  ``ErrorLab`` works sector by sector:
a sector assembles H and the groups on its own basis states and takes
their spectra when first used, so the lab holds only sector-sized matrices.

When every term is exactly a total-spin projector of its support (AKLT,
MG), all of these also commute with the total spin, so the difference
acts as D_S (x) 1 on the spin-S multiplets.  The sector of smallest |S^z|
holds one copy of every multiplet, and its norm alone is each error,
projected or full; ``errors`` then skips the other sectors.

When every term block equals its index reversal (``flip_invariant``), each
term commutes with the spin flip F, the map i -> dim - 1 - i on basis
indices, which flips every digit s -> d - 1 - s.  F maps the sector of
digit sum c to that of N(d - 1) - c (for the parity charge, it swaps the
two labels when N(d - 1) is odd).  A sector that F maps onto a smaller
label is a mirror sector, and it reads its image through F: it has the
image's spectra, and its vectors are the image's with F applied, so it is
never assembled or diagonalised.  Its norms are its image's, so ``errors``
skips it.  A sector that F maps to itself splits into two halves: its
states a < F a pair with their images, and for odd d the all-middle-digit
state is F's fixed point f.  On (e_a +- e_Fa)/sqrt(2) and e_f, a sector
matrix M splits into the + half [[M_pp + M_pF, sqrt(2) M_pf], [sqrt(2) M_fp,
M_ff]] and the - half M_pp - M_pF (p the pairs, pF their images), exactly 0
between, and each half folds from its own rows p (and f) against the states
of the sector (Sandvik, AIP Conf. Proc. 1297 (2010), sec. 4).

A sector's spectra are not one whole-matrix ``eigh``: ``block_eigh`` splits
each matrix of at least ``BLOCK_EIGH_MIN`` states into the exact blocks of
its nonzero pattern and diagonalises them one size at a time.  A group is a
sum of commuting terms, so on a sector it falls apart into many small
blocks (lr's Z group into single states), while H on an AKLT or MG half is
one block and goes to ``eigh`` whole.

The nested-commutator sums walk term tuples whose supports chain-overlap.
A commutator lives on the union U of its supports, so the walk keeps it as
a d^|U| x d^|U| block, stacks the blocks that share a union and reduces
each batch of leaves as it is made, against every basis of the call: an
unprojected leaf's norm is its block's, and a projected one contracts the
block with the tensor axes U of the low-energy columns.  Each commutator
is made once: [h_0, h_1] = -[h_1, h_0] bit for bit, so a pair of two
support groups is made from the earlier one and counts twice, and one
that is exactly 0 is dropped with all that would nest around it.  An
expectation in a state psi is the 1 x 1 block of the columns psi, so both
sums are one walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import eigh

from .embedding import lift_block
from .formulas import FormulaPlan, apply_plan
from .lattice import COMPLEX_BYTES, HamiltonianSpec, require_memory
from .operators import (_matrix_norm, apply_matrix, assemble, conserved_charge, flip_invariant,
                        low_energy_mask, spin_projector_terms)

SUBSPACE_TOL = 1e-10
MAX_COMMUTATOR_DEPTH = 3
CERTIFIED_MAX_STEPS = 10 ** 6
EXACT_ERROR_FLOOR = 1e-13
# complex blocks of the largest visited sector in a full error's working set
# (the difference, the Trotter side, the Gram matrix and its eigvalsh copy)
LAB_COMPLEX_BLOCKS = 4
# a run's allocations beyond its blocks (index arrays, BLAS and allocator
# buffers): four times the 1.9 MiB peak RSS rise of the smallest sweeps
LAB_FLOOR_BYTES = 8 * 2 ** 20
# below this many states one eigh costs less than finding the blocks: block by
# block, sector matrices of 9-50 states took 1.1-8x as long, groups of 64-126 0.2-0.7x
BLOCK_EIGH_MIN = 64


def sector_listing(spec: HamiltonianSpec) -> list[Sector]:
    """The unbuilt ``Sector``s of an ``ErrorLab`` on ``spec``, from dim-length arrays only.

    One per label of ``conserved_charge`` in label order, or its + then -
    half when F maps it to itself.  ``visited`` marks the sectors whose
    largest norms are the errors: the smallest |S^z| for a spin-invariant
    spec, else every sector but the mirrors.
    """
    spin_invariant = spin_projector_terms(spec)
    charge = conserved_charge(spec)
    flip = flip_invariant(spec)
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    assert not spin_invariant or charge.max() == n * (d - 1), "the charge must be the digit sum"
    sectors: list[Sector] = []
    # every label from 0 to the largest occurs; np.unique would import numpy.ma
    for label in range(charge.max() + 1):
        rows = np.flatnonzero(charge == label)
        image = charge[-1 - rows[0]] if flip else label   # the label of F's image
        visited = (label == n * (d - 1) // 2) if spin_invariant else label <= image
        if image < label:   # a mirror: every label up to its image is whole, one sector each
            sectors.append(Sector(spec, rows, 0, visited, sectors[image]))
            continue
        signs = (1, -1) if flip and image == label else (0,)
        sectors += [Sector(spec, rows, sign, visited) for sign in signs]
    return sectors


def lab_bytes(spec: HamiltonianSpec, sectors: list[Sector]) -> int:
    """Peak bytes of an ``ErrorLab`` on the ``sectors`` of ``sector_listing``.

    At s bytes per entry of ``spec.dtype``: the largest assembly, Gamma + 1
    blocks of n^2 on a whole sector of n states, or of a half's size x n rows
    and size^2 fold; H's eigenvectors on every sector but the mirrors; Gamma
    group eigenvectors and Gamma (Gamma - 1)/2 transitions per visited
    sector; ``LAB_COMPLEX_BLOCKS`` complex blocks of the largest visited
    sector; ``LAB_FLOOR_BYTES``.
    """
    gamma, s = spec.gamma_count, spec.dtype.itemsize
    built = [sector for sector in sectors if sector.image is None]
    squares = [sector.size ** 2 for sector in built]
    visited = [sector.size ** 2 for sector in sectors if sector.visited]
    assembly = max(x.size * x.rows.size + (x.sign != 0) * x.size ** 2 for x in built)
    return (s * ((gamma + 1) * assembly + sum(squares) + gamma * (gamma + 1) // 2 * sum(visited))
            + COMPLEX_BYTES * LAB_COMPLEX_BLOCKS * max(visited) + LAB_FLOOR_BYTES)


def _fold(block: np.ndarray, sign: int) -> np.ndarray:
    """A sector's first rows against all n columns of its charge sector, folded into its half.

    F reverses the sorted states, so state i pairs with n - 1 - i: for the
    flip half ``sign`` (+1 or -1) the first n // 2 rows are the pairs and,
    for odd n, the + half's last row is the middle state, the fixed point.
    The half acts on the same coordinates; 0 keeps the n x n ``block`` whole.
    """
    size, pairs = block.shape[0], block.shape[1] // 2 * abs(sign)
    half = np.ascontiguousarray(block[:, :size])   # a copy unless the block is whole
    mirror = block[:pairs, ::-1][:, :pairs]   # M[a, F b] on the pairs
    if sign > 0:
        half[:pairs, :pairs] += mirror
    else:
        half[:pairs, :pairs] -= mirror
    half[pairs:, :pairs] *= math.sqrt(2)   # the fixed point's couplings, if any
    half[:pairs, pairs:] *= math.sqrt(2)
    return half


def block_eigh(matrix: np.ndarray):
    """``eigh`` of the Hermitian ``matrix``, one exact block of its nonzero pattern at a time.

    The result keeps ``eigh``'s contract: ascending eigenvalues and
    orthonormal eigenvector columns in a dense n x n array.  The blocks are
    the connected components of the exact nonzero pattern of the lower
    triangle, all that ``eigh`` reads: each state takes the smallest label
    among its pairs, then its label's label, until no label moves.  The
    blocks of one size, each on its ascending states, go to ``eigh`` as one
    stack, and a block's eigenvectors land on its states, in the columns
    that rank its eigenvalues among all (ties in block order).  A matrix
    that is one block, or of fewer than ``BLOCK_EIGH_MIN`` states, is
    ``eigh`` of ``matrix`` itself.
    """
    n = len(matrix)
    if n < BLOCK_EIGH_MIN:
        return eigh(matrix)
    rows = max(1, 2 ** 16 // n)   # a few rows at a time: nonzero on bool is fast, and small
    i, j = np.divmod(np.concatenate([np.flatnonzero(matrix[r:r + rows] != 0) + r * n
                                     for r in range(0, n, rows)]), n)
    lower = i > j
    i, j = i[lower], j[lower]
    ends, starts = np.concatenate([i, j]), np.concatenate([j, i])   # each pair both ways
    label = np.arange(n)
    while True:
        moved = label.copy()
        np.minimum.at(moved, ends, label[starts])
        moved = moved[moved]
        if (moved == label).all():
            break
        label = moved
    if not label.any():   # one block
        return eigh(matrix)
    # before the stacks: freeing them raises glibc's mmap threshold, and an n x n
    # array made after them would sit on the heap, 1 MB higher in peak RSS on lr N=10
    vectors = np.zeros_like(matrix)
    sizes = np.bincount(label, minlength=n)   # a block's size at its smallest state
    order = np.argsort(label, kind="stable")   # block by block, ascending within each
    size_of = sizes[label[order]]
    stacks = []
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        states = order[size_of == size].reshape(-1, size)
        stacks.append((states, eigh(matrix[states[:, :, None], states[:, None, :]])))
    values = np.concatenate([result.eigenvalues.ravel() for _, result in stacks])
    ascending = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ascending] = np.arange(n)
    start = 0
    for states, result in stacks:
        columns = rank[start:start + states.size].reshape(states.shape)
        vectors[states[:, :, None], columns[:, None, :]] = result.eigenvectors
        start += states.size
    # the last stack's result, to return eigh's own result type
    return result._replace(eigenvalues=values[ascending], eigenvectors=vectors)


class Sector:
    """H and the groups on the basis states ``rows`` of one charge sector, or of its flip half.

    ``sign`` is 0 for the whole sector, or +1 or -1 for its half on
    (e_a +- e_Fa)/sqrt(2); ``size`` counts its coordinates, which are its
    first ``size`` rows: the pairs, then F's fixed point for the + half.  It
    assembles those rows against every state of ``rows`` and folds them
    into its half, H and every group in one pass.  On first use a sector
    takes the ``block_eigh`` of H (eigenvalues ascending) and of each group
    on them, and ``transitions`` is the cache that ``apply_plan`` fills for it.
    H's pass always comes first: a ``visited`` sector keeps its folded groups
    from it until their spectra, any other assembles again for its groups.  A
    mirror sector, one that F maps onto its ``image``, builds nothing: it
    has its image's spectra, and it lifts through F.
    """

    def __init__(self, spec: HamiltonianSpec, rows: np.ndarray, sign: int, visited: bool,
                 image: Sector | None = None):
        self.spec = spec
        self.rows = rows
        self.sign = sign
        self.visited = visited
        self.image = image
        self.size = (rows.size + (sign > 0)) // 2 if sign else rows.size
        self.transitions: dict = {}
        self._parts = None   # the folded groups of H's pass, until their eigh

    def _assemble(self) -> tuple:
        hamiltonian, parts = assemble(self.spec, self.rows[:self.size], self.rows)
        return _fold(hamiltonian, self.sign), [_fold(part, self.sign) for part in parts]

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """The sector's coordinate columns ``vectors`` as dim x m columns of the full
        basis: each coordinate is e_a for the whole sector, (e_a +- e_Fa)/sqrt(2)
        for a pair, e_f for F's fixed point, and F of its image's for a mirror."""
        if self.image is not None:
            return self.image.lift(vectors)[::-1]   # F e_a = e_(dim - 1 - a)
        out = np.zeros((self.spec.lattice.hilbert_dim, vectors.shape[1]), vectors.dtype)
        pairs = self.rows.size // 2 * abs(self.sign)   # none in a whole sector
        out[self.rows[:pairs]] = vectors[:pairs] / math.sqrt(2)
        out[self.rows[::-1][:pairs]] = self.sign * out[self.rows[:pairs]]
        out[self.rows[pairs:self.size]] = vectors[pairs:]
        return out

    @cached_property
    def spectrum(self):
        if self.image is not None:
            return self.image.spectrum
        hamiltonian, parts = self._assemble()
        self._parts = parts if self.visited else None
        return block_eigh(hamiltonian)

    @cached_property
    def part_spectra(self) -> tuple:
        if self.image is not None:
            return self.image.part_spectra
        self.spectrum   # H's pass first, so a visited sector assembles once
        parts, self._parts = self._parts or self._assemble()[1], None
        return tuple(block_eigh(part) for part in parts)


def _column_counts(sectors: list[Sector], delta: float | None) -> list[int]:
    """Per sector, the number of eigenvalues <= delta (ties included); None means all.

    One mask over the given sectors keeps the tie slack at their joint
    spectrum's scale; a sector's eigenvalues ascend, so its count is a
    column prefix.
    """
    sizes = [sector.size for sector in sectors]
    if delta is None:
        return sizes
    mask = low_energy_mask(np.concatenate([s.spectrum.eigenvalues for s in sectors]), delta)
    return [int(np.count_nonzero(part)) for part in np.split(mask, np.cumsum(sizes)[:-1])]


class ErrorLab:
    """Per-sector spectra plus error evaluators for one Hamiltonian spec.

    ``sectors`` is the list of ``sector_listing``; their lifts together are
    an orthonormal basis of the whole space.  A lab whose ``lab_bytes``
    exceed physical memory is refused before any sector is built.
    Everything is float64 when every term block is real, complex128 otherwise.
    """

    def __init__(self, spec: HamiltonianSpec):
        sectors = sector_listing(spec)
        require_memory(lab_bytes(spec, sectors),
                       f"ErrorLab on {spec.model_tag} N={spec.lattice.num_sites}")
        self.spec = spec
        self.sectors = sectors
        self._visited = [sector for sector in sectors if sector.visited]

    @property
    def max_energy(self) -> float:
        """The largest eigenvalue of H, held by a visited sector (see ``sector_listing``)."""
        return max(float(s.spectrum.eigenvalues[-1]) for s in self._visited)

    def _scatter(self, columns: list[slice]) -> np.ndarray:
        """dim x m block of each sector's eigenvector ``columns``, lifted to the full basis."""
        return np.hstack([s.lift(s.spectrum.eigenvectors[:, cut])
                          for s, cut in zip(self.sectors, columns)])

    def low_column_basis(self, delta: float | None) -> np.ndarray:
        """Orthonormal eigenvector columns with eigenvalue <= delta, in sector order."""
        return self._scatter([slice(m) for m in _column_counts(self.sectors, delta)])

    def errors(self, plan: FormulaPlan, t: float,
               deltas: list[float] | tuple[float, ...], steps: int = 1) -> list[float]:
        """Norms of (exp(-iHt) - T_p(t/steps)**steps) P_delta, one per cutoff.

        Each sector takes one difference on its widest cutoff's column prefix,
        and a cutoff's norm is the largest of its prefixes'; None or inf means
        all.  A sector with no column below any cutoff adds nothing and is
        skipped.  A spin-invariant spec visits only its smallest-|S^z| sector,
        and a flip-invariant one skips mirror sectors.
        """
        if steps < 1:
            raise ValueError("need at least one step")
        counts = [_column_counts(self._visited, delta) for delta in deltas]
        norms = [0.0] * len(deltas)
        # the plan repeated steps times at t/steps
        stepped = FormulaPlan(plan.order_p, plan.gamma_count, plan.stages * steps)
        for s, sector in enumerate(self._visited):
            widths = [count[s] for count in counts]
            width = max(widths, default=0)
            if not width:
                continue
            block = sector.spectrum.eigenvectors[:, :width]
            diff = block * np.exp(-1j * t * sector.spectrum.eigenvalues[:width])
            diff -= apply_plan(stepped, sector.part_spectra, t / steps, block,
                               sector.transitions)
            norms = [max(norm, _matrix_norm(diff[:, :m])) for norm, m in zip(norms, widths)]
        return norms

    def full_error(self, plan: FormulaPlan, t: float) -> float:
        return self.errors(plan, t, (None,))[0]

    def projected_error(self, plan: FormulaPlan, t: float, delta: float | None) -> float:
        return self.errors(plan, t, (delta,))[0]

    def stepped_error(self, plan: FormulaPlan, t: float, steps: int,
                      delta: float | None = None) -> float:
        return self.errors(plan, t, (delta,), steps)[0]

    def leakage_norm(self, op: np.ndarray, delta: float, delta_prime: float) -> float:
        """Norm of P_above(delta_prime) O P_below(delta); the high side is each
        sector's columns past its delta_prime prefix, so it may be empty."""
        if delta_prime <= delta:
            raise ValueError("delta_prime must exceed delta")
        if op.shape != (self.spec.lattice.hilbert_dim,) * 2:
            raise ValueError("operator dimension does not match the lab")
        counts = _column_counts(self.sectors, delta_prime)
        high = self._scatter([slice(m, None) for m in counts])
        return _matrix_norm(high.conj().T @ op @ self.low_column_basis(delta))

    def random_subspace_state(self, delta: float, rng: np.random.Generator) -> np.ndarray:
        """P_delta g / ||P_delta g|| for a complex Gaussian g: a random unit state
        that depends only on the subspace, not on the eigenvectors spanning it."""
        basis = self.low_column_basis(delta)
        if basis.shape[1] == 0:
            raise ValueError(f"no eigenstates at or below {delta}")
        g = rng.standard_normal(basis.shape[0]) + 1j * rng.standard_normal(basis.shape[0])
        psi = basis @ (basis.conj().T @ g)
        return psi / np.linalg.norm(psi)


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


@dataclass(frozen=True)
class OrderFit:
    """Log-log slope of error against time; ``exact`` when below the noise floor."""

    slope: float | None
    residual: float | None
    exact: bool
    errors: tuple[float, ...]


def order_check(plan: FormulaPlan, lab: ErrorLab,
                t_grid: list[float] | tuple[float, ...]) -> OrderFit:
    """Fit the error-vs-time slope; a plan of order p should give p + 1.

    Errors below ``EXACT_ERROR_FLOOR`` at every grid point are reported as
    exact (commuting partitions) instead of fitted.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 4:
        raise ValueError("need at least 4 grid times")
    if any(t <= 0 for t in t_grid) or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("grid times must be positive and strictly increasing")
    errors = [lab.full_error(plan, t) for t in t_grid]
    if max(errors) <= EXACT_ERROR_FLOOR:
        return OrderFit(None, None, True, tuple(errors))
    log_t = np.log(t_grid)
    log_e = np.log(errors)
    slope, intercept = np.polyfit(log_t, log_e, 1)
    fitted = slope * log_t + intercept
    residual = float(np.sqrt(np.mean((log_e - fitted) ** 2)))
    return OrderFit(float(slope), residual, False, tuple(errors))


def _commutators(groups: dict, local_dim: int, union: tuple[int, ...], stack: np.ndarray,
                 weights: np.ndarray, lifts: dict, root: bool):
    """Yield (sites, [h, C] for each h of a group and C of ``stack``, their weights) per
    group meeting ``union``, less the commutators that are exactly 0.

    ``stack`` holds commutators on the sorted sites ``union``, each counted
    ``weights`` times; ``groups`` maps each support to its stacked terms.  A
    nested commutator vanishes unless each new support meets the union of
    the previous ones, and one that is 0 stays 0.  With ``root``, ``stack``
    is the group of ``union``: as [h_0, h_1] = -[h_1, h_0] bit for bit, and
    so is each commutator around it, a pair of two groups is made from the
    earlier support only and counts twice.  Both sides are lifted to ``sites``,
    the stack once per ``sites`` and a group once per ``lifts`` cache.
    """
    lifted = {}
    for support, group in groups.items():
        if set(support).isdisjoint(union) or root and support < union:
            continue
        sites = tuple(sorted(set(union).union(support)))
        if sites not in lifted:
            lifted[sites] = stack if sites == union else lift_block(stack, union, sites, local_dim)
        current = lifted[sites]
        if (support, sites) not in lifts:   # T x 1 x D x D, broadcast over the stack
            lifts[support, sites] = lift_block(group, support, sites, local_dim)[:, None]
        h = lifts[support, sites]
        batch = (h @ current - current @ h).reshape(-1, *current.shape[1:])
        counts = np.tile(weights, len(group)) * (2 if root and support != union else 1)
        keep = batch.reshape(len(batch), -1).any(axis=1)   # no tolerance: exact zeros only
        if keep.any():
            yield sites, batch[keep], counts[keep]


def _leaf_norms(leaves: np.ndarray, sites: tuple[int, ...], tensor: np.ndarray | None,
                views: dict) -> np.ndarray:
    """Norm of each leaf of the stack on ``sites``, or of V^dag (leaf (x) 1) V.

    ``tensor`` is V with one axis per site and the column axis last;
    ``views`` caches it per site tuple with those axes first, as a
    d^|U| x (rest, m) matrix, whose rows then regroup to (U, rest) x m.
    """
    if tensor is None:
        return _matrix_norm(leaves)
    if sites not in views:
        views[sites] = np.moveaxis(tensor, sites, range(len(sites))).reshape(leaves.shape[-1], -1)
    view = views[sites]
    flat = view.reshape(-1, tensor.shape[-1])
    blocks = apply_matrix(leaves, view).reshape(len(leaves), *flat.shape)
    return _matrix_norm(flat.conj().T @ blocks)


def _walk_sum(spec: HamiltonianSpec, depth: int, bases: list) -> list[float]:
    """Per entry V of ``bases``, the sum of ||V^dag C V|| (of ||C|| for None) over the
    nested commutators C = [h_q, ..., [h_1, h_0]] of depth q with chain-overlapping supports.

    Terms are grouped by sorted support.  One root group at a time; below it
    the walk goes level by level and stacks the commutators that share a
    union of supports, so each (union, group) pair is one batched product.
    The last level's batches are reduced against every basis as they are
    made.  C on the sites U acts on the chain as C (x) 1, so its norm is that
    of the U block, and V^dag (C (x) 1) V contracts the block with V's axes U.
    """
    d = spec.lattice.local_dim
    blocks: dict[tuple[int, ...], list] = {}
    for term in spec.terms:   # a support is sorted
        blocks.setdefault(term.support, []).append(term.block)
    # float64 when every block of a support is real
    groups = {support: lift_block(np.stack(stack), support, support, d)
              for support, stack in blocks.items()}
    tensors = [None if basis is None else basis.reshape((d,) * spec.lattice.num_sites + (-1,))
               for basis in bases]
    views: list[dict] = [{} for _ in bases]
    totals = [0.0] * len(bases)
    lifts: dict = {}
    for root, group in groups.items():
        level = {root: (group, np.ones(len(group)))}
        for q in range(depth - 1):
            below: dict[tuple[int, ...], list] = {}
            for union, (stack, weights) in level.items():
                for sites, *batch in _commutators(groups, d, union, stack, weights, lifts, q == 0):
                    below.setdefault(sites, []).append(batch)
            level = {sites: tuple(map(np.concatenate, zip(*parts)))
                     for sites, parts in below.items()}
        for union, (stack, weights) in level.items():
            batches = (_commutators(groups, d, union, stack, weights, lifts, depth == 1)
                       if depth else [(union, stack, weights)])
            for sites, leaves, counts in batches:
                for b, tensor in enumerate(tensors):
                    if tensor is None or tensor.shape[-1]:   # else every leaf is 0 x 0
                        totals[b] += float(_leaf_norms(leaves, sites, tensor, views[b]) @ counts)
    return totals


def nested_commutator_sum(spec: HamiltonianSpec, depth: int,
                          basis: np.ndarray | list | tuple | None = None) -> float | list[float]:
    """Sum over term tuples of the nested-commutator norm, optionally projected.

    With an orthonormal block V (``ErrorLab.low_column_basis``) the summand
    is ||V^dag [h_q, ..., [h_1, h_0]] V||, which equals ||P C P|| for the
    projector P = V V^dag; depth is the number of commutators (1..3).  A
    list or tuple of such blocks and None (the unprojected sum) takes one
    walk and returns a list, one sum per entry; a block with no column gives 0.0.
    """
    if not 1 <= depth <= MAX_COMMUTATOR_DEPTH:
        raise ValueError(f"depth must be 1..{MAX_COMMUTATOR_DEPTH}, got {depth}")
    dim = spec.lattice.hilbert_dim
    many = isinstance(basis, (list, tuple))
    bases = list(basis) if many else [basis]
    for block in bases:
        if block is not None and (not isinstance(block, np.ndarray) or block.ndim != 2
                                  or block.shape[0] != dim):
            raise ValueError(f"basis must be a {dim} x m block, got shape {np.shape(block)}")
    walk = any(block is None or block.shape[1] for block in bases)
    sums = _walk_sum(spec, depth, bases) if walk else [0.0] * len(bases)
    return sums if many else sums[0]


def low_energy_expectation_sum(lab: ErrorLab, depth: int, psi: np.ndarray,
                               delta: float) -> float:
    """Summed absolute expectations of nested commutators in a low-energy state.

    psi must be a unit vector supported on energies at most delta; the sum
    is capped by ``bounds.projected_commutator_bound(depth, k, g, delta)``.
    Depth 0 sums the bare term expectations.
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
    # |psi^dag C psi| is the norm of the 1 x 1 block of V = psi
    return _walk_sum(spec, depth, [psi[:, None]])[0]
