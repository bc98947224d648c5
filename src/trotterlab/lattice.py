"""Spin-chain Hamiltonians assembled from positive-semidefinite local terms.

A Hamiltonian spec is a list of local terms ``h_X >= 0`` on an open chain,
together with a partition of the terms into groups whose members commute
pairwise.  Three model families are built in:

* ``build_aklt``      -- spin-1 chain, each bond term projects the two-site
                         total spin onto the s = 2 sector (eigenvalue 6 of
                         the total-spin square).  Bonds starting at even
                         sites form group 1, odd sites group 2.
* ``build_mg``        -- spin-1/2 Majumdar-Ghosh chain, each three-site term
                         projects onto the s = 3/2 sector (eigenvalue 15/4).
                         The term starting at site i joins group (i mod 3) + 1.
* ``build_long_range_heisenberg``
                      -- spin-1/2 pairs (i, j) coupled by
                         J0 * |i - j|**(-nu) * (P_i P_j + 1) / 2 for each
                         Pauli axis P; the three axes form three groups.

The locality k is the largest support size, and the extensiveness g is the
largest per-site sum of term norms; both feed the analytic error bounds in
:mod:`trotterlab.bounds`.  Energies are measured from the shifted (PSD)
terms, so every spectrum starts at or above zero.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embedding import embed_block, lift_block

COMPLEX_BYTES = np.dtype(complex).itemsize

HERMITICITY_TOL = 1e-12
PSD_MARGIN_FACTOR = 1e-10
COMMUTATION_FACTOR = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _ladder(local_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic quantum numbers (decreasing) and the real raising operator S^+."""
    if local_dim < 2:
        raise ValueError("need local_dim >= 2")
    s = (local_dim - 1) / 2
    m = s - np.arange(local_dim)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    return m, sp


def spin_matrices(local_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless spin matrices (Sx, Sy, Sz) for spin s = (local_dim - 1)/2.

    Basis ordered by decreasing magnetic quantum number, ``hbar = 1``.
    """
    m, sp = _ladder(local_dim)
    sp = sp.astype(complex)
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    return sx, sy, np.diag(m).astype(complex)


def physical_memory() -> int:
    """Total physical memory of the machine in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(need: int, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed the machine's physical memory."""
    have = physical_memory()
    if need > have:
        raise ValueError(f"{what} needs {need} bytes, more than the {have} bytes "
                         "of physical memory")


@dataclass(frozen=True)
class LatticeSpec:
    """Open chain of ``num_sites`` sites with ``local_dim`` states each.

    Refused when ``dim = local_dim ** num_sites`` reaches 2^64, so that every
    basis index fits an int64; what a run allocates is checked where it is.
    """

    num_sites: int
    local_dim: int

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.num_sites}")
        if self.local_dim < 2:
            raise ValueError(f"need local_dim >= 2, got {self.local_dim}")
        if self.num_sites >= 64 / math.log2(self.local_dim):
            # refuse without forming d^N, slow to build and print
            raise ValueError(f"{self.local_dim}^{self.num_sites} >= 2^64 states need >= 2^67 "
                             f"bytes, more than the {physical_memory()} bytes of physical memory")

    @property
    def hilbert_dim(self) -> int:
        return self.local_dim ** self.num_sites


@dataclass(frozen=True, eq=False)
class LocalTerm:
    """Hermitian block acting on a sorted tuple of sites.

    The block is stored immutably; positive-semidefiniteness is expected for
    terms entering a Hamiltonian spec (builders guarantee it, ``validate``
    reports violations, ``shift_psd`` repairs a Hermitian block).
    """

    support: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        support = tuple(int(i) for i in self.support)
        if not support or min(support) < 0:
            raise ValueError(f"bad support {support}")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError(f"support must be strictly increasing, got {support}")
        object.__setattr__(self, "support", support)
        block = np.array(self.block, dtype=complex)
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise ValueError(f"block must be square, got shape {block.shape}")
        if not np.isfinite(block).all():
            raise ValueError("block has non-finite entries")
        if np.abs(block - block.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("block is not Hermitian")
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @cached_property
    def norm(self) -> float:
        """Spectral norm of the block."""
        if self.block.shape[0] == 0:
            return 0.0
        return float(np.abs(np.linalg.eigvalsh(self.block)).max())


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Terms plus a commuting-group partition on a fixed lattice.

    ``partition[i]`` is the group label of ``terms[i]``; labels must be
    exactly 1..Gamma.  Structural constraints (at least one term, supports
    inside the lattice, support size at most ``locality_k``, matching block
    dimensions) are enforced at construction; semantic ones (PSD terms,
    within-group commutation) are reported by :func:`validate`.
    """

    lattice: LatticeSpec
    terms: tuple[LocalTerm, ...]
    partition: tuple[int, ...]
    locality_k: int
    model_tag: str = "custom"

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        partition = tuple(int(g) for g in self.partition)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "partition", partition)
        if not terms:
            raise ValueError("a Hamiltonian needs at least one term")
        if len(terms) != len(partition):
            raise ValueError("one partition label per term required")
        labels = set(partition)
        if labels != set(range(1, len(labels) + 1)):
            raise ValueError(f"labels must be exactly 1..Gamma, got {sorted(labels)}")
        if self.locality_k < 1:
            raise ValueError("locality_k must be positive")
        d = self.lattice.local_dim
        for i, term in enumerate(terms):
            if len(term.support) > self.locality_k:
                raise ValueError(
                    f"term {i} touches {len(term.support)} sites, exceeds k={self.locality_k}")
            if term.support[-1] >= self.lattice.num_sites:
                raise ValueError(f"term {i} support {term.support} outside lattice")
            if term.block.shape[0] != d ** len(term.support):
                raise ValueError(f"term {i} block does not match local_dim {d}")

    @property
    def gamma_count(self) -> int:
        return len(set(self.partition))

    @property
    def dtype(self) -> np.dtype:
        """float64 when every term block has imaginary part exactly 0, else complex128."""
        real = not any(term.block.imag.any() for term in self.terms)
        return np.dtype(float if real else complex)


def _total_spin_squared(n_sites: int, local_dim: int) -> np.ndarray:
    """(S_tot)^2 = S^- S^+ + S^z (S^z + 1) on ``n_sites`` sites, real.

    Every entry between different total S^z is a sum of products with a
    zero factor, so it is exactly 0.
    """
    m, sp = _ladder(local_dim)
    raise_total = sum(embed_block(sp, [i], n_sites, local_dim) for i in range(n_sites))
    sz_total = sum(embed_block(np.diag(m), [i], n_sites, local_dim) for i in range(n_sites))
    return raise_total.T @ raise_total + sz_total @ (sz_total + np.eye(sz_total.shape[0]))


def spin_casimirs(n_sites: int, local_dim: int) -> list[float]:
    """S(S+1) for every total spin S of ``n_sites`` sites: n s, n s - 1, ... to 0 or 1/2."""
    top = n_sites * (local_dim - 1) / 2
    return [(top - j) * (top - j + 1) for j in range(int(top) + 1)]


def spin_sector_projector(n_sites: int, local_dim: int, casimir: float) -> np.ndarray:
    """Projector onto the total-spin sector with (S_tot)^2 eigenvalue ``casimir``.

    ``casimir`` must be S(S+1) for a total spin S that the sites allow (n s,
    n s - 1, ... down to 0 or 1/2).  The projector is the Casimir polynomial
    prod_{S' != S} (C - S'(S'+1)) / (S(S+1) - S'(S'+1)) of C = (S_tot)^2, so
    like C it is exactly 0 between different total S^z.  It is averaged with
    its index reversal, which maps S^z to -S^z, so it equals
    ``proj[::-1, ::-1]`` bit for bit.
    """
    allowed = spin_casimirs(n_sites, local_dim)
    if casimir not in allowed:
        raise ValueError(f"{casimir} is not S(S+1) for a total spin S of {n_sites} "
                         f"sites of dimension {local_dim}; allowed: {allowed}")
    c = _total_spin_squared(n_sites, local_dim)
    eye = np.eye(c.shape[0])
    proj = eye
    for other in allowed:
        if other != casimir:
            proj = proj @ (c - other * eye) / (casimir - other)
    return (proj + proj[::-1, ::-1]) / 2


def build_aklt(num_sites: int) -> HamiltonianSpec:
    """AKLT chain: bond projectors onto two-site total spin 2 (eigenvalue 6)."""
    lattice = LatticeSpec(num_sites, 3)
    block = spin_sector_projector(2, 3, 6.0)
    terms = tuple(LocalTerm((i, i + 1), block) for i in range(num_sites - 1))
    partition = tuple(1 if i % 2 == 0 else 2 for i in range(num_sites - 1))
    return HamiltonianSpec(lattice, terms, partition, locality_k=2, model_tag="aklt")


def build_mg(num_sites: int) -> HamiltonianSpec:
    """Majumdar-Ghosh chain: three-site projectors onto total spin 3/2."""
    if num_sites < 3:
        raise ValueError("Majumdar-Ghosh chain needs at least 3 sites")
    lattice = LatticeSpec(num_sites, 2)
    block = spin_sector_projector(3, 2, 15 / 4)
    terms = tuple(LocalTerm((i, i + 1, i + 2), block) for i in range(num_sites - 2))
    partition = tuple(i % 3 + 1 for i in range(num_sites - 2))
    return HamiltonianSpec(lattice, terms, partition, locality_k=3, model_tag="mg")


def build_long_range_heisenberg(num_sites: int, decay_exponent: float,
                                base_coupling: float = 1.0) -> HamiltonianSpec:
    """Power-law Heisenberg chain of PSD pair terms, one group per Pauli axis.

    Pair (i, j) carries J0 * (j - i)**(-nu) * (P_i P_j + 1)/2 for each Pauli
    axis P in (X, Y, Z); same-axis terms commute, so the axes form the
    three partition groups.
    """
    if not (np.isfinite(decay_exponent) and decay_exponent >= 0):
        raise ValueError("decay exponent must be finite and nonnegative")
    if not (np.isfinite(base_coupling) and base_coupling > 0):
        raise ValueError("base coupling must be finite and positive")
    lattice = LatticeSpec(num_sites, 2)
    eye4 = np.eye(4, dtype=complex)
    axis_blocks = [(np.kron(p, p) + eye4) / 2 for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    terms: list[LocalTerm] = []
    partition: list[int] = []
    for i in range(num_sites - 1):
        for j in range(i + 1, num_sites):
            coupling = base_coupling * float(j - i) ** (-decay_exponent)
            for axis, block in enumerate(axis_blocks):
                terms.append(LocalTerm((i, j), coupling * block))
                partition.append(axis + 1)
    return HamiltonianSpec(lattice, tuple(terms), tuple(partition),
                           locality_k=2, model_tag="lr_heisenberg")


def shift_psd(term: LocalTerm) -> LocalTerm:
    """Shift a Hermitian term by its spectral norm so it becomes PSD."""
    shifted = term.block + term.norm * np.eye(term.block.shape[0])
    return LocalTerm(term.support, shifted)


def extensiveness(spec: HamiltonianSpec) -> float:
    """Largest per-site sum of term norms (the constant g of the bounds)."""
    per_site = np.zeros(spec.lattice.num_sites)
    for term in spec.terms:
        n = term.norm
        for site in term.support:
            per_site[site] += n
    return float(per_site.max()) if spec.terms else 0.0


def long_range_extensiveness(num_sites: int, decay_exponent: float,
                             base_coupling: float = 1.0) -> float:
    """Extensiveness of the long-range Heisenberg model from coupling sums only.

    Avoids any Hilbert-space assembly, so it is usable at chain lengths whose
    lattice would not fit in memory.  Site i sums the distances 1..i and
    1..N-1-i; the terms decrease, so moving one distance from the longer run
    to the shorter never lowers the sum, and a middle site is largest.
    """
    if not (np.isfinite(decay_exponent) and decay_exponent >= 0):
        raise ValueError("decay exponent must be finite and nonnegative")
    return max(sum((3 * base_coupling * float(abs(i - j)) ** (-decay_exponent)
                    for j in range(num_sites) if j != i), 0.0)
               for i in {(num_sites - 1) // 2, num_sites // 2})


def _pair_commutator_norm(a: LocalTerm, b: LocalTerm, local_dim: int) -> float:
    """Spectral norm of [A, B] embedded on the union of the two supports."""
    union = tuple(sorted(set(a.support) | set(b.support)))
    a_emb = lift_block(a.block, a.support, union, local_dim)
    b_emb = lift_block(b.block, b.support, union, local_dim)
    comm = a_emb @ b_emb - b_emb @ a_emb
    # i[A, B] is Hermitian for Hermitian A, B
    return float(np.abs(np.linalg.eigvalsh(1j * comm)).max())


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Structured result of :func:`validate`; never raised, always returned."""

    passed: bool
    failures: tuple[str, ...]
    term_psd_margins: tuple[float, ...]


def validate(spec: HamiltonianSpec) -> ValidationReport:
    """Check PSD-ness of every term and pairwise commutation within groups."""
    failures: list[str] = []
    margins: list[float] = []
    for i, term in enumerate(spec.terms):
        margin = float(np.linalg.eigvalsh(term.block).min()) if term.block.size else 0.0
        margins.append(margin)
        if margin < -PSD_MARGIN_FACTOR * term.norm:
            failures.append(
                f"term {i} on {term.support} is not PSD (smallest eigenvalue {margin:.3e})")
    d = spec.lattice.local_dim
    for gamma in range(1, spec.gamma_count + 1):
        members = [(i, t) for i, t in enumerate(spec.terms) if spec.partition[i] == gamma]
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                i, a = members[a_idx]
                j, b = members[b_idx]
                if not set(a.support) & set(b.support):
                    continue
                norm = _pair_commutator_norm(a, b, d)
                if norm > COMMUTATION_FACTOR * a.norm * b.norm:
                    failures.append(
                        f"group {gamma}: terms {i} and {j} do not commute "
                        f"(commutator norm {norm:.3e})")
    return ValidationReport(
        passed=not failures,
        failures=tuple(failures),
        term_psd_margins=tuple(margins),
    )


def greedy_partition(lattice: LatticeSpec, terms: list[LocalTerm] | tuple[LocalTerm, ...]) -> tuple[int, ...]:
    """Greedy conflict coloring of terms into commuting groups.

    Two terms conflict when their supports overlap and their commutator on
    the union block is nonzero.  Terms are labeled in input order; each
    takes the lowest label not used by a conflicting earlier term.
    """
    terms = list(terms)
    labels: list[int] = []
    for i, term in enumerate(terms):
        blocked: set[int] = set()
        for j in range(i):
            if not set(term.support) & set(terms[j].support):
                continue
            norm = _pair_commutator_norm(term, terms[j], lattice.local_dim)
            if norm > COMMUTATION_FACTOR * term.norm * terms[j].norm:
                blocked.add(labels[j])
        label = 1
        while label in blocked:
            label += 1
        labels.append(label)
    return tuple(labels)


def spec_to_json(spec: HamiltonianSpec) -> str:
    """Serialize a spec to the JSON wire format.

    Floats are written in shortest round-trip decimal (at most 17 significant
    digits), so dump -> load -> dump is byte-identical.
    """
    payload = {
        "model_tag": spec.model_tag,
        "N": spec.lattice.num_sites,
        "local_dim": spec.lattice.local_dim,
        "terms": [
            {
                "support": list(term.support),
                "block_real": term.block.real.tolist(),
                "block_imag": term.block.imag.tolist(),
            }
            for term in spec.terms
        ],
        "partition": list(spec.partition),
    }
    return json.dumps(payload, indent=2)


def spec_from_json(text: str) -> HamiltonianSpec:
    """Inverse of :func:`spec_to_json`.

    The locality is reconstructed as the largest support size in the file.
    """
    payload = json.loads(text)
    lattice = LatticeSpec(int(payload["N"]), int(payload["local_dim"]))
    terms = []
    for entry in payload["terms"]:
        block = np.asarray(entry["block_real"], dtype=float) \
            + 1j * np.asarray(entry["block_imag"], dtype=float)
        terms.append(LocalTerm(tuple(entry["support"]), block))
    # with no terms, HamiltonianSpec refuses the file
    locality = max((len(t.support) for t in terms), default=1)
    return HamiltonianSpec(lattice, tuple(terms), tuple(payload["partition"]),
                           locality_k=locality, model_tag=str(payload["model_tag"]))
