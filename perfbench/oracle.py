"""Independent dense reference for sampled benchmark outputs.

Takes the model definitions (local terms and their grouping) from
``trotterlab.lattice`` and nothing else from the program: the embedding,
the spectra, the exponentials, the Suzuki recursion and the norms are all
computed here, by different routes from the program's (entries scattered
by basis-index digits in place of Kronecker products and axis permutations,
SVD norms in place of Gram-matrix eigenvalues, a recursive product in place
of a stage list).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from trotterlab.lattice import build_aklt, build_long_range_heisenberg, build_mg
from workloads import LR_J0, LR_NU

TOLERANCE = 1e-10
TIE_SLACK = 1e-12   # cutoffs include eigenvalues within this share of the spectral scale


@functools.cache
def reference(model: str, n: int) -> "Reference":
    """The reference for a sweep model, built once per process."""
    models = {"aklt": build_aklt, "mg": build_mg,
              "lr_heisenberg": lambda size: build_long_range_heisenberg(size, LR_NU, LR_J0)}
    return Reference(models[model](n))


def embed(block: np.ndarray, support: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """<i|block on support, identity elsewhere|j>, written entry by entry.

    Site 0 is the most significant digit of a basis index.  Row i couples
    only to the columns that keep its digits off the support, so each row
    gets the d**|support| entries of its block row, scattered into place.
    """
    size = len(support)
    weights = d ** (n - 1 - np.asarray(support))   # place value of each support site
    index = np.arange(d ** n)
    digits = (index[:, None] // weights) % d
    local = digits @ d ** np.arange(size - 1, -1, -1)
    base = index - digits @ weights                  # row index with the support cleared
    states = np.arange(d ** size)
    offsets = ((states[:, None] // d ** np.arange(size - 1, -1, -1)) % d) @ weights
    out = np.zeros((d ** n, d ** n), dtype=complex)
    out[index[:, None], base[:, None] + offsets] = block[local]
    return out


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


class Reference:
    """Dense H, group Hamiltonians and their spectra for one spec."""

    def __init__(self, spec):
        n, d = spec.lattice.num_sites, spec.lattice.local_dim
        self.dim = d ** n
        self._parts: dict[int, np.ndarray] = {}
        for term, gamma in zip(spec.terms, spec.partition):
            part = embed(term.block, term.support, n, d)
            self._parts[gamma] = self._parts[gamma] + part if gamma in self._parts else part
        self.energies, self.vectors = np.linalg.eigh(sum(self._parts.values()))
        self.term_norms = [(term.support, float(np.linalg.norm(term.block, 2)))
                           for term in spec.terms]
        self.num_sites = n

    @functools.cached_property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Spectra of the group Hamiltonians, in label order."""
        return [np.linalg.eigh(self._parts[g]) for g in sorted(self._parts)]

    @staticmethod
    def _exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        return (v * np.exp(-1j * t * w)) @ v.conj().T

    def exact(self, t: float) -> np.ndarray:
        return self._exp(self.energies, self.vectors, t)

    def _sweep(self, s: float, forward: bool) -> np.ndarray:
        """E_G(s) ... E_1(s) when ``forward`` (group 1 acts first), else reversed."""
        out = np.eye(self.dim, dtype=complex)
        order = self.groups if forward else self.groups[::-1]
        for w, v in order:
            out = self._exp(w, v, s) @ out
        return out

    def trotter(self, p: int, t: float) -> np.ndarray:
        """Suzuki product of order p: S1, the S2 palindrome, then the fractal step."""
        if p == 1:
            return self._sweep(t, True)
        if p == 2:
            return self._sweep(t / 2, False) @ self._sweep(t / 2, True)
        u = 1.0 / (4.0 - 4.0 ** (1.0 / (p - 1)))
        outer = self.trotter(p - 2, u * t)
        outer2 = outer @ outer
        return outer2 @ self.trotter(p - 2, (1.0 - 4.0 * u) * t) @ outer2

    def low_columns(self, delta: float) -> np.ndarray:
        scale = max(1.0, float(np.abs(self.energies).max()))
        return self.vectors[:, self.energies <= delta + TIE_SLACK * scale]

    def block_size(self, delta: float) -> int:
        return self.dim if math.isinf(delta) else self.low_columns(delta).shape[1]

    def error(self, p: int, t: float, delta: float) -> float:
        """||(exp(-iHt) - T_p(t)) P_delta||; delta = inf means unrestricted."""
        diff = self.exact(t) - self.trotter(p, t)
        return spectral_norm(diff if math.isinf(delta) else diff @ self.low_columns(delta))

    def extensiveness(self) -> float:
        per_site = [0.0] * self.num_sites
        for support, norm in self.term_norms:
            for site in support:
                per_site[site] += norm
        return max(per_site)


# The verify checks whose observed value the oracle can recompute, with the
# battery's documented parameters: the AKLT N=4 cutoff series at t = 0.1,
# the AKLT N=4 leakage series and the norm cap over the built-in models.
def _delta_monotone() -> float:
    ref = Reference(build_aklt(4))
    deltas = [0.25, 0.5, 1.0, 2.0, float(ref.energies[-1]), math.inf]
    errors = [ref.error(1, 0.1, d) for d in deltas]
    return min(b - a for a, b in zip(errors, errors[1:]))


def _leakage_bound() -> float:
    """max over terms and cutoffs of ||P_above(delta') h P_below(delta)|| minus
    ||h|| exp(-(delta' - delta - 3 g |X|) / (4 k g))."""
    spec = build_aklt(4)
    ref = Reference(spec)
    n, d = spec.lattice.num_sites, spec.lattice.local_dim
    g, k = ref.extensiveness(), spec.locality_k
    worst = -math.inf
    for term, (_, norm) in zip(spec.terms, ref.term_norms):
        op = embed(term.block, term.support, n, d)
        size = len(term.support)
        for delta in (0.5, 1.0):
            low = ref.low_columns(delta)
            for step in range(5):
                delta_prime = delta + 3 * g * size + step * 2.0
                high = ref.vectors[:, ref.low_columns(delta_prime).shape[1]:]
                measured = spectral_norm(high.conj().T @ op @ low)
                gap = delta_prime - delta - 3.0 * g * size
                worst = max(worst, measured - norm * math.exp(-gap / (4.0 * k * g)))
    return worst


def _norm_cap() -> float:
    specs = [build_aklt(n) for n in (3, 4, 5)] + [build_mg(n) for n in (4, 6, 8)]
    specs.append(build_long_range_heisenberg(5, 2.0))
    worst = -math.inf
    for spec in specs:
        ref = Reference(spec)
        worst = max(worst, float(ref.energies[-1]) - ref.num_sites * ref.extensiveness())
    return worst


VERIFY_CHECKS = {
    "err-delta-monotone": _delta_monotone,
    "err-leakage-bound": _leakage_bound,
    "op-norm-cap": _norm_cap,
}
