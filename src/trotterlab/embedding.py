"""Kronecker embedding of local operator blocks into a chain of sites.

Convention used throughout the package: site 0 is the most significant
tensor factor, i.e. the basis index of the full space reads
``sum_i s_i * d**(n - 1 - i)`` for site states ``s_i``.
"""
from __future__ import annotations

import numpy as np


def embed_block(block: np.ndarray, where: list[int] | tuple[int, ...],
                num_sites: int, local_dim: int) -> np.ndarray:
    """Embed ``block`` acting on the sites in ``where``, identity elsewhere.

    ``block`` must act on ``local_dim ** len(where)`` dimensions, its tensor
    factors ordered as listed in ``where`` (most significant first).  The
    support need not be contiguous.  The result is float64 when the block's
    imaginary part is exactly zero, complex128 otherwise.
    """
    d = int(local_dim)
    n = int(num_sites)
    where = [int(i) for i in where]
    if len(set(where)) != len(where):
        raise ValueError(f"support sites must be distinct, got {where}")
    if any(i < 0 or i >= n for i in where):
        raise ValueError(f"support {where} outside chain of {n} sites")
    block = np.asarray(block, dtype=complex)
    if not block.imag.any():
        block = block.real
    s = len(where)
    if block.shape != (d ** s, d ** s):
        raise ValueError(
            f"block of shape {block.shape} does not act on {s} sites of dimension {d}")
    rest = [i for i in range(n) if i not in set(where)]
    full = np.kron(block, np.eye(d ** (n - s), dtype=block.dtype))
    order = where + rest
    if order == list(range(n)):
        return full
    # full, reshaped to 2n site axes, carries site order[a] on axis a; permute
    # so that output axis k carries site k.
    src = [order.index(site) for site in range(n)]
    perm = src + [n + a for a in src]
    out = full.reshape((d,) * (2 * n)).transpose(perm).reshape(d ** n, d ** n)
    return np.ascontiguousarray(out)
