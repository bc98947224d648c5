"""Local operator blocks scattered into a chain of sites on basis-index digits.

Convention used throughout the package, kept by ``block_entries`` alone:
site 0 is the most significant digit, i.e. the basis index of the full
space reads ``sum_i s_i * d**(n - 1 - i)`` for site states ``s_i``.
"""
from __future__ import annotations

import numpy as np


def block_entries(block: np.ndarray, where, num_sites: int, local_dim: int,
                  rows: np.ndarray | None = None, columns: np.ndarray | None = None) -> tuple:
    """Fancy index and values that scatter ``block`` on the sites ``where`` into a matrix.

    ``block`` must act on ``local_dim ** len(where)`` dimensions, its tensor
    factors ordered as listed in ``where`` (most significant first); a stack
    of such blocks on a leading axis gives a stack of values.  Row i holds
    ``values[..., i, :]``, the block row of its support digits, in the
    columns that swap those digits for each local state's.  The values are
    float64 when the imaginary part is exactly zero, complex128 otherwise.

    Sorted arrays of basis states ``rows`` and ``columns`` (default ``rows``)
    restrict the matrix to row i for ``rows[i]`` and column j for ``columns[j]``.
    An entry from ``rows`` to a state outside ``columns`` must be exactly 0, or
    ``ValueError`` is raised; the index and values then come flat, without them.
    """
    d = int(local_dim)
    n = int(num_sites)
    where = [int(i) for i in where]
    if len(set(where)) != len(where):
        raise ValueError(f"support sites must be distinct, got {where}")
    if any(i < 0 or i >= n for i in where):
        raise ValueError(f"support {where} outside chain of {n} sites")
    block = np.asarray(block)
    if np.iscomplexobj(block) and not block.imag.any():
        block = block.real
    block = block.astype(complex if np.iscomplexobj(block) else float, copy=False)
    s = len(where)
    if block.ndim not in (2, 3) or block.shape[-2:] != (d ** s, d ** s):
        raise ValueError(
            f"block of shape {block.shape} does not act on {s} sites of dimension {d}")
    states = np.arange(d ** n) if rows is None else np.asarray(rows)
    kept = states if columns is None else np.asarray(columns)
    for name, x, arg in (("rows", states, rows), ("columns", kept, columns)):
        if arg is not None and (x.ndim != 1 or x.dtype.kind not in "iu" or np.any(x[1:] <= x[:-1])
                                or (x.size and not 0 <= x[0] <= x[-1] < d ** n)):
            raise ValueError(f"{name} must be sorted distinct basis states below {d ** n}")
    weights = d ** (n - 1 - np.array(where, dtype=int))   # place value of each support site
    local = d ** np.arange(s - 1, -1, -1)
    digits = states[:, None] // weights % d
    offsets = (np.arange(d ** s)[:, None] // local % d) @ weights
    targets = states[:, None] - digits @ weights[:, None] + offsets
    values = block[..., digits @ local, :]
    here = np.arange(states.size)[:, None]
    if rows is None and columns is None:
        return (here, targets), values
    inverse = np.full(d ** n, -1)   # position of each basis state in the columns, -1 outside
    inverse[kept] = np.arange(kept.size)
    targets = inverse[targets]
    inside = targets >= 0
    if values[..., ~inside].any():
        raise ValueError(f"block on sites {where} couples the rows to other basis states")
    return (np.broadcast_to(here, targets.shape)[inside], targets[inside]), values[..., inside]


def embed_block(block: np.ndarray, where: list[int] | tuple[int, ...],
                num_sites: int, local_dim: int) -> np.ndarray:
    """Embed ``block`` (or each of a stack) on the sites in ``where``, identity
    elsewhere; see ``block_entries``."""
    index, values = block_entries(block, where, num_sites, local_dim)
    out = np.zeros(values.shape[:-1] + (values.shape[-2],), dtype=values.dtype)
    out[(...,) + index] = values
    return out


def lift_block(block: np.ndarray, where, union: tuple[int, ...], local_dim: int) -> np.ndarray:
    """``block`` (or a stack) on the sites ``where``, embedded on the sorted sites ``union``.

    The result acts on ``local_dim ** len(union)`` dimensions, its tensor
    factors ordered as ``union``: the chain restricted to those sites.
    """
    return embed_block(block, [union.index(site) for site in where], len(union), local_dim)
