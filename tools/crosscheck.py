"""Cross-check: the lab's symmetry route against the plain charge-sector route, above the oracle.

    python3 tools/crosscheck.py

The dense oracle of ``tests/`` stops near AKLT N=7 and MG N=11.  Above it,
the reference is the same ``ErrorLab`` with its symmetry detectors off:
``spin_projector_terms`` and ``flip_invariant`` return False, so every
charge sector is whole and visited, with no fold, mirror or one-sector
route, and each sector spectrum is one ``np.linalg.eigh`` of the whole
sector matrix, not ``block_eigh``.  Both routes run ``ErrorLab.errors`` on
the grid below.  Prints a Markdown table with one row per error, then the
largest absolute difference; exits 1 when it exceeds 1e-12.  Not part of the
Tier-1 suite: one run takes about 10 minutes and up to 2.5 GB.
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import trotterlab as tl  # noqa: E402
from trotterlab import errors  # noqa: E402

MODELS = (("aklt", 9, tl.build_aklt), ("mg", 14, tl.build_mg))
ORDERS = (2, 4)
T = 0.5
DELTAS = (0.5, 1.0, math.inf)
TOLERANCE = 1e-12


def reference_route():
    """Patches ``errors`` so that a lab built inside takes every charge sector whole."""
    return mock.patch.multiple(errors, spin_projector_terms=lambda spec: False,
                               flip_invariant=lambda spec: False, block_eigh=np.linalg.eigh)


def run(spec: tl.HamiltonianSpec) -> tuple[list[list[float]], float, list[int]]:
    """Errors per order over ``DELTAS``, the seconds they took, the visited sector sizes."""
    start = time.perf_counter()
    lab = tl.ErrorLab(spec)
    values = [lab.errors(tl.suzuki_plan(p, spec.gamma_count), T, DELTAS) for p in ORDERS]
    visited = [sector.size for sector in lab.sectors if sector.visited]
    return values, time.perf_counter() - start, visited


def main() -> int:
    rows, summary, worst = [], [], 0.0
    for model, n, build in MODELS:
        spec = build(n)
        lab_values, lab_s, lab_visited = run(spec)
        with reference_route():
            ref_values, ref_s, ref_visited = run(spec)
        for p, lab_row, ref_row in zip(ORDERS, lab_values, ref_values):
            for delta, a, b in zip(DELTAS, lab_row, ref_row):
                worst = max(worst, abs(a - b))
                rows.append(f"| {model} N={n} | {p} | {delta} | {a!r} | {b!r} | {abs(a - b):.1e} |")
        summary.append(f"| {model} N={n} | {lab_s:.1f} s, visits {len(lab_visited)} sectors "
                       f"up to {max(lab_visited)} | {ref_s:.1f} s, visits {len(ref_visited)} "
                       f"sectors up to {max(ref_visited)} |")
    print(f"t = {T}; lab route against the reference (every charge sector whole, plain eigh)\n")
    print("| model | p | delta | lab | reference | difference |\n|---|---|---|---|---|---|")
    print("\n".join(rows))
    print("\n| model | lab | reference |\n|---|---|---|")
    print("\n".join(summary))
    print(f"\nlargest difference: {worst:.1e} (tolerance {TOLERANCE:.0e})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
