"""Cross-check: the lab's symmetry route against the plain charge-sector route, above the oracle.

    python3 tools/crosscheck.py

The dense oracle of ``tests/`` stops near AKLT N=7 and MG N=11.  Above it,
the reference is the same ``ErrorLab`` with its symmetry detectors off:
``spin_projector_terms`` and ``flip_invariant`` return False, so every
charge sector is whole and visited, with no fold, mirror or one-sector
route, and each sector spectrum is one ``np.linalg.eigh`` of the whole
sector matrix, not ``block_eigh``.  Both routes run ``ErrorLab.errors`` on
the grid below, and ``trotter_number_certified`` at p = 2, t = 1, delta = 1
and eps = 1e-3.  Prints a Markdown table with one row per error, then the
largest absolute difference and the certified step counts; exits 1 when the
difference exceeds 1e-12 or the step counts differ.  Not part of the Tier-1
suite: one run takes about 10 minutes and up to 2.5 GB.
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
CERTIFIED = dict(t=1.0, delta=1.0, eps_total=1e-3)   # at p = 2


def reference_route():
    """Patches ``errors`` so that a lab built inside takes every charge sector whole."""
    return mock.patch.multiple(errors, spin_projector_terms=lambda spec: False,
                               flip_invariant=lambda spec: False, block_eigh=np.linalg.eigh)


def run(spec: tl.HamiltonianSpec) -> tuple[list[list[float]], int, float, list[int]]:
    """Errors per order over ``DELTAS``, the ``CERTIFIED`` step count, the seconds they
    took, the visited sector sizes."""
    start = time.perf_counter()
    lab = tl.ErrorLab(spec)
    values = [lab.errors(tl.suzuki_plan(p, spec.gamma_count), T, DELTAS) for p in ORDERS]
    steps = tl.trotter_number_certified(lab, tl.suzuki_plan(2, spec.gamma_count), **CERTIFIED)
    visited = [sector.size for sector in lab.sectors if sector.visited]
    return values, steps, time.perf_counter() - start, visited


def main() -> int:
    rows, summary, certified, worst, agree = [], [], [], 0.0, True
    for model, n, build in MODELS:
        spec = build(n)
        lab_values, lab_steps, lab_s, lab_visited = run(spec)
        with reference_route():
            ref_values, ref_steps, ref_s, ref_visited = run(spec)
        agree &= lab_steps == ref_steps
        certified.append(f"| {model} N={n} | {lab_steps} | {ref_steps} |")
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
    print("\ncertified step count at p = 2, "
          + ", ".join(f"{key} = {value}" for key, value in CERTIFIED.items()) + "\n")
    print("| model | lab | reference |\n|---|---|---|")
    print("\n".join(certified))
    print(f"\nstep counts {'agree' if agree else 'DIFFER'}")
    return 0 if worst <= TOLERANCE and agree else 1


if __name__ == "__main__":
    sys.exit(main())
