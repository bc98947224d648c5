"""Mutation battery: each mutant is one exact text edit that the named tests must catch.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only these

Run from anywhere inside a checkout; the working tree is never edited.  The
named tests first run once on an unmutated copy and must pass.  Then, for
each row of ``MUTANTS``, the tree is copied to a temporary directory, the
row's old text (which must occur exactly once in its file) is replaced by
its new text, and the row's tests run there with pytest.  A mutant is
killed when pytest reports failures or errors, and survives when the tests
pass.  Prints a Markdown table and exits 1 when a mutant survives, when an
old text is not found exactly once (moved code fails loudly), or when the
baseline or a pytest run itself goes wrong; otherwise 0.  Not part of the
Tier-1 suite: one full run takes a few minutes.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks", "out")
RUN_TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str            # relative to the root of the checkout
    old: str             # exact text, found exactly once
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("sector-map-drops-a-state", "src/trotterlab/errors.py",
           "for label in range(charge.max() + 1):",
           "for label in range(1, charge.max() + 1):",   # basis state 0 is its own U(1) sector
           ("tests/test_errors.py::test_lab_runs_one_eigh_per_charge_sector",
            "tests/test_errors.py::test_lab_bytes_counts_the_listing",
            "tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle")),
    Mutant("detection-ignores-off-charge-entries", "src/trotterlab/operators.py",
           "return not block[np.not_equal.outer(local_charge, local_charge)].any()",
           "return True",
           ("tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle",)),
    Mutant("plan-accepts-any-label", "src/trotterlab/formulas.py",
           "            if not 1 <= gamma <= self.gamma_count:\n"
           "                raise ValueError(",
           "            if False:\n"
           "                raise ValueError(",
           ("tests/test_formulas.py::test_apply_plan_refuses_bad_labels",
            "tests/test_formulas.py::test_validate_plan_catches_tampering")),
    Mutant("second-order-not-palindromic", "src/trotterlab/formulas.py",
           "stages = forward + forward[::-1]", "stages = forward + forward",
           ("tests/test_formulas.py",)),
    Mutant("stepped-plan-keeps-full-time", "src/trotterlab/errors.py",
           "apply_plan(stepped, sector.part_spectra, t / steps,",
           "apply_plan(stepped, sector.part_spectra, t,",
           ("tests/test_errors.py",)),
    Mutant("basis-transposed-without-conjugate", "src/trotterlab/formulas.py",
           "apply_matrix(parts_spectra[current - 1].eigenvectors.conj().T, block)",
           "apply_matrix(parts_spectra[current - 1].eigenvectors.T, block)",
           ("tests/test_block_property.py::test_block_errors_match_dense_oracle",)),
    Mutant("transition-without-adjoint", "src/trotterlab/formulas.py",
           "step if gamma < current else step.conj().T", "step",
           ("tests/test_formulas.py",)),
    Mutant("merged-stages-keep-one-coefficient", "src/trotterlab/formulas.py",
           "sum(alpha for _, alpha in stages)", "next(stages)[1]",
           ("tests/test_formulas.py",)),
    Mutant("errors-skip-first-sector", "src/trotterlab/errors.py",
           "for s, sector in enumerate(self._visited):",
           "for s, sector in enumerate(self._visited[1:], start=1):",
           ("tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle",)),
    Mutant("errors-keep-last-sector-norm", "src/trotterlab/errors.py",
           "norms = [max(norm, _matrix_norm(diff[:, :m]))",
           "norms = [(norm, _matrix_norm(diff[:, :m]))[1]",
           ("tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle",)),
    Mutant("leakage-high-side-keeps-every-column", "src/trotterlab/errors.py",
           "[slice(m, None) for m in", "[slice(None) for m in",
           ("tests/test_errors.py::test_leakage_identity_and_high_cutoff",)),
    Mutant("prefix-off-by-one", "src/trotterlab/errors.py",
           "_matrix_norm(diff[:, :m])", "_matrix_norm(diff[:, :m + 1])",
           ("tests/test_block_property.py::test_block_errors_match_dense_oracle",)),
    Mutant("apply-matrix-drops-imaginary-part", "src/trotterlab/operators.py",
           "return (a @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)",
           "return (a @ x.real).astype(np.complex128)",
           ("tests/test_operators.py",)),
    Mutant("reversed-place-values", "src/trotterlab/embedding.py",
           "weights = d ** (n - 1 - np.array(where, dtype=int))",
           "weights = d ** np.array(where, dtype=int)",
           ("tests/test_embedding_property.py",)),
    Mutant("reversed-local-factor-order", "src/trotterlab/embedding.py",
           "local = d ** np.arange(s - 1, -1, -1)", "local = d ** np.arange(s)",
           ("tests/test_embedding_property.py",)),
    Mutant("union-lift-reversed", "src/trotterlab/embedding.py",
           "[union.index(site) for site in where]",
           "[len(union) - 1 - union.index(site) for site in where]",
           ("tests/test_block_property.py::test_block_commutator_sum_matches_projector_sandwich",)),
    Mutant("pruning-needs-two-shared-sites", "src/trotterlab/errors.py",
           "if set(support).isdisjoint(union) or",
           "if len(set(support) & set(union)) < 2 or",
           ("tests/test_block_property.py::test_qutrit_commutator_sum_matches_dense_oracle",)),
    Mutant("projected-contraction-drops-conj", "src/trotterlab/errors.py",
           "_matrix_norm(flat.conj().T @", "_matrix_norm(flat.T @",
           ("tests/test_block_property.py::test_block_commutator_sum_matches_projector_sandwich",)),
    Mutant("expectation-walk-one-level-short", "src/trotterlab/errors.py",
           "_walk_sum(spec, depth, [psi[:, None]])", "_walk_sum(spec, depth - 1, [psi[:, None]])",
           ("tests/test_block_property.py::test_expectation_sum_matches_dense_oracle",)),
    Mutant("walk-cross-pair-weight-one", "src/trotterlab/errors.py",
           "(2 if root and support != union else 1)", "1",
           ("tests/test_errors.py::test_nested_commutator_sum_matches_brute_force",
            "tests/test_block_property.py::"
            "test_basis_list_walk_matches_single_calls_and_dense_oracle")),
    Mutant("walk-revisits-earlier-supports", "src/trotterlab/errors.py",
           " or root and support < union:", ":",
           ("tests/test_errors.py::test_nested_commutator_sum_matches_brute_force",
            "tests/test_block_property.py::"
            "test_basis_list_walk_matches_single_calls_and_dense_oracle")),
    Mutant("prune-drops-nonzero", "src/trotterlab/errors.py",
           "keep = batch.reshape(len(batch), -1).any(axis=1)",
           "keep = batch.reshape(len(batch), -1).all(axis=1)",
           ("tests/test_block_property.py::"
            "test_basis_list_walk_matches_single_calls_and_dense_oracle",)),
    Mutant("spin-route-takes-sector-zero", "src/trotterlab/errors.py",
           "(label == n * (d - 1) // 2)", "(label == 0)",
           ("tests/test_errors.py::test_lab_bytes_counts_the_listing",
            "tests/test_block_property.py::"
            "test_spin_invariant_errors_from_one_sector_match_dense_oracle")),
    Mutant("every-block-a-spin-projector", "src/trotterlab/operators.py",
           "if not any(np.array_equal(term.block, proj) for proj in projectors[k]):",
           "if False:",
           ("tests/test_operators.py::test_spin_projector_terms_by_bit_equality",
            "tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle")),
    Mutant("minus-half-folded-with-plus", "src/trotterlab/errors.py",
           "        half[:pairs, :pairs] -= mirror", "        half[:pairs, :pairs] += mirror",
           ("tests/test_block_property.py::test_flip_halves_match_dense_oracle",)),
    Mutant("fold-swaps-mirror-signs", "src/trotterlab/errors.py",
           "    if sign > 0:\n        half[:pairs, :pairs] += mirror",
           "    if sign < 0:\n        half[:pairs, :pairs] += mirror",
           ("tests/test_errors.py::test_sector_blocks_are_the_fold_of_the_dense_assembly",
            "tests/test_block_property.py::test_flip_halves_match_dense_oracle")),
    Mutant("plus-half-drops-fixed-point", "src/trotterlab/errors.py",
           "(rows.size + (sign > 0)) // 2 if sign", "rows.size // 2 if sign",
           ("tests/test_errors.py::test_lab_runs_one_eigh_per_charge_sector",
            "tests/test_errors.py::test_sector_blocks_are_the_fold_of_the_dense_assembly",
            "tests/test_block_property.py::test_flip_halves_match_dense_oracle")),
    Mutant("run-scattered-out-of-term-order", "src/trotterlab/operators.py",
           "for gamma, value in zip(gammas, values):",
           "for gamma, value in zip(gammas[::-1], values[::-1]):",
           ("tests/test_embedding_property.py::test_assemble_matches_kron_assemble",
            "tests/test_errors.py::test_sector_blocks_are_the_fold_of_the_dense_assembly")),
    Mutant("fixed-point-coupling-without-sqrt2", "src/trotterlab/errors.py",
           "    half[pairs:, :pairs] *= math.sqrt(2)   # the fixed point's couplings, if any\n"
           "    half[:pairs, pairs:] *= math.sqrt(2)\n",
           "",
           ("tests/test_block_property.py::test_flip_halves_match_dense_oracle",)),
    Mutant("lift-partner-without-sign", "src/trotterlab/errors.py",
           "= self.sign * out[self.rows[:pairs]]", "= out[self.rows[:pairs]]",
           ("tests/test_block_property.py::test_flip_halves_match_dense_oracle",)),
    Mutant("mirror-skip-visits-larger-label", "src/trotterlab/errors.py",
           "else label <= image\n", "else label >= image\n",
           ("tests/test_errors.py::test_errors_skip_mirror_sectors",)),
    Mutant("mirror-skip-drops-self-mapped-sector", "src/trotterlab/errors.py",
           "else label <= image\n", "else label < image\n",
           ("tests/test_block_property.py::test_flip_halves_match_dense_oracle",)),
    Mutant("mirror-lift-without-flip", "src/trotterlab/errors.py",
           "return self.image.lift(vectors)[::-1]", "return self.image.lift(vectors)",
           ("tests/test_errors.py::test_lab_runs_one_eigh_per_charge_sector",
            "tests/test_errors.py::test_mirror_sectors_read_their_image")),
    Mutant("mirror-builds-its-own-spectrum", "src/trotterlab/errors.py",
           "        if self.image is not None:\n            return self.image.spectrum\n",
           "",
           ("tests/test_errors.py::test_lab_runs_one_eigh_per_charge_sector",
            "tests/test_errors.py::test_mirror_sectors_read_their_image")),
    Mutant("unvisited-sector-keeps-blocks", "src/trotterlab/errors.py",
           'parts if self.visited and "part_spectra" not in vars(self) else None',
           "parts",
           ("tests/test_errors.py::test_unvisited_sectors_keep_no_blocks",)),
    Mutant("components-one-direction", "src/trotterlab/errors.py",
           "np.concatenate([i, j]), np.concatenate([j, i])", "i, j",
           ("tests/test_block_property.py::test_block_eigh_matches_eigh",)),
    Mutant("components-read-upper-triangle", "src/trotterlab/errors.py",
           "lower = i > j", "lower = i < j",
           ("tests/test_block_property.py::test_block_eigh_matches_eigh",)),
    Mutant("block-eigenvalues-unsorted", "src/trotterlab/errors.py",
           "eigenvalues=values[ascending]", "eigenvalues=values",
           ("tests/test_block_property.py::test_block_eigh_matches_eigh",
            "tests/test_errors.py::test_block_eigh_stacks_blocks_of_one_size")),
    Mutant("singleton-block-loses-diagonal", "src/trotterlab/errors.py",
           "eigh(matrix[states[:, :, None], states[:, None, :]])",
           "eigh(matrix[states[:, :, None], states[:, None, :]] * (size > 1))",
           ("tests/test_block_property.py::test_block_eigh_of_a_diagonal_is_its_sorted_diagonal",
            "tests/test_block_property.py::test_block_eigh_matches_eigh")),
    Mutant("every-spec-flip-invariant", "src/trotterlab/operators.py",
           "return all(np.array_equal(term.block, term.block[::-1, ::-1]) for term in spec.terms)",
           "return True",
           ("tests/test_block_property.py::test_block_one_ulp_off_the_flip_does_not_qualify",
            "tests/test_block_property.py::test_sector_spectra_and_errors_match_dense_oracle")),
    Mutant("sector-assembly-skips-zero-check", "src/trotterlab/embedding.py",
           "if values[..., ~inside].any():", "if False:",
           ("tests/test_operators.py::test_sector_assembly_refuses_rows_that_leak",)),
    Mutant("lab-bytes-drops-the-assembly", "src/trotterlab/errors.py",
           "(gamma + 1) * assembly + sum(squares)", "sum(squares)",
           ("tests/test_errors.py::test_lab_bytes_counts_the_listing",
            "tests/test_errors.py::test_lab_bytes_covers_measured_peak")),
    Mutant("sweep-admits-each-lab-after-the-previous-ran", "src/trotterlab/cli.py",
           "    labs = _admit(config)\n"
           "    # one lab at a time, each dropped once its rows are done\n"
           "    rows = sorted((row for n in config.n_list "
           "for row in _task_rows(config, n, labs.pop(n))),\n",
           "    rows = sorted((row for n in config.n_list for row in "
           "_task_rows(config, n, _admit(replace(config, n_list=(n,)))[n])),\n",
           ("tests/test_cli.py::test_sweep_rejects_before_any_lab",)),
    Mutant("sweep-keeps-every-lab", "src/trotterlab/cli.py",
           "_task_rows(config, n, labs.pop(n))", "_task_rows(config, n, labs[n])",
           ("tests/test_cli.py::test_sweep_drops_each_lab_once_its_rows_are_done",)),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """Exit code of pytest on ``tests`` inside ``tree``, importing its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode


def _run(mutant: Mutant | None, tests: tuple[str, ...]) -> str:
    """'killed', 'survived', 'passed' or an error, for one copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            found = text.count(mutant.old)
            if found != 1:
                return f"error: old text found {found} times"
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = _pytest(tree, tests)
    if code == 0:
        return "passed" if mutant is None else "survived"
    if code in (1, 2):   # test failures, or errors while collecting them
        return "failed" if mutant is None else "killed"
    return f"error: pytest exit code {code}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    baseline = _run(None, tests)
    print(f"baseline ({len(tests)} test targets, unmutated): {baseline}")
    if baseline != "passed":
        return 1
    print("| mutant | file | result |")
    print("|---|---|---|")
    results = []
    for mutant in chosen:
        result = _run(mutant, mutant.tests)
        results.append(result)
        print(f"| {mutant.name} | `{mutant.path}` | {result} |", flush=True)
    return 0 if all(result == "killed" for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
