"""Command-line front end: error sweeps, bound tables, invariant battery, model dumps.

Sweep configs are flat ``key = value`` text (see the README for the
grammar); all CSV output uses one fixed column set with empty cells for
non-applicable columns, floats in shortest round-trip decimal, and rows
sorted lexicographically, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

from .bounds import (BoundInputs, FORMULA_COMMUTATOR, FORMULA_COUNT_CONST,
                     FORMULA_COUNT_GENERAL, FORMULA_WEAKLY_CORRELATED,
                     const_gamma_error_bound, generic_error_bound,
                     projected_commutator_bound, trotter_count_formula,
                     weakly_correlated_number)
from .errors import ErrorLab
from .formulas import suzuki_plan
from .lattice import (build_aklt, build_long_range_heisenberg, build_mg,
                      extensiveness, spec_to_json)
from .verify import results_to_csv, run_verify

CSV_HEADER = ["model", "N", "p", "Gamma", "t", "delta", "error_kind", "error_value",
              "bound_cor_s4", "bound_thm_s3", "delta_prime", "p0",
              "time_condition_ok", "formula_id"]

MODELS = ("aklt", "mg", "lr_heisenberg")
_ORDERS = (1, 2, 4, 6)
# largest admitted round-off 2**-53 t N g of a phase exp(-iEt), E <= N g: the
# 1e-12 gate at which the block route matches the dense oracle
PHASE_ROUNDOFF_LIMIT = 1e-12

# bounds input column -> (BoundInputs field, type); the first nine are required
_BOUNDS_FIELDS = {"N": ("num_sites", int), "k": ("locality", int),
                  "g": ("extensiveness", float), "Gamma": ("gamma_count", int),
                  "p": ("order_p", int), "delta": ("delta", float), "t": ("time", float),
                  "eps_total": ("eps_total", float), "eps_small": ("eps_small", float),
                  "c_conc": ("concentration_c", float),
                  "energy_expect": ("energy_expectation", float)}
BOUNDS_REQUIRED_COLUMNS = tuple(_BOUNDS_FIELDS)[:9]


class ConfigError(ValueError):
    """Bad config file or flag combination; mapped to exit code 2."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep grid; construction refuses every value that is bad without a model."""

    model: str
    n_list: tuple[int, ...]
    p_list: tuple[int, ...]
    t_list: tuple[float, ...]
    delta_list: tuple[float, ...]
    bounds: bool = False
    output_path: str | None = None
    eps_small: float = 0.01
    nu: float = 2.0
    j0: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"key 'model': unknown model {self.model!r}")
        if not self.n_list:
            raise ConfigError("key 'n': empty list")
        if not self.p_list or any(p not in _ORDERS for p in self.p_list):
            raise ConfigError(f"key 'p': orders must be among {_ORDERS}")
        if not self.t_list or not all(0 <= t < math.inf for t in self.t_list):
            raise ConfigError("key 't': need a nonempty list of finite nonnegative times")
        if not self.delta_list or not all(d >= 0 for d in self.delta_list):
            raise ConfigError("key 'delta': need a nonempty list of cutoffs >= 0 or inf")
        if not 0 < self.eps_small < 1:
            raise ConfigError("key 'eps_small': must lie in (0, 1)")
        if not (0 <= self.nu < math.inf and 0 < self.j0 < math.inf):
            raise ConfigError("keys 'nu'/'j0': need finite nu >= 0 and j0 > 0")
        for key, entries in (("n", self.n_list), ("p", self.p_list),
                             ("t", self.t_list), ("delta", self.delta_list)):
            if len(set(entries)) != len(entries):
                raise ConfigError(f"key {key!r}: repeated entry in {entries}")


_CONFIG_KEYS = ("model", "n", "p", "t", "delta", "bounds", "out",
                "eps_small", "workers", "nu", "j0")
_REQUIRED_KEYS = ("model", "n", "p", "t", "delta")


def _parse_scalar(key: str, text: str, kind) -> object:
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}") from exc


def _parse_list(key: str, text: str, kind) -> tuple:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise ConfigError(f"key {key!r}: empty list entry in {text!r}")
    return tuple(_parse_scalar(key, piece, kind) for piece in items)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat key = value grammar; keys left out take the SweepConfig defaults."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        values[key] = value
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    optional: dict = {}
    if "bounds" in values:
        bounds_text = values["bounds"].lower()
        if bounds_text not in ("true", "false"):
            raise ConfigError(f"key 'bounds': expected true or false, got {values['bounds']!r}")
        optional["bounds"] = bounds_text == "true"
    if "workers" in values and _parse_scalar("workers", values["workers"], int) != 1:
        raise ConfigError("key 'workers': sweeps run one chain size at a time, "
                          "so only 1 is accepted")
    if "out" in values:
        optional["output_path"] = values["out"]
    for key in ("eps_small", "nu", "j0"):
        if key in values:
            optional[key] = _parse_scalar(key, values[key], float)
    return SweepConfig(
        model=values["model"],
        n_list=_parse_list("n", values["n"], int),
        p_list=_parse_list("p", values["p"], int),
        t_list=_parse_list("t", values["t"], float),
        delta_list=_parse_list("delta", values["delta"], float),
        **optional)


def _admit(config: SweepConfig) -> dict:
    """Check the output path, then build and admit ``{n: lab}``, one lab per chain size
    (each builds its sectors on first use), then the eps_small floor at the
    largest N and the phase round-off at the largest t."""
    _check_output_path(config.output_path)
    try:
        labs = {n: ErrorLab(_build_model(config.model, n, config.nu, config.j0))
                for n in config.n_list}
    except ValueError as exc:
        raise ConfigError(f"key 'n': {exc}") from exc
    if not math.isfinite(2 * max(labs) / config.eps_small):
        raise ConfigError(f"key 'eps_small': {config.eps_small!r} is too small, "
                          f"2 N / eps_small is not finite at N = {max(labs)}")
    t_max = max(config.t_list)
    for n, lab in labs.items():
        roundoff = 2.0 ** -53 * t_max * n * extensiveness(lab.spec)
        if roundoff > PHASE_ROUNDOFF_LIMIT:
            raise ConfigError(f"key 't': at t = {t_max!r} the phases exp(-iEt) of "
                              f"{config.model} N={n} round off by up to {roundoff:.4g}, "
                              f"above {PHASE_ROUNDOFF_LIMIT:g}")
    return labs


def _build_model(model: str, n: int, nu: float, j0: float):
    if model == "aklt":
        return build_aklt(n)
    if model == "mg":
        return build_mg(n)
    return build_long_range_heisenberg(n, nu, j0)


def _empty_row() -> dict:
    return dict.fromkeys(CSV_HEADER)


def _task_rows(config: SweepConfig, n: int, lab: ErrorLab) -> list[dict]:
    spec = lab.spec
    g = extensiveness(spec)
    k = spec.locality_k
    gamma = spec.gamma_count
    energy_cap = n * g
    rows = []
    for p in config.p_list:
        plan = suzuki_plan(p, gamma)
        for t in config.t_list:
            values = lab.errors(plan, t, config.delta_list)
            for delta, value in zip(config.delta_list, values):
                row = _empty_row()
                row.update(model=config.model, N=n, p=p, Gamma=gamma, t=t, delta=delta,
                           error_kind="full" if math.isinf(delta) else "projected",
                           error_value=value)
                if config.bounds and not math.isinf(delta) and 0 <= delta <= energy_cap:
                    inputs = BoundInputs(n, k, g, gamma, p, delta, t,
                                         eps_total=config.eps_small,
                                         eps_small=config.eps_small)
                    const_report = const_gamma_error_bound(inputs)
                    generic_report = generic_error_bound(inputs)
                    row.update(bound_cor_s4=const_report.bound_value,
                               bound_thm_s3=generic_report.bound_value,
                               time_condition_ok=(const_report.time_condition_ok
                                                  and generic_report.time_condition_ok))
                rows.append(row)
    return rows


def _sort_key(row: dict):
    return (row["model"], row["N"], row["p"], row["t"], row["delta"])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_cell(row[name]) for name in CSV_HEADER])
    return buffer.getvalue()


def _check_output_path(path: str | None) -> None:
    """Refuse, before any work, an output path in a missing directory or naming one."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output directory of {path!r} does not exist")
    if path and os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")


def _write_atomic(path: str, text: str) -> None:
    """Write via a unique temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def run_sweep(config: SweepConfig) -> str:
    """Admit each chain size, evaluate the grid, return (and optionally write) the sorted CSV."""
    labs = _admit(config)
    # one lab at a time, each dropped once its rows are done
    rows = sorted((row for n in config.n_list for row in _task_rows(config, n, labs.pop(n))),
                  key=_sort_key)
    text = rows_to_csv(rows)
    if config.output_path:
        _write_atomic(config.output_path, text)
    return text


def _parse_bounds_record(record: dict) -> BoundInputs:
    fields = {}
    for column, (name, kind) in _BOUNDS_FIELDS.items():
        raw = (record.get(column) or "").strip()
        if raw:
            fields[name] = kind(raw)
        elif column in BOUNDS_REQUIRED_COLUMNS:
            raise ValueError(f"missing value for {column!r}")
    return BoundInputs(**fields)


def _bound_rows(inputs: BoundInputs) -> list[dict]:
    """One CSV row per bound family evaluated on one input row."""

    def stamped(**fields) -> dict:
        row = _empty_row()
        row.update(N=inputs.num_sites, p=inputs.order_p, Gamma=inputs.gamma_count,
                   t=inputs.time, delta=inputs.delta)
        row.update(fields)
        return row

    const_report = const_gamma_error_bound(inputs)
    generic_report = generic_error_bound(inputs)
    commutator_cap = projected_commutator_bound(
        inputs.order_p, inputs.locality, inputs.extensiveness, inputs.delta)
    rows = [
        stamped(bound_cor_s4=const_report.bound_value,
                delta_prime=const_report.delta_prime,
                time_condition_ok=const_report.time_condition_ok,
                formula_id=const_report.formula_id),
        stamped(bound_thm_s3=generic_report.bound_value,
                delta_prime=generic_report.delta_prime,
                p0=generic_report.p0,
                time_condition_ok=generic_report.time_condition_ok,
                formula_id=generic_report.formula_id),
        stamped(error_value=commutator_cap, formula_id=FORMULA_COMMUTATOR),
        stamped(error_value=trotter_count_formula(inputs, "const_gamma"),
                formula_id=FORMULA_COUNT_CONST),
        stamped(error_value=trotter_count_formula(inputs, "general"),
                formula_id=FORMULA_COUNT_GENERAL),
    ]
    if inputs.energy_expectation is not None:
        x, count = weakly_correlated_number(inputs)
        rows.append(stamped(error_value=count,
                            delta_prime=inputs.energy_expectation + x,
                            formula_id=FORMULA_WEAKLY_CORRELATED))
    return rows


def run_bounds(text: str) -> tuple[str, list[str]]:
    """Evaluate every bound family per input row; returns (csv, diagnostics)."""
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [col for col in BOUNDS_REQUIRED_COLUMNS if col not in header]
    if missing:
        raise ConfigError(f"bounds input is missing columns {missing}")
    rows: list[dict] = []
    diagnostics: list[str] = []
    for number, record in enumerate(reader, start=2):
        try:
            rows += _bound_rows(_parse_bounds_record(record))
        except (ValueError, TypeError, OverflowError) as exc:
            diagnostics.append(f"row {number}: rejected ({exc})")
    return rows_to_csv(rows), diagnostics


def _read_input(path: str, what: str) -> str:
    """Read a UTF-8 text file; an unreadable or non-UTF-8 one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    config = parse_sweep_config(_read_input(args.config, "config"))
    if args.out is not None:
        config = replace(config, output_path=args.out)
    text_out = run_sweep(config)
    if not config.output_path:
        sys.stdout.write(text_out)
    return 0


def _cmd_bounds(args) -> int:
    csv_text, diagnostics = run_bounds(_read_input(args.inputs, "inputs"))
    for line in diagnostics:
        print(line, file=sys.stderr)
    if args.out:
        _write_atomic(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 1 if diagnostics else 0


def _cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    results = run_verify(seed=args.seed if args.seed is not None else 0)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = "" if result.observed is None else f" observed={result.observed!r}"
        print(f"{status} {result.check_id}{detail}")
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if args.out:
        _write_atomic(args.out, results_to_csv(results))
    return 1 if failures else 0


def _cmd_dump_model(args) -> int:
    try:
        spec = _build_model(args.model, args.n, args.nu, args.j0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = spec_to_json(spec) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description="Exact product-formula errors on low-energy subspaces")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run an error sweep from a config file")
    sweep.add_argument("config", help="flat key = value config file")
    sweep.add_argument("--out", help="output CSV path (overrides the config)")
    sweep.set_defaults(func=_cmd_sweep)

    bounds = sub.add_parser("bounds", help="evaluate bound formulas for input rows")
    bounds.add_argument("inputs", help="CSV of scalar inputs, one row per evaluation")
    bounds.add_argument("--out", help="output CSV path")
    bounds.set_defaults(func=_cmd_bounds)

    verify = sub.add_parser("verify", help="run the invariant battery")
    verify.add_argument("--out", help="write the check table as CSV")
    verify.add_argument("--seed", type=int, help="seed for sampled checks")
    verify.set_defaults(func=_cmd_verify)

    dump = sub.add_parser("dump-model", help="print a built-in model as JSON")
    dump.add_argument("--model", required=True, choices=MODELS)
    dump.add_argument("--n", required=True, type=int, help="number of sites")
    dump.add_argument("--nu", type=float, default=2.0, help="long-range decay exponent")
    dump.add_argument("--j0", type=float, default=1.0, help="long-range base coupling")
    dump.add_argument("--out", help="output path (default stdout)")
    dump.set_defaults(func=_cmd_dump_model)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_output_path(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
