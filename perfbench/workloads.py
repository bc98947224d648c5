"""Workload inputs drawn from the workload seed, and invariant checks on the outputs.

The seed draws only the sweep times t; everything else about a workload is
fixed here.  The program receives only the generated config text (sweeps) or
the seed itself (the verify battery, whose sampled checks take a seed).
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep_projected", "sweep_full_lr", "verify")
T_LOW, T_HIGH = 0.02, 0.5
LR_NU, LR_J0 = 2.0, 1.0   # decay exponent and base coupling of the long-range chain
MONOTONE_SLACK = 1e-12   # round-off allowance when two cutoffs give near-equal errors


@dataclass(frozen=True)
class Sweep:
    """One sweep config: the grid it asks for and the text the program parses."""

    model: str
    n: int
    p_list: tuple[int, ...]
    t_list: tuple[float, ...]
    delta_list: tuple[float, ...]
    bounds: bool
    extra: tuple[tuple[str, str], ...] = ()

    @property
    def text(self) -> str:
        lines = [f"model = {self.model}", f"n = {self.n}",
                 "p = " + ", ".join(str(p) for p in self.p_list),
                 "t = " + ", ".join(repr(t) for t in self.t_list),
                 "delta = " + ", ".join("inf" if math.isinf(d) else repr(d)
                                        for d in self.delta_list),
                 f"bounds = {'true' if self.bounds else 'false'}", "workers = 1"]
        lines += [f"{key} = {value}" for key, value in self.extra]
        return "\n".join(lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def keys(self) -> list[tuple]:
        """Every (model, N, p, t, delta) row the sweep must return."""
        return [(self.model, self.n, p, t, d)
                for p in self.p_list for t in self.t_list for d in self.delta_list]


@dataclass(frozen=True)
class Inputs:
    seed: int
    sweeps: tuple[Sweep, ...] = ()
    verify_seed: int | None = None


def _times(rng: random.Random, count: int) -> tuple[float, ...]:
    """``count`` distinct times, log-uniform in [T_LOW, T_HIGH], six digits."""
    times: set[float] = set()
    while len(times) < count:
        draw = math.exp(rng.uniform(math.log(T_LOW), math.log(T_HIGH)))
        times.add(float(f"{draw:.6g}"))
    return tuple(sorted(times))


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(seed)
    if workload == "sweep_projected":
        times = _times(rng, 2)
        sweeps = tuple(Sweep(model, n, (1, 2, 4), times, (0.0, 0.5, 1.0), True)
                       for model, n in (("aklt", 6), ("mg", 10)))
        return Inputs(seed, sweeps)
    if workload == "sweep_full_lr":
        sweep = Sweep("lr_heisenberg", 10, (1, 2, 4), _times(rng, 1), (math.inf,), False,
                      (("nu", repr(LR_NU)), ("j0", repr(LR_J0))))
        return Inputs(seed, (sweep,))
    if workload == "verify":
        return Inputs(seed, verify_seed=seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def parse_sweep_csv(text: str) -> dict[tuple, dict | None]:
    """Rows keyed by (model, N, p, t, delta); a repeated key maps to None and a
    row whose key does not parse is left out (so it counts as missing)."""
    rows: dict[tuple, dict | None] = {}
    for record in csv.DictReader(io.StringIO(text)):
        try:
            key = (record["model"], int(record["N"]), int(record["p"]),
                   float(record["t"]), float(record["delta"]))
        except (KeyError, TypeError, ValueError):
            continue
        rows[key] = None if key in rows else record
    return rows


def number(record: dict | None, column: str) -> float | None:
    """The column's value as a float, or None when the row or number is missing."""
    try:
        return float(record[column])
    except (KeyError, TypeError, ValueError):
        return None


def check_sweep(sweep: Sweep, text: str | None) -> tuple[int, list[str]]:
    """(attempted, failures) for one sweep output; one operation per CSV row.

    A row fails when it is missing, repeated or unexpected, when its value is
    not a finite number in [0, 2], when its kind does not match its cutoff,
    or when it is smaller than the row of the next-lower cutoff at the same
    (N, p, t).
    """
    expected = sweep.keys()
    if text is None:
        return len(expected), [f"{sweep.model} N={sweep.n}: no output"] * len(expected)
    rows = parse_sweep_csv(text)
    unexpected = rows.keys() - set(expected)
    failures = [f"unexpected row {key}" for key in sorted(unexpected, key=repr)]
    values: dict[tuple, float] = {}
    for key in expected:
        row = rows.get(key)
        value = number(row, "error_value")
        kind = "full" if math.isinf(key[4]) else "projected"
        if row is None:
            failures.append(f"row {key} missing or repeated")
        elif value is None or not (math.isfinite(value) and 0.0 <= value <= 2.0):
            failures.append(f"row {key}: value {row.get('error_value')!r} not in [0, 2]")
        elif row["error_kind"] != kind:
            failures.append(f"row {key}: kind {row['error_kind']!r}, expected {kind!r}")
        else:
            values[key] = value
    deltas = sorted(sweep.delta_list)
    for p in sweep.p_list:
        for t in sweep.t_list:
            for lower, upper in zip(deltas, deltas[1:]):
                a = values.get((sweep.model, sweep.n, p, t, lower))
                b = values.get((sweep.model, sweep.n, p, t, upper))
                if a is not None and b is not None and b < a - MONOTONE_SLACK:
                    failures.append(f"p={p} t={t}: error drops from {a!r} at delta={lower} "
                                    f"to {b!r} at delta={upper}")
    return len(expected) + len(unexpected), failures


def parse_verify_csv(text: str) -> dict[str, dict]:
    return {record.get("check"): record for record in csv.DictReader(io.StringIO(text))}


def check_verify(text: str | None) -> tuple[int, list[str]]:
    """(attempted, failures) for one battery output; one operation per check."""
    if text is None:
        return 1, ["verify raised"]
    records = list(csv.DictReader(io.StringIO(text)))
    if not records:
        return 1, ["verify returned no checks"]
    return len(records), [f"check {r.get('check')} reports {r.get('status')}"
                          for r in records if r.get("status") != "pass"]
