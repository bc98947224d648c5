"""trotterlab benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload sweep_projected --seed 0 --seconds 24 --trace 0

Run from the root of a checkout.  Every timed measurement happens in a fresh
child process (``child.py``) that runs only the workload.  With ``--trace 0``
the last stdout line reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` it reports the per-layer metrics of a
traced pass plus the tracing overhead against an untraced one.  Outputs are
checked for invariants on every run and against the independent oracle on
a seed-chosen sample, outside the timed region.  The full record, with
provenance, goes to perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
CHILD_BUDGET_S = 150.0   # children are killed past this, leaving time for the checks


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result; exit without printing one."""


def _child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"child printed no report: {' '.join(args)}") from exc


def _setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    """Spawn-to-ready time of fresh processes that stop before the first entry call."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic_ns()
        ready = _child(["--workload", workload, "--seed", str(seed), "--setup-only"],
                       deadline)["ready_ns"]
        samples.append((ready - spawned) / 1e9)
    return samples


def _check_outputs(inputs, outputs: list) -> tuple[int, list[str]]:
    if inputs.verify_seed is not None:
        return workloads.check_verify(outputs[0])
    attempted, failures = 0, []
    for sweep, text in zip(inputs.sweeps, outputs):
        n, bad = workloads.check_sweep(sweep, text)
        attempted += n
        failures += bad
    return attempted, failures


def _oracle_sample(inputs, outputs: list) -> list[dict]:
    """Recompute a seed-chosen sample of outputs with the independent oracle."""
    import oracle
    rng = random.Random(f"oracle-{inputs.seed}")
    samples = []
    if inputs.verify_seed is not None:
        records = workloads.parse_verify_csv(outputs[0] or "")
        for check in rng.sample(sorted(oracle.VERIFY_CHECKS), 2):
            samples.append({"item": check, "program": workloads.number(records.get(check),
                                                                      "observed"),
                            "oracle": oracle.VERIFY_CHECKS[check]()})
    else:
        index = rng.randrange(len(inputs.sweeps))
        sweep, text = inputs.sweeps[index], outputs[index]
        key = rng.choice(sweep.keys())
        record = workloads.parse_sweep_csv(text or "").get(key)
        ref = oracle.reference(sweep.model, sweep.n)
        samples.append({"item": list(key), "program": workloads.number(record, "error_value"),
                        "oracle": ref.error(key[2], key[3], key[4])})
    for sample in samples:
        sample["match"] = (sample["program"] is not None
                           and abs(sample["program"] - sample["oracle"]) <= oracle.TOLERANCE)
    return samples


def _provenance(inputs, workload: str, seed: int) -> dict:
    import numpy as np
    import oracle
    import trotterlab
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    specs = []
    for sweep in inputs.sweeps:
        ref = oracle.reference(sweep.model, sweep.n)
        specs.append({"model": sweep.model, "N": sweep.n, "dim": ref.dim,
                      "m": {repr(d): ref.block_size(d) for d in sweep.delta_list}})
    return {
        "workload": workload, "seed": seed,
        "trotterlab_version": trotterlab.__version__,
        "trotterlab_path": str(Path(trotterlab.__file__).resolve().parent),
        "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "config_sha256": [s.sha256 for s in inputs.sweeps],
        "specs": specs,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + CHILD_BUDGET_S
    if not (ROOT / "src" / "trotterlab" / "__init__.py").is_file():
        print(f"no trotterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup = [] if args.trace else _setup_seconds(args.workload, args.seed, deadline)
        plain = _child(base + ["--seconds", str(args.seconds)], deadline)
        runs = [plain]
        if args.trace:
            spans_path = OUT_DIR / f"{stem}.spans.jsonl"
            runs.append(_child(base + ["--spans", str(spans_path)], deadline))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    # Correctness, outside every timed region: invariants on each pass of each
    # child, identical output across passes, and the oracle on a sample.
    attempted, failures = 0, []
    for run in runs:
        for outputs in run["outputs"]:
            n, bad = _check_outputs(inputs, outputs)
            attempted += n
            failures += bad
    first = runs[0]["outputs"][0]
    deterministic = all(out == first for run in runs for out in run["outputs"])
    oracle = _oracle_sample(inputs, first)
    failures += [f"oracle mismatch on {s['item']}: program {s['program']!r}, "
                 f"oracle {s['oracle']!r}" for s in oracle if not s["match"]]
    errors = [e for run in runs for e in run["errors"]]
    correct = not failures and not errors and deterministic
    failed = min(len(failures), attempted)   # a row can break several checks

    wall = statistics.median(plain["pass_s"])
    if args.trace:
        traced = runs[1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = _metric(traced["pass_s"][0] - wall, "s")
    else:
        metrics = {"wall_s": _metric(wall, "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mb": _metric(plain["maxrss_kb"] / 1024, "MB")}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"result": result, "pass_s": [r["pass_s"] for r in runs],
              "setup_samples_s": setup, "failures": failures, "errors": errors,
              "deterministic": deterministic, "oracle": oracle,
              "provenance": {**_provenance(inputs, args.workload, args.seed),
                             "blas_threads": plain["blas_threads"]}}
    if args.trace:
        record.update(absent=runs[1]["absent"], missing_bindings=runs[1]["missing_bindings"],
                      self_time_rank=runs[1]["self_time_rank"])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed}: {attempted} operations, "
          f"{failed} failed, deterministic={deterministic}, "
          f"oracle {sum(s['match'] for s in oracle)}/{len(oracle)} matched")
    for line in failures[:10] + errors[:3]:
        print("  FAIL " + line.strip().splitlines()[-1])
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    notes = {"wall_s": f"median of {len(plain['pass_s'])} passes",
             "setup_s": f"median of {len(setup)} probes", "peak_rss_mb": "one process"}
    for name, metric in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    if args.trace:
        print("  absent: " + (", ".join(record["absent"]) or "none"))
        print("  top self time: " + ", ".join(f"{name} {sec:.3f} s"
                                             for name, sec in record["self_time_rank"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
