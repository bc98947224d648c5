"""Fresh-process runner for one benchmark workload.

``--setup-only`` stops where the first entry call would start and prints the
monotonic clock, so the parent can time interpreter start, the imports and
input generation.  Otherwise the process runs whole passes of the workload
until ``--seconds`` is best used up (always at least one), then prints one
JSON line: the time of each pass, the program's output of each pass, the
entry calls that raised and its own peak RSS.  With ``--spans PATH`` it runs
a single traced pass, writes the spans to PATH and adds per-layer metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (timed as part of set-up)
from trotterlab import cli, verify  # noqa: E402

import workloads  # noqa: E402


def run_pass(inputs: workloads.Inputs, tracer) -> tuple[float, list, list[str]]:
    """One pass over the workload's entry calls: (seconds, outputs, errors).

    Only the entry calls are timed; an entry call that raises yields None.
    """
    outputs, errors, elapsed = [], [], 0.0
    calls = [(f"sweep.{s.model}", s.text) for s in inputs.sweeps]
    if inputs.verify_seed is not None:
        calls = [("verify", inputs.verify_seed)]
    for name, arg in calls:
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = _entry(name, arg)
            else:
                with tracer.entry(name):
                    result = _entry(name, arg)
        except Exception:  # the benchmark counts the rows as failed and goes on
            errors.append(f"{name}: {traceback.format_exc()}")
        elapsed += time.perf_counter() - start
        if name == "verify" and result is not None:
            result = verify.results_to_csv(result)
        outputs.append(result)
    return elapsed, outputs, errors


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a scipy-openblas build."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _entry(name: str, arg):
    if name == "verify":
        return verify.run_verify(arg)
    return cli.run_sweep(cli.parse_sweep_config(arg))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"ready_ns": time.monotonic_ns()}))
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    pass_s, outputs, errors = [], [], []
    while True:
        seconds, out, errs = run_pass(inputs, tracer)
        pass_s.append(seconds)
        outputs.append(out)
        errors += errs
        # stop when one more pass would end further from the target than stopping now
        if tracer is not None or sum(pass_s) + seconds / 2 >= args.seconds:
            break
    report = {"pass_s": pass_s, "outputs": outputs, "errors": errors,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "blas_threads": blas_threads()}
    if tracer is not None:
        tracer.write(args.spans)
        layers, absent = tracer.metrics()
        report.update(layers=layers, absent=absent, missing_bindings=tracer.missing,
                      self_time_rank=tracer.self_time_rank())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
