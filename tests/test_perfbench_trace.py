"""The benchmark's traced child still reports every per-layer metric it declares.

The tracer wraps names the package binds; a binding that is gone, or a ratio
whose denominator reads zero, drops its metric, and the benchmark then has no
value to compare.  Each workload runs once, traced, in a fresh process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep_projected", "sweep_full_lr", "verify"])
def test_traced_child_reports_every_layer(workload, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # keep bytecode out of the tree: the child imports perfbench/ modules
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    stdout = subprocess.run(
        [sys.executable, "perfbench/child.py", "--workload", workload, "--seed", "0",
         "--spans", str(tmp_path / f"{workload}.spans")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300).stdout
    report = json.loads(stdout.splitlines()[-1])
    assert report["errors"] == []
    assert report["absent"] == []
    # run.py adds trace.overhead_s from the untraced runs; the child cannot
    expected = {metric["name"] for metric in declared} - {"trace.overhead_s"}
    assert expected - set(report["layers"]) == set()
