"""Span tracer for the benchmark's traced run.

Wraps the layers' public functions under the names their consumer modules
bind them to (``trotterlab.errors.eigh``, ``trotterlab.formulas.evolve``,
``ErrorLab.__init__``, ...), records one span per call (name, start, end,
parent, run id) in memory and turns the spans into per-layer metrics.  Only
the traced child process imports this module; the untraced run patches
nothing.

A binding that no longer exists is skipped and listed; every metric that
rests only on missing bindings is reported as absent rather than zero, so
a refactor that moves a function does not read as a speed-up.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(x) -> int:
    return int(np.shape(getattr(x, "entries", x))[0])


def _gram_side(args, kwargs) -> int:
    """Side of the Gram matrix A^dag A behind a norm call: the column count of A."""
    return int(np.shape(getattr(args[0], "entries", args[0]))[-1])


@dataclass(frozen=True)
class Binding:
    span: str
    module: str
    attr: str
    work: Callable | None = None   # (args, kwargs) -> what the call does, kept on the span
    count_only: bool = False       # count calls without a span (hot, nested helpers)
    rss: bool = False              # record the rise in peak RSS over the call


def _bindings() -> tuple[Binding, ...]:
    tl = "trotterlab."
    eigh_work = lambda a, k: _rows(a[0]) ** 3                            # noqa: E731
    plan_work = lambda a, k: (len(a[0].stages), _rows(a[1][0].eigenvectors))  # noqa: E731
    lab_work = lambda a, k: (a[1].model_tag, a[1].lattice.num_sites)    # noqa: E731
    out = [
        *(Binding("operators.assemble", tl + m, "assemble", rss=True)
          for m in ("formulas", "errors", "verify")),
        *(Binding("operators.embed", tl + m, "embed", count_only=True)
          for m in ("operators", "errors", "verify")),
        *(Binding("operators.eigh", tl + m, "eigh", eigh_work) for m in ("formulas", "errors")),
        *(Binding("operators.evolve", tl + m, "evolve") for m in ("formulas", "errors", "verify")),
        Binding("operators.norm", tl + "errors", "_matrix_norm", _gram_side),
        *(Binding("operators.norm", tl + m, "spectral_norm", _gram_side)
          for m in ("formulas", "cli", "verify")),
        *(Binding("operators.projector", tl + m, "low_energy_projector")
          for m in ("errors", "verify")),
        *(Binding("formulas.apply_plan", tl + m, "apply_plan", plan_work)
          for m in ("formulas", "errors")),
        Binding("formulas.order_check", tl + "verify", "order_check"),
        Binding("errors.lab_init", tl + "errors", "ErrorLab.__init__", lab_work),
        Binding("errors.projected_error", tl + "errors", "ErrorLab.projected_error"),
        Binding("errors.stepped_error", tl + "errors", "ErrorLab.stepped_error"),
        Binding("errors.commutator_sum", tl + "verify", "nested_commutator_sum"),
        Binding("errors.expectation_sum", tl + "verify", "low_energy_expectation_sum"),
        *(Binding("bounds.formula", tl + "cli", name)
          for name in ("const_gamma_error_bound", "generic_error_bound")),
        *(Binding("bounds.formula", tl + "verify", name)
          for name in ("const_gamma_error_bound", "generic_error_bound",
                       "projected_commutator_bound", "unrestricted_commutator_bound",
                       "trotter_count_formula")),
        Binding("bounds.certified", tl + "verify", "trotter_number_certified"),
        *(Binding("lattice.build", tl + m, name) for m in ("cli", "verify")
          for name in ("build_aklt", "build_mg", "build_long_range_heisenberg")),
        Binding("lattice.validate", tl + "verify", "validate"),
        Binding("cli.run_sweep", tl + "cli", "run_sweep"),
        Binding("cli.task_rows", tl + "cli", "_task_rows"),
        Binding("cli.csv", tl + "cli", "rows_to_csv"),
        *(Binding(f"verify.{part}_checks", tl + "verify", f"_{part}_checks")
          for part in ("lattice", "operator", "formula", "error", "bound")),
    ]
    return tuple(out)


BINDINGS = _bindings()


def _resolve(module: str, attr: str):
    """(owner, name) of a dotted attribute; raises if any part is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type) and name not in vars(owner):
        raise AttributeError(f"{owner.__name__} no longer defines {name}")
    getattr(owner, name)
    return owner, name


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span log; spans are [name, start_ns, end_ns, parent, run, work, rss_kb]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.installed: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = 0

    def install(self) -> None:
        for binding in BINDINGS:
            try:
                owner, name = _resolve(binding.module, binding.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{binding.module}.{binding.attr}")
                continue
            setattr(owner, name, self._wrap(binding, getattr(owner, name)))
            self.installed[binding.span] += 1

    def _open(self, name: str, work=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, self._run, work, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, binding: Binding, fn):
        if binding.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[binding.span] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if binding.work is not None:
                try:
                    work = binding.work(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    work = None
            rss0 = _maxrss_kb() if binding.rss else 0
            record = self._open(binding.span, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
                if binding.rss:
                    record[6] = _maxrss_kb() - rss0
        return traced

    @contextmanager
    def entry(self, name: str):
        """Root span of one entry call; its descendants share its run id."""
        self._run += 1
        record = self._open(f"entry.{name}")
        try:
            yield
        finally:
            self._close(record)

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "run", "work", "rss_kb")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")

    def _aggregate(self):
        """Per span name: inclusive ns (outermost spans only), self ns, calls, works;
        and per (parent name, child name): call counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive, self_ns, calls = Counter(), Counter(), Counter()
        works: dict[str, list] = {}
        rss_kb = Counter()
        pairs = Counter()
        for index, (name, start, end, parent, _run, work, rss) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            works.setdefault(name, []).append(work)
            rss_kb[name] += rss
            if parent >= 0:
                pairs[self.spans[parent][0], name] += 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, self_ns, calls, works, rss_kb, pairs

    def self_time_rank(self) -> list[tuple[str, float]]:
        """The eight span names with the most self time, in seconds."""
        _, self_ns, *_ = self._aggregate()
        return [(name, ns / 1e9) for name, ns in self_ns.most_common(8)]

    def metrics(self) -> tuple[dict[str, dict], list[str]]:
        """Per-layer metrics as {name: {"value", "unit"}}, plus the absent names."""
        inclusive, self_ns, calls, works, rss_kb, pairs = self._aggregate()
        out: dict[str, dict] = {}
        absent: list[str] = []

        def put(name: str, unit: str, spans: tuple[str, ...], value: Callable[[], float]):
            if any(self.installed[s] == 0 for s in spans):
                absent.append(name)
                return
            try:
                out[name] = {"value": value(), "unit": unit}
            except (TypeError, ZeroDivisionError):
                absent.append(name)

        def seconds(span: str, name: str, self_time: bool = False):
            table = self_ns if self_time else inclusive
            put(name, "s", (span,), lambda: table[span] / 1e9)

        def count(span: str, name: str):
            put(name, "count", (span,), lambda: calls[span])

        def work_sum(span: str, fn) -> float:
            return sum(fn(w) for w in works.get(span, []))

        seconds("operators.assemble", "operators.assemble_s")
        count("operators.assemble", "operators.assemble_calls")
        put("operators.embed_calls", "count", ("operators.embed",),
            lambda: self.counts["operators.embed"])
        put("operators.assemble_peak_mb", "MB", ("operators.assemble",),
            lambda: rss_kb["operators.assemble"] / 1024)
        seconds("operators.eigh", "operators.eigh_s")
        count("operators.eigh", "operators.eigh_calls")
        put("operators.eigh_dim3", "count", ("operators.eigh",),
            lambda: work_sum("operators.eigh", int))
        seconds("operators.evolve", "operators.evolve_s")
        count("operators.evolve", "operators.evolve_calls")
        seconds("operators.norm", "operators.norm_s")
        count("operators.norm", "operators.norm_calls")
        put("operators.norm_dim3", "count", ("operators.norm",),
            lambda: work_sum("operators.norm", lambda side: side ** 3))
        seconds("operators.projector", "operators.projector_s")

        seconds("formulas.apply_plan", "formulas.apply_plan_s")
        seconds("formulas.apply_plan", "formulas.apply_plan_self_s", self_time=True)
        count("formulas.apply_plan", "formulas.apply_plan_calls")
        put("formulas.stage_dim3", "count", ("formulas.apply_plan",),
            lambda: work_sum("formulas.apply_plan", lambda w: w[0] * w[1] ** 3))
        put("formulas.evolve_per_stage", "ratio", ("formulas.apply_plan", "operators.evolve"),
            lambda: pairs["formulas.apply_plan", "operators.evolve"]
            / work_sum("formulas.apply_plan", lambda w: w[0]))
        seconds("formulas.order_check", "formulas.order_check_s")
        count("formulas.order_check", "formulas.order_check_calls")

        seconds("errors.lab_init", "errors.lab_init_s")
        seconds("errors.lab_init", "errors.lab_init_self_s", self_time=True)
        count("errors.lab_init", "errors.lab_init_calls")
        put("errors.labs_per_spec", "ratio", ("errors.lab_init",),
            lambda: calls["errors.lab_init"] / len(set(works["errors.lab_init"])))
        seconds("errors.commutator_sum", "errors.commutator_sum_s")
        seconds("errors.commutator_sum", "errors.commutator_sum_self_s", self_time=True)
        put("errors.commutator_leaves", "count", ("errors.commutator_sum", "operators.norm"),
            lambda: pairs["errors.commutator_sum", "operators.norm"])
        seconds("errors.expectation_sum", "errors.expectation_sum_s")
        seconds("errors.stepped_error", "errors.stepped_error_s")

        seconds("bounds.formula", "bounds.formula_s")
        seconds("bounds.certified", "bounds.certified_s")
        put("bounds.certified_probes", "count", ("bounds.certified", "errors.projected_error"),
            lambda: pairs["bounds.certified", "errors.projected_error"])

        seconds("lattice.build", "lattice.build_s")
        seconds("lattice.validate", "lattice.validate_s")

        seconds("cli.run_sweep", "cli.run_sweep_s")
        seconds("cli.task_rows", "cli.task_rows_self_s", self_time=True)
        seconds("cli.csv", "cli.csv_s")

        for part in ("lattice", "operator", "formula", "error", "bound"):
            seconds(f"verify.{part}_checks", f"verify.{part}_checks_s")
        out["trace.spans"] = {"value": len(self.spans), "unit": "count"}
        return out, absent
