"""Public surface: every exported name resolves and star-import works, and the
modules of closed forms import nothing from the module of measurements."""
import ast
from pathlib import Path

import trotterlab as tl
from trotterlab import bounds, errors, formulas


def test_all_names_resolve_and_star_import():
    missing = [name for name in tl.__all__ if not hasattr(tl, name)]
    assert missing == []
    namespace: dict = {}
    exec("from trotterlab import *", namespace)
    assert set(tl.__all__) <= set(namespace)


def test_measurements_come_from_errors_and_closed_forms_from_bounds():
    for name in ("trotter_number_certified", "order_check", "OrderFit", "CERTIFIED_MAX_STEPS"):
        assert getattr(tl, name) is getattr(errors, name)
    assert tl.excitation_tail_bound is bounds.excitation_tail_bound


def test_formulas_and_bounds_import_nothing_from_errors():
    for module in (formulas, bounds):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):   # every block, a TYPE_CHECKING one included
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        assert imported
        assert [name for name in imported if "errors" in name.split(".")] == [], module
