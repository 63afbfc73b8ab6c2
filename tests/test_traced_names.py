"""Every frontlab function the benchmark tracer patches by name must exist.

perfbench/tracing.py wraps the functions named in its SPANS and COUNTED
tables; a renamed or deleted one silently drops its per-layer metrics.  The
tables are read from the source with ast, so nothing under perfbench/ is
imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTED")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve_to_callables():
    tables = _tables()
    assert set(tables) == {"SPANS", "COUNTED"}
    names = [f"{mod}.{attr}" for table in tables.values()
             for mod, attrs in table.items() for attr in attrs]
    assert {"sim.dt_max", "model.eval_g", "model.eval_g_prime"} <= set(names)
    missing = [name for name in names
               if not callable(getattr(importlib.import_module(
                   "frontlab." + name.split(".")[0]), name.split(".")[1], None))]
    assert missing == []
