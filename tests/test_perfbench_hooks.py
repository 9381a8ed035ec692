"""The benchmark tracer still finds every stage it wraps.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` in its
``HOOKS`` table and silently skips a pair that no longer exists, so a
refactor that renames or moves a stage would drop it from the trace.
The table is read with ``ast`` so the tracer itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_hooks():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no HOOKS tuple")


def test_every_hook_target_exists():
    missing = [f"{module}.{attr} ({layer})" for module, attr, layer in tracer_hooks()
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"tracer hooks that name nothing in the package: {missing}"
