"""The benchmark's trace hooks resolve on the package.

bench/spans.py wraps (module, attribute) boundaries by name when a run is
traced; a renamed or un-imported attribute would break a traced run and
nothing else.  The file is read, not imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _boundaries() -> tuple:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "BOUNDARIES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES assignment in {SPANS}")


def test_every_traced_boundary_exists_on_the_package():
    boundaries = _boundaries()
    assert boundaries
    for module_name, attr, span_name in boundaries:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, span_name)
