"""The benchmark's references to the package resolve.

bench/spans.py wraps (module, attribute) boundaries by name when a run is
traced, and the other bench/*.py files call ``cchlab.<name>`` attributes; a
renamed or un-imported attribute would break the benchmark and nothing
else.  The files are read, not imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _boundaries() -> tuple:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "BOUNDARIES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES assignment in {SPANS}")


def _attribute_chain(node: ast.Attribute) -> list[str] | None:
    """["cchlab", "config", "parse_float_list"] for cchlab.config.parse_float_list."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "cchlab":
        return ["cchlab"] + chain[::-1]
    return None


def _package_references() -> set[tuple[str, tuple[str, ...]]]:
    """(file, dotted chain) for every cchlab.<name>... attribute and
    ``import cchlab.<module>`` in bench/*.py."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain is not None:
                refs.add((path.name, tuple(chain)))
            if isinstance(node, ast.Import):
                refs.update((path.name, tuple(alias.name.split(".")))
                            for alias in node.names if alias.name.startswith("cchlab."))
    return refs


def _resolve(chain: tuple[str, ...]):
    """Follow the chain from the package; a name missing as an attribute of
    a package may be one of its submodules."""
    obj = importlib.import_module(chain[0])
    for depth, name in enumerate(chain[1:], start=1):
        if not hasattr(obj, name) and hasattr(obj, "__path__"):
            try:
                importlib.import_module(".".join(chain[:depth + 1]))
            except ModuleNotFoundError:
                pass  # getattr names the missing attribute
        obj = getattr(obj, name)
    return obj


def test_every_traced_boundary_exists_on_the_package():
    boundaries = _boundaries()
    assert boundaries
    for module_name, attr, span_name in boundaries:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, span_name)


def test_every_package_name_the_benchmark_uses_exists():
    refs = _package_references()
    names = {chain[1] for _, chain in refs}
    # The calls the output checks and the micro-benchmarks make.
    assert {"energy_H", "measure_waltz", "compute_record", "advect"} <= names
    for filename, chain in sorted(refs):
        try:
            _resolve(chain)
        except AttributeError as err:
            raise AssertionError(f"bench/{filename} uses {'.'.join(chain)}: {err}") from None
