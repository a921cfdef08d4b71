"""Every avqls name the benchmark uses must resolve.

perfbench/run.py installs its spans by looking up "avqls.<module>:<attr>"
names at run time, and perfbench/workloads.py calls functions such as
``avqls.runner.run_single`` as attributes, so a refactor that drops one
breaks the benchmark. Parsing the files with ``ast`` keeps the benchmark
out of the test suite's imports.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"
BINDING = re.compile(r"(avqls(?:\.\w+)*):(\w+)")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def perfbench_bindings() -> set[str]:
    return {
        node.value
        for node in ast.walk(parse(RUN_PY))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and BINDING.fullmatch(node.value)
    }


def dotted(node) -> str | None:
    """The dotted name of an attribute chain on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def perfbench_attribute_uses() -> set[str]:
    """Every avqls.<module>.<attr> chain and every name imported from avqls."""
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute):
                name = dotted(node)
                if name and name.startswith("avqls.") and name.count(".") >= 2:
                    uses.add(name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "avqls":
                uses.update(f"{node.module}.{alias.name}" for alias in node.names)
    return uses


def resolves(name: str) -> bool:
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_perfbench_binding_resolves():
    bindings = perfbench_bindings()
    assert "avqls.cost:apply_ansatz" in bindings
    missing = []
    for name in sorted(bindings):
        module, attr = BINDING.fullmatch(name).groups()
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    assert not missing, f"perfbench/run.py wraps names that do not exist: {missing}"


def test_every_perfbench_attribute_call_resolves():
    uses = perfbench_attribute_uses()
    assert {"avqls.runner.run_single", "avqls.cli.main"} <= uses
    missing = sorted(name for name in uses if not resolves(name))
    assert not missing, f"perfbench uses avqls names that do not exist: {missing}"
