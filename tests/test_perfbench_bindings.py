"""Every "avqls.<module>:<attr>" name the benchmark wraps must resolve.

perfbench/run.py installs its spans by looking these names up at run time,
so a refactor that drops one breaks its traced runs. Reading the file as
text keeps the benchmark out of the test suite's imports.
"""

import ast
import importlib
import re
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
BINDING = re.compile(r"(avqls(?:\.\w+)*):(\w+)")


def perfbench_bindings() -> set[str]:
    tree = ast.parse(RUN_PY.read_text(), filename=str(RUN_PY))
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and BINDING.fullmatch(node.value)
    }


def test_every_perfbench_binding_resolves():
    bindings = perfbench_bindings()
    assert "avqls.cost:apply_ansatz" in bindings
    missing = []
    for name in sorted(bindings):
        module, attr = BINDING.fullmatch(name).groups()
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    assert not missing, f"perfbench/run.py wraps names that do not exist: {missing}"
