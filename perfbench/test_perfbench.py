"""Fast self-test of the benchmark harness, using its tiny mode (n = 3).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
# dynamic-wide is not listed in BENCHMARK.json but stays runnable by hand.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["dynamic-wide"])
def test_tiny_run_reports_every_listed_metric(workload, trace):
    done = bench(ROOT, "--tiny", "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path, "--workload", "hessian-warmstart", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spans_nest_and_self_time_excludes_children(monkeypatch):
    module = types.ModuleType("traced_example")
    module.inner = lambda: 1
    module.outer = lambda: sum(module.inner() for _ in range(3))
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    tracer.install("inner", ["traced_example:inner"])
    tracer.install("outer", ["traced_example:outer"])
    assert module.outer() == 3
    tracer.uninstall()
    assert module.outer() == 3 and len(tracer.spans) == 4
    calls, self_s = tracer.totals()
    assert calls == {"outer": 1, "inner": 3}
    name, start, end, parent = tracer.spans[0]
    inner_s = sum(e - b for n, b, e, _ in tracer.spans if n == "inner")
    assert (name, parent) == ("outer", -1)
    assert self_s["outer"] == pytest.approx(end - start - inner_s)
    assert [span[3] for span in tracer.spans[1:]] == [0, 0, 0]
