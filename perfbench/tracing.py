"""In-memory spans around the public functions of avqls.

The modules of avqls import each other's functions by name, so a wrapper
only takes effect where it replaces the name the caller looks up: for
example ``avqls.cost.apply_ansatz`` (used by the cost, gradient and Hessian
code) and ``avqls.runner.apply_ansatz`` (used by ``evaluate_run``). The
program's own files are left untouched.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Records one span (name, start, end, parent) per wrapped call.

    Counters are kept at the same boundaries: an ``on_result`` hook sees the
    wrapped function's return value and adds to ``counts``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, name: str, bindings, on_result=None, cpu: bool = False) -> None:
        """Wrap the function at each ``"module:attribute"`` binding as span `name`.

        With ``cpu`` the wrapper also adds the process-plus-children CPU time
        spent inside the call to ``counts[name + ".cpu_s"]``.
        """
        for binding in bindings:
            module_name, attr = binding.split(":")
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, on_result, cpu))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, on_result, cpu):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = cpu_seconds() if cpu else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if cpu:
                counts[name + ".cpu_s"] += cpu_seconds() - cpu0
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def totals(self) -> tuple[Counter, dict]:
        """Calls and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls nest on one thread.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
        return calls, self_s
