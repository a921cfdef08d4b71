"""Print how the acceptance gate's two comparative criteria fare under round-off.

Run from the root of a checkout:

    python3 tools/gate_margins.py
    python3 tools/gate_margins.py --root ../parent

Criterion 09 asserts that the `dynamic` schedule ends at a lower
infidelity than `fixed` (n=6, d=1, T=10, constant conductivity, point
source). Criterion 11 asserts that the mean infidelity over seeds 0-9 at
l=0 is at most the mean at l=5 (n=5, d=2, T=50, hessian, noisy_constant
sigma=0.2, exponential source). Each printed line reruns a criterion's
configs under one perturbation and gives both infidelities (criterion 11:
the two means), both final costs (means), the gap between the two
infidelities, absolute and relative to the second, and the verdict. The
perturbations are:

- `baseline`: the configs as the gate runs them;
- `scale k=K`: the L-BFGS objective, cost and gradient, multiplied by
  (1 + K * 2**-52), by wrapping each objective that
  `avqls.controller.bind_objective` binds (`scaled_objective`);
- `gtol=G` (criterion 09 only): the solver's gradient tolerance.

Two runs that reach the same minimum stop at points that differ by the
last bits of the arithmetic, so a criterion whose verdict flips under
these perturbations is decided by round-off, not by the schedules.
`--root` names the checkout whose `src/` is imported; the default is the
one this file sits in. The tool is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
ULP = 2.0**-52
C09_SCALES = (-2, -1, 1, 2, 3)
C09_GTOLS = (1e-6, 1e-7, 1e-9, 1e-10)
C11_SCALES = (-1, 1)
C11_SEEDS = range(10)


def c09_raw(mode: str, gtol: float | None) -> dict:
    solver = {"n": 6, "d": 1, "T": 10, "schedule": mode}
    if gtol is not None:
        solver["gtol"] = gtol
    return {"problem": {"conductivity": "constant", "source": "point"}, "solver": solver}


def c11_raw(l: float) -> dict:
    return {
        "problem": {
            "conductivity": "noisy_constant", "sigma": 0.2, "source": "exponential", "l": l,
        },
        "solver": {"n": 5, "d": 2, "T": 50, "schedule": "hessian"},
    }


@contextlib.contextmanager
def scaled_objective(factor: float):
    """Within the block, the controller's L-BFGS objective returns factor * (cost, gradient).

    The hook wraps the objective `avqls.controller.bind_objective` binds at
    each stop; a checkout without that name raises AttributeError naming it.
    It yields a dict whose "evaluations" counts the scaled objective calls,
    and raises RuntimeError at the end of a block that made none: the hook
    no longer reaches the objective, and a line would print the baseline
    under the name of a perturbation.
    """
    import avqls.controller as controller

    tally = {"evaluations": 0}

    def scaled(fun):
        def objective(*args):
            tally["evaluations"] += 1
            cost, grad = fun(*args)
            return cost * factor, grad * factor

        return objective

    original = controller.bind_objective
    controller.bind_objective = lambda *args: scaled(original(*args))
    try:
        yield tally
    finally:
        controller.bind_objective = original
    if not tally["evaluations"]:
        raise RuntimeError("no objective evaluation went through the hook on bind_objective")


def mean_run(raw: dict, seeds) -> tuple[float, float]:
    """Mean final infidelity and mean final cost over `seeds`."""
    from avqls import config_from_dict, run_single

    config = config_from_dict(raw)
    results = [run_single(config, seed=seed) for seed in seeds]
    n = len(results)
    return (
        sum(r.report.infidelity for r in results) / n,
        sum(r.trace.final_cost for r in results) / n,
    )


def line(criterion: str, case: str, names: tuple[str, str], low, high) -> str:
    """`low` must not exceed `high` (strictly below for criterion 09)."""
    (i_low, c_low), (i_high, c_high) = low, high
    passed = i_low < i_high if criterion == "09" else i_low <= i_high
    return (
        f"criterion {criterion} {case:<12} "
        f"I({names[0]})={i_low:.10f} I({names[1]})={i_high:.10f} "
        f"C({names[0]})={c_low:.10e} C({names[1]})={c_high:.10e} "
        f"gap={i_high - i_low:+.3e} rel={(i_high - i_low) / i_high:+.3e} "
        f"{'PASS' if passed else 'FAIL'}"
    )


def c09(case: str, factor: float = 1.0, gtol: float | None = None) -> str:
    with scaled_objective(factor):
        dynamic, fixed = (mean_run(c09_raw(mode, gtol), (0,)) for mode in ("dynamic", "fixed"))
    return line("09", case, ("dynamic", "fixed"), dynamic, fixed)


def c11(case: str, factor: float = 1.0) -> str:
    with scaled_objective(factor):
        low, high = (mean_run(c11_raw(l), C11_SEEDS) for l in (0.0, 5.0))
    return line("11", case, ("l=0", "l=5"), low, high)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to import")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root.resolve() / "src")]
    import avqls  # noqa: F401  sets BLAS to one thread before numpy loads

    print(c09("baseline"), flush=True)
    for k in C09_SCALES:
        print(c09(f"scale k={k:+d}", factor=1.0 + k * ULP), flush=True)
    for gtol in C09_GTOLS:
        print(c09(f"gtol={gtol:g}", gtol=gtol), flush=True)
    print(c11("baseline"), flush=True)
    for k in C11_SCALES:
        print(c11(f"scale k={k:+d}", factor=1.0 + k * ULP), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
