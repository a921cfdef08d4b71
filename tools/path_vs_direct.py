"""Print the warm-started path against one direct solve on a panel of problems.

Run from the root of a checkout:

    python3 tools/path_vs_direct.py
    python3 tools/path_vs_direct.py --root ../parent

Each case runs the `hessian` schedule at T=50 (the path) and the `fixed`
schedule at T=1, which is one L-BFGS solve at s=1 from the same theta=0
(the direct solve). The panel is five problem families, seven (n, d)
shapes and seeds 0-3 (140 cases):

- noisy_constant sigma=0.2, point source;
- noisy_constant sigma=0.2, exponential source with l=5;
- noisy_linear (sigma=0.05), point source;
- constant conductivity, point source;
- noisy_constant sigma=1, point source.

One line per case gives, for the path and the direct solve, the final
infidelity, the modelled circuits summed over the steps, the step count
and the step kinds, one letter per step (F fallback_schedule, J
jump_to_one, M minimum_step, H hessian_step), and the largest theta_jump
of the path's steps. Two checkouts take the same kinds of steps exactly
when the `kinds=` fields of their printouts agree. The summary gives,
per family and over the panel, the median and total of the path's and
the direct solve's circuits, the number of cases where the path charged
fewer circuits, and the number of cases where the path's final infidelity
is within 1e-4 of the direct solve's, lower by more, or higher by more.
`--root` names the checkout whose `src/` is imported; the default is the
one this file sits in. The tool is not part of the test suite.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
FAMILIES = {
    "sigma0.2-point": {"conductivity": "noisy_constant", "sigma": 0.2, "source": "point"},
    "sigma0.2-exp5": {
        "conductivity": "noisy_constant", "sigma": 0.2, "source": "exponential", "l": 5.0,
    },
    "noisy_linear-point": {"conductivity": "noisy_linear", "source": "point"},
    "constant-point": {"conductivity": "constant", "source": "point"},
    "sigma1-point": {"conductivity": "noisy_constant", "sigma": 1.0, "source": "point"},
}
SHAPES = ((3, 1), (4, 2), (5, 2), (5, 3), (6, 1), (6, 2), (7, 2))
SEEDS = range(4)
PATH = {"schedule": "hessian", "T": 50}
DIRECT = {"schedule": "fixed", "T": 1}
AGREE = 1e-4  # infidelity gap within which the path and the direct solve agree


def run(problem: dict, n: int, d: int, schedule: dict, seed: int):
    """(infidelity, circuits, steps, largest theta_jump, step kinds) of one run."""
    from avqls import config_from_dict, run_single

    config = config_from_dict({"problem": problem, "solver": {"n": n, "d": d, **schedule}})
    result = run_single(config, seed=seed)
    steps = result.trace.steps
    return (
        result.report.infidelity,
        sum(rec.circuit_evals for rec in steps),
        len(steps),
        max(rec.theta_jump for rec in steps),
        "".join(rec.kind.value[0].upper() for rec in steps),
    )


def summary(label: str, cases: list) -> str:
    path = [case[0][1] for case in cases]
    direct = [case[1][1] for case in cases]
    cheaper = sum(p < q for p, q in zip(path, direct))
    gaps = [case[0][0] - case[1][0] for case in cases]
    within = sum(abs(gap) <= AGREE for gap in gaps)
    lower = sum(gap < -AGREE for gap in gaps)
    higher = len(cases) - within - lower
    return (
        f"{label:<18} median path={statistics.median(path):g} "
        f"direct={statistics.median(direct):g} total path={sum(path)} "
        f"direct={sum(direct)} path cheaper {cheaper}/{len(cases)}; infidelity within "
        f"{AGREE:.0e} {within}/{len(cases)}, path lower {lower}, higher {higher}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to import")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root.resolve() / "src")]
    import avqls  # noqa: F401  sets BLAS to one thread before numpy loads

    by_family = {}
    for family, problem in FAMILIES.items():
        cases = by_family[family] = []
        for (n, d), seed in ((shape, seed) for shape in SHAPES for seed in SEEDS):
            path, direct = (run(problem, n, d, schedule, seed) for schedule in (PATH, DIRECT))
            cases.append((path, direct))
            print(
                f"{family:<18} n={n} d={d} seed={seed} "
                f"path I={path[0]:.10f} circuits={path[1]} steps={path[2]} "
                f"kinds={path[4]} jump={path[3]:.4f} direct I={direct[0]:.10f} "
                f"circuits={direct[1]} steps={direct[2]} kinds={direct[4]}",
                flush=True,
            )
    for family, cases in by_family.items():
        print(summary(family, cases))
    print(summary("panel", [case for cases in by_family.values() for case in cases]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
