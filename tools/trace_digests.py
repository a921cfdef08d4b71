"""Print one sha256 per trace, CSV and schedule printout of a fixed set of runs.

Run from the root of a checkout:

    python3 tools/trace_digests.py > after.txt
    python3 tools/trace_digests.py --root ../parent > before.txt
    diff before.txt after.txt

`tests/trace_digests.txt` is this tool's output for the committed tree,
and `tests/test_trace_digests.py` recomputes it in process. A change that
moves a byte regenerates it in the same commit:

    python3 tools/trace_digests.py > tests/trace_digests.txt

Two checkouts print the same lines exactly when their results are
byte-identical. The first line, a `#` comment, names the Python, numpy
and scipy versions, the BLAS each was built with and the machine: digests
from hosts whose first lines differ are not comparable, since their
round-off may differ. `--root` names the checkout whose `src/` and
`perfbench/` are imported; the default is the one this file sits in, so
an older checkout without this file can be digested too. The inputs come
from `perfbench/workloads.py`:

- hessian-warmstart, workload seeds 1-3 (16 inputs each);
- dynamic-wide, workload seed 3 (3 inputs);
- acceptance criterion 09's `dynamic` and `fixed` runs (n=6, d=1, T=10,
  constant conductivity, point source, master seed), which round-off can
  decide;
- one `hessian` run at n=8, d=2, T=10 (noisy_constant conductivity with
  sigma 0.2, point source, seed 0): a Hessian step, then a jump to s = 1,
  whose second bundle is a block of 301 states (77,056 amplitudes) taken
  away from theta = 0;
- one `hessian` run at n=3, d=3, T=10 (noisy_linear conductivity, point
  source, seed 0), whose steps are minimum steps and one schedule
  fallback;
- one `hessian` run at n=4, d=1, T=50 (noisy_constant conductivity with
  sigma 1, point source, seed 3), whose indefinite system is embedded on
  5 qubits and recovered through the ancilla;
- `avqls sweep --jobs 2` on `SWEEP_POOL` with master seeds 0-5, one line
  per trace and one per CSV;
- `avqls schedule` at kappa 1, 3, 10, 1000 and 1e6, `--steps` 1, 4 and 50
  (15 lines).

Each CONFIG argument is also solved at seeds 0, 1 and 2. `wall_time_s` is
always dropped from the CSVs. `--drop NAME` also drops the trace's
top-level key, step field, `report` key and key of each section of the
config echo, and the CSV column, of that name, with the `NAME_mean`,
`NAME_min` and `NAME_max` columns of `sweep_summary.csv`: for a change
meant to move that field only, or to delete it, the digests then show
that every other byte is unchanged. The schedule lines digest the
printed bytes whole.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from itertools import product
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
HESSIAN_SEEDS = (1, 2, 3)
DYNAMIC_SEEDS = (3,)
MASTER_SEEDS = range(6)
CONFIG_SEEDS = (0, 1, 2)
C09_PROBLEM = {"conductivity": "constant", "source": "point"}
C09_SOLVER = {"n": 6, "d": 1, "T": 10}
NAMED_CASES = {
    "hessian-n8d2": {
        "problem": {"conductivity": "noisy_constant", "sigma": 0.2, "source": "point"},
        "solver": {"n": 8, "d": 2, "T": 10, "schedule": "hessian"},
        "seed": 0,
    },
    "linear-n3d3": {
        "problem": {"conductivity": "noisy_linear", "source": "point"},
        "solver": {"n": 3, "d": 3, "T": 10, "schedule": "hessian"},
        "seed": 0,
    },
    "embedded-n4d1": {
        "problem": {"conductivity": "noisy_constant", "sigma": 1.0, "source": "point"},
        "solver": {"n": 4, "d": 1, "T": 50, "schedule": "hessian"},
        "seed": 3,
    },
}
SCHEDULE_KAPPAS = ("1", "3", "10", "1000", "1e6")
SCHEDULE_STEPS = ("1", "4", "50")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(payload: dict, drop: set[str]) -> str:
    sections = [value for value in payload["config"].values() if isinstance(value, dict)]
    for record in [payload, payload["report"], *payload["steps"], *sections]:
        for name in drop:
            record.pop(name, None)
    return sha(json.dumps(payload, sort_keys=True, indent=2))


def csv_digest(text: str, drop: set[str]) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    dropped = drop | {f"{name}_{stat}" for name in drop for stat in ("mean", "min", "max")}
    kept = [name for name in rows[0] if name not in dropped] if rows else []
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=kept, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return sha(out.getvalue())


def solve_lines(config, seeds, label: str, drop: set[str]):
    import avqls.runner

    for seed in seeds:
        result = avqls.runner.run_single(config, seed=seed)
        payload = avqls.runner.trace_payload(config, result, seed=seed)
        yield f"{trace_digest(payload, drop)}  {label} seed={seed}"


def sweep_lines(workdir: Path, drop: set[str]):
    import avqls.cli
    import workloads

    config_path = workdir / "sweep.json"
    config_path.write_text(json.dumps(workloads.SWEEP_POOL, indent=2))
    for master in MASTER_SEEDS:
        out_name = f"sweep-{master}"  # recorded in the traces, so relative
        argv = [
            "sweep", config_path.name, "--jobs", str(workloads.SWEEP_JOBS),
            "--out", out_name, "--seed", str(master),
        ]
        here = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = avqls.cli.main(argv)
        finally:
            os.chdir(here)
        if code != 0:
            raise SystemExit(f"avqls sweep with master seed {master} exited {code}")
        for path in sorted((workdir / out_name).iterdir()):
            if path.suffix == ".json":
                digest = trace_digest(json.loads(path.read_text()), drop)
            else:
                digest = csv_digest(path.read_text(), drop | {"wall_time_s"})
            yield f"{digest}  sweep-pool master={master} {path.name}"


def versions_line() -> str:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
            return "BLAS unknown"
        return f"{info.get('name')} {info.get('version')}"

    return (
        f"# python {platform.python_version()}, numpy {numpy.__version__} ({blas(numpy)}), "
        f"scipy {scipy.__version__} ({blas(scipy)}), {platform.machine()}"
    )


def schedule_lines():
    import avqls.cli

    for kappa, steps in product(SCHEDULE_KAPPAS, SCHEDULE_STEPS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = avqls.cli.main(["schedule", "--kappa", kappa, "--steps", steps])
        if code != 0:
            raise SystemExit(f"avqls schedule --kappa {kappa} --steps {steps} exited {code}")
        yield f"{sha(out.getvalue())}  schedule kappa={kappa} steps={steps}"


def digest_lines(drop: set[str], configs=()):
    """Every line after the header, with avqls and perfbench/ importable."""
    import avqls
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, seeds in (("hessian-warmstart", HESSIAN_SEEDS), ("dynamic-wide", DYNAMIC_SEEDS)):
            for wseed in seeds:
                work = workloads.make_workload(name, wseed, False, workdir)
                inputs = [work.input_seed(k) for k in range(work.inputs)]
                yield from solve_lines(work.config, inputs, f"{name}:{wseed}", drop)
        for mode in ("dynamic", "fixed"):
            raw = {"problem": C09_PROBLEM, "solver": {**C09_SOLVER, "schedule": mode}}
            config = avqls.config_from_dict(raw)
            yield from solve_lines(config, (config.seed,), f"criterion-09:{mode}", drop)
        for label, raw in NAMED_CASES.items():
            config = avqls.config_from_dict(raw)
            yield from solve_lines(config, (config.seed,), label, drop)
        for path in configs:
            config = avqls.load_config(path)
            yield from solve_lines(config, CONFIG_SEEDS, Path(path).name, drop)
        yield from sweep_lines(workdir, drop)
    yield from schedule_lines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG", help="extra run config")
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to import")
    parser.add_argument(
        "--drop", action="append", default=[], metavar="NAME",
        help="trace key, step field, report or config key, or CSV column and its aggregates "
        "left out (repeatable)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import avqls  # noqa: F401  sets BLAS to one thread before numpy loads

    print(versions_line(), flush=True)
    for line in digest_lines(set(args.drop), args.configs):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
