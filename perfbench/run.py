"""avqls benchmark: time to solution, modelled device cost and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hessian-warmstart --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints the
per-layer metrics of a traced pass and the tracing overhead against an
untraced pass over the same inputs. ``--tiny`` shrinks every workload to
n = 3 for a fast self-test. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports avqls from ``src/`` of the checkout it sits in and
calls only its public functions and the ``avqls`` CLI. It sets no thread
variable: BLAS runs with whatever threading the environment gives it, and
the environment is printed with every result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup time counts from here, before any import

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, cpu_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# name, unit; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_s_p50", "s"),
    ("cpu_s_per_solve", "s"),
    ("peak_rss_mb", "MB"),
    ("infidelity_p50", "fraction"),
    ("accuracy_p50", "fraction"),
    ("t_over_T", "fraction"),
    ("circuit_evals_per_solve", "count"),
]

# Span name, the "module:attribute" names its callers look up, and which
# end-to-end metric on which workload its calls and self time should move.
SOLVE_SPANS = [
    ("ansatz.apply_ansatz", ["avqls.cost:apply_ansatz", "avqls.runner:apply_ansatz"],
     "solve_s_p50 on hessian-warmstart (Python overhead) and dynamic-wide (arithmetic)"),
    ("cost.cost", ["avqls.controller:cost"],
     "solve_s_p50 on dynamic-wide first, then hessian-warmstart"),
    ("cost.cost_gradient", ["avqls.controller:cost_gradient"],
     "solve_s_p50 on dynamic-wide first, then hessian-warmstart"),
    ("cost.hessian_bundle", ["avqls.controller:hessian_bundle"],
     "solve_s_p50 on hessian-warmstart and solves_per_s on sweep-pool; none on dynamic-wide"),
    ("controller.propose_step", ["avqls.controller:propose_step"],
     "no time change predicted (<1%); t_over_T and infidelity_p50 must stay fixed"),
    ("controller.minimize_cost", ["avqls.controller:minimize_cost"],
     "solve_s_p50 on dynamic-wide first; circuit_evals_per_solve must not move"),
    ("controller.solve_adiabatic", ["avqls.runner:solve_adiabatic"],
     "solve_s_p50 on hessian-warmstart and dynamic-wide"),
    ("schedule.next_increment", ["avqls.controller:next_increment"],
     "no time change predicted (negligible share)"),
    ("runner.build_system", ["avqls.runner:build_system"],
     "no time change predicted (negligible share)"),
    ("problems.prepare", ["avqls.runner:prepare"],
     "no time change predicted (negligible share)"),
    ("runner.evaluate_run", ["avqls.runner:evaluate_run"], "solve_s_p50 on dynamic-wide only"),
    ("runner.run_single", ["avqls.runner:run_single"],
     "solve_s_p50 on hessian-warmstart and dynamic-wide"),
    ("runner.trace_payload", ["avqls.runner:trace_payload"], "solves_per_s on sweep-pool"),
]
# sweep-pool's spans stop at run_sweep and the CLI's output step; the solver
# layers inside the workers are the code SOLVE_SPANS traces in process.
SWEEP_WRITERS = [
    "avqls.cli:write_trace", "avqls.cli:summary_row", "avqls.cli:write_summary",
    "avqls.cli:aggregate_rows", "avqls.cli:write_aggregate",
]
STEP_KINDS = ("fallback_schedule", "jump_to_one", "minimum_step", "hessian_step")

# name, unit, better, which end-to-end metric on which workload it should move.
# Counts and seconds are per solve (a sweep cell counts as a solve) unless the
# unit says otherwise; "_computed" values come from (n, d), not a measurement.
PER_LAYER = (
    [(f"{fn}.calls", "count/solve", "lower", move) for fn, _, move in SOLVE_SPANS]
    + [(f"{fn}.self_s", "s/solve", "lower", move) for fn, _, move in SOLVE_SPANS]
    + [
        ("ansatz.apply_ansatz.us_per_call", "us", "lower",
         "solve_s_p50 on hessian-warmstart (Python overhead) and dynamic-wide (arithmetic)"),
        ("controller.minimize_cost.iterations", "count/solve", "lower",
         "solve_s_p50 on dynamic-wide first; circuit_evals_per_solve must not move"),
        ("controller.minimize_cost.nfev", "count/solve", "lower",
         "solve_s_p50 on dynamic-wide first; circuit_evals_per_solve must not move"),
        ("controller.steps", "count/solve", "lower", "t_over_T on hessian-warmstart"),
    ]
    + [
        (f"controller.step_kind.{kind}", "count/solve",
         "higher" if kind == "jump_to_one" else "lower", "t_over_T on hessian-warmstart")
        for kind in STEP_KINDS
    ]
    + [
        ("controller.converged_ratio", "ratio", "higher", "infidelity_p50 on every workload"),
        ("cost.statevector_sims", "count/solve", "lower", "solve_s_p50 on dynamic-wide"),
        ("cost.modelled_circuit_evals", "count/solve", "lower",
         "circuit_evals_per_solve; an emulator-only change must leave it fixed"),
        ("cost.sims_per_modelled_eval", "ratio", "lower", "solve_s_p50 on dynamic-wide"),
        ("ansatz.ry_computed", "count/sim", "lower", "solve_s_p50 on every workload"),
        ("ansatz.cnot_computed", "count/sim", "lower", "solve_s_p50 on every workload"),
        ("ansatz.gates_computed", "count/sim", "lower", "solve_s_p50 on every workload"),
        ("ansatz.bytes_computed", "bytes/sim", "lower", "solve_s_p50 on dynamic-wide"),
        ("runner.run_sweep.wall_s", "s/sweep", "lower", "solves_per_s on sweep-pool"),
        ("runner.run_sweep.cpu_per_wall", "ratio", "lower",
         "cpu_s_per_solve and solves_per_s on sweep-pool"),
        ("runner.run_sweep.worker_busy_ratio", "ratio", "higher", "solves_per_s on sweep-pool"),
        ("cli.sweep.write_s", "s/sweep", "lower", "solves_per_s on sweep-pool"),
        ("tracing.overhead", "ratio", "lower", "none: traced over untraced wall time, minus 1"),
    ]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n = 3, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; fail if it is not there."""
    if not (SRC / "avqls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no avqls package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import avqls

    if Path(avqls.__file__).resolve().parent != SRC / "avqls":
        sys.exit(f"perfbench: imported avqls from {avqls.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_build = "unknown"
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "git_commit": commit,
        "workload_seed": seed,
    }


class Run:
    """Everything one benchmark process measured and checked.

    The quality records come from the first solve of each input in the
    pool; every later solve of an input must give the same trace bytes.
    """

    def __init__(self, workload, first) -> None:
        self.workload = workload
        self.attempted = first.attempted
        self.failures: list[str] = list(first.failures)
        self.quality: list[dict] = list(first.records)
        self.digests = {0: first.digest}

    def do(self, k: int):
        unit = self.workload.unit(k)
        self.attempted += unit.attempted
        self.failures += unit.failures
        i = k % self.workload.inputs
        if i in self.digests:
            self.check_same(f"input {i} in unit {k}", self.digests[i], unit.digest)
        else:
            self.digests[i] = unit.digest
            self.quality += unit.records
        return unit

    def timed(self, first: int, count: int, seconds: float):
        """Units first, first+1, ... until `seconds` passed and `count` ran.

        Returns the units' solve times keyed by (input, solve within unit),
        the wall seconds and the CPU seconds of the process and its children.
        """
        times, k = defaultdict(list), first
        cpu0, started = cpu_seconds(), time.perf_counter()
        while k < first + count or time.perf_counter() - started < seconds:
            for j, solve_s in enumerate(self.do(k).solve_s):
                times[k % self.workload.inputs, j].append(solve_s)
            k += 1
        return times, time.perf_counter() - started, cpu_seconds() - cpu0

    def check_same(self, what: str, first, second) -> None:
        if first != second:
            self.failures.append(f"rerun of {what} gave different trace bytes")


def probe_setup(args) -> list:
    """Setup time and first-unit digest from fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    found = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        found.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return found


def quality_metrics(records: list[dict]) -> dict:
    return {
        "infidelity_p50": statistics.median(r["infidelity"] for r in records),
        "accuracy_p50": statistics.median(r["accuracy"] for r in records),
        "t_over_T": statistics.fmean(r["t_over_T"] for r in records),
        "circuit_evals_per_solve": statistics.fmean(r["circuit_evals"] for r in records),
    }


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_deterministic(run: Run, key: str, values: dict) -> None:
    """Deterministic metrics must repeat exactly across runs of the same code and seed."""
    RUNS.mkdir(exist_ok=True)
    store = RUNS / "deterministic.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        for name, value in values.items():
            if known[key][name] != value:
                run.failures.append(
                    f"{name} = {value!r} but an earlier run with this seed gave {known[key][name]!r}"
                )
        return
    known[key] = values
    scratch = store.with_suffix(f".{os.getpid()}")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(scratch, store)


def end_to_end(run: Run, setup: list, times: dict, wall: float, cpu: float) -> dict:
    solves = sum(len(repeats) for repeats in times.values())
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    metrics = {
        "setup_s": statistics.median(setup),
        "solves_per_s": solves / wall,
        # Median over the pool's solves of each solve's mean time over its
        # repeats. A shared host runs slow for stretches of seconds; averaging
        # the repeats, made passes apart, keeps that from flipping the median
        # between a fast and a slow cluster.
        "solve_s_p50": statistics.median(statistics.fmean(r) for r in times.values()),
        "cpu_s_per_solve": cpu / solves,
        "peak_rss_mb": max(usage) / 1024.0,
    }
    metrics.update(quality_metrics(run.quality))
    return metrics


def per_layer(tracer, workload, records, solves, sweeps, overhead) -> dict:
    from workloads import SWEEP_JOBS

    calls, self_s = tracer.totals()
    counts = tracer.counts
    m = {}
    for fn, _, _ in SOLVE_SPANS:
        m[f"{fn}.calls"] = calls[fn] / solves
        m[f"{fn}.self_s"] = self_s[fn] / solves
    sims = calls["ansatz.apply_ansatz"]
    m["ansatz.apply_ansatz.us_per_call"] = 1e6 * self_s["ansatz.apply_ansatz"] / sims if sims else 0.0
    steps = sum(r["steps"] for r in records)
    m["controller.minimize_cost.iterations"] = sum(r["iterations"] for r in records) / solves
    m["controller.minimize_cost.nfev"] = sum(r["nfev"] for r in records) / solves
    m["controller.steps"] = steps / solves
    for kind in STEP_KINDS:
        m[f"controller.step_kind.{kind}"] = sum(r["kinds"][kind] for r in records) / solves
    m["controller.converged_ratio"] = sum(r["converged"] for r in records) / steps
    evals = sum(r["circuit_evals"] for r in records)
    m["cost.statevector_sims"] = sims / solves
    m["cost.modelled_circuit_evals"] = evals / solves
    m["cost.sims_per_modelled_eval"] = sims / evals
    ansatz = workload.ansatz
    ry, cnot = ansatz.n_params, ansatz.d * len(ansatz.ring)
    m["ansatz.ry_computed"] = ry
    m["ansatz.cnot_computed"] = cnot
    m["ansatz.gates_computed"] = ry + cnot
    # float64 state; an Ry reads and writes every amplitude once, a CNOT
    # reads and writes the control=1 half.
    m["ansatz.bytes_computed"] = 8 * ansatz.dim * (2 * ry + cnot)
    sweep_wall = self_s["runner.run_sweep"]
    m["runner.run_sweep.wall_s"] = sweep_wall / sweeps if sweeps else 0.0
    m["runner.run_sweep.cpu_per_wall"] = (
        counts["runner.run_sweep.cpu_s"] / sweep_wall if sweep_wall else 0.0
    )
    m["runner.run_sweep.worker_busy_ratio"] = (
        counts["runner.run_sweep.cell_solve_s"] / (SWEEP_JOBS * sweep_wall) if sweep_wall else 0.0
    )
    writes = self_s["cli.sweep.write"] + (self_s["runner.trace_payload"] if sweeps else 0.0)
    m["cli.sweep.write_s"] = writes / sweeps if sweeps else 0.0
    m["tracing.overhead"] = overhead
    return m


def install_spans(tracer, workload) -> None:
    if workload.name != "sweep-pool":
        for name, bindings, _ in SOLVE_SPANS:
            tracer.install(name, bindings)
        return

    def count_cell_solve_time(counts, sweep) -> None:
        counts["runner.run_sweep.cell_solve_s"] += sum(
            r.trace.wall_time_s for r in sweep.results.values()
        )

    tracer.install("runner.run_sweep", ["avqls.cli:run_sweep"], count_cell_solve_time, cpu=True)
    tracer.install("runner.trace_payload", ["avqls.cli:trace_payload"])
    tracer.install("cli.sweep.write", SWEEP_WRITERS)


def setup(args):
    """Import the program and run the warm-up unit; returns (workload, unit 0, seconds)."""
    import_program()
    from workloads import make_workload

    workdir = RUNS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.tiny, workdir)
    return workload, workload.unit(0), time.perf_counter() - STARTED


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, first, setup_s = setup(args)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "digest": first.digest,
                              "failures": first.failures}))
            return 0
        return measure(args, workload, first, setup_s)
    finally:
        shutil.rmtree(RUNS / f"tmp-{os.getpid()}", ignore_errors=True)


def measure(args, workload, first, setup_s) -> int:
    run = Run(workload, first)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tiny={args.tiny} seconds={args.seconds:g}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))

    if args.trace == 0:
        probes = probe_setup(args)
        for probe in probes:
            run.failures += probe["failures"]
            run.check_same("the first unit in a fresh process", first.digest, probe["digest"])
        times, wall, cpu = run.timed(1, workload.timed_units, args.seconds)
        metrics = end_to_end(run, [setup_s] + [p["setup_s"] for p in probes], times, wall, cpu)
        names = END_TO_END
    else:
        # One untraced pass over the pool, then the same units traced; the
        # traced solves must repeat the untraced trace bytes.
        more = workload.inputs - 1
        _, plain_wall, _ = run.timed(1, more, 0.0)
        tracer = Tracer()
        install_spans(tracer, workload)
        records = []
        try:
            started = time.perf_counter()
            for k in range(1, 1 + more):
                records += run.do(k).records
            traced_wall = time.perf_counter() - started
        finally:
            tracer.uninstall()
        sweeps = more if workload.name == "sweep-pool" else 0
        metrics = per_layer(tracer, workload, records, len(records) or 1, sweeps,
                            traced_wall / plain_wall - 1.0)
        names = [(name, unit) for name, unit, _, _ in PER_LAYER]

    if not run.failures:
        key = f"{code_digest()}/{args.workload}/{args.seed}" + ("/tiny" if args.tiny else "")
        check_deterministic(run, key, quality_metrics(run.quality))

    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"failed_fraction {failed / max(run.attempted, 1):.6g} ({failed}/{run.attempted})")
    moves = {name: move for name, _, _, move in PER_LAYER}
    for name, unit in names:
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"metric {name} {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
