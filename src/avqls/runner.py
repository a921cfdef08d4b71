"""Run assembly: configs to systems, single runs, sweeps and file outputs.

Trace JSON files contain only deterministic fields, so a rerun with the
same config and master seed is byte-identical; wall-clock timings go to
the CSV summaries instead.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .config import RunConfig
from .controller import OptimizerOptions, RunTrace, solve_adiabatic
from .metrics import (
    SolutionReport,
    accuracy,
    classical_solve,
    eigen_overlaps,
    infidelity,
    solve_parametric,
)
from .problems import (
    ConductivityProfile,
    PreparedSystem,
    SourceSpec,
    heat_system,
    prepare,
    recover_solution,
)
from .schedule import default_sequence

__all__ = [
    "RunResult",
    "SweepCell",
    "SweepResult",
    "build_system",
    "cell_config",
    "evaluate_run",
    "run_single",
    "run_sweep",
    "emit_schedule",
]

log = logging.getLogger(__name__)

TRACE_SCHEMA = "avqls-trace/1"

_OVERLAP_LIMIT_QUBITS = 8


def build_system(config: RunConfig, seed: int | None = None) -> PreparedSystem:
    """Prepared system for one run; `seed` overrides the master seed."""
    n = config.solver.n
    if config.problem.family == "identity":
        b = np.zeros(2 ** n)
        b[0] = 1.0
        return prepare(np.eye(2 ** n), b)
    profile = ConductivityProfile(
        kind=config.problem.conductivity,
        lambda0=config.problem.lambda0,
        slope=config.problem.slope,
        sigma=config.problem.resolved_sigma(),
        seed=config.seed if seed is None else seed,
    )
    source = SourceSpec(
        kind=config.problem.source, l=config.problem.l, q0=config.problem.q0
    )
    matrix, b, _ = heat_system(profile, source, n)
    return prepare(matrix, b)


def evaluate_run(
    system: PreparedSystem,
    ansatz: AnsatzConfig,
    theta_star: np.ndarray,
    cost_final: float,
) -> SolutionReport:
    """Solution quality of a finished run, reported in the original basis."""
    e1 = np.zeros(system.dim)
    e1[0] = 1.0
    x_var_work = apply_ansatz(ansatz, theta_star)
    x_exact_work = solve_parametric(system.matrix, e1, 1.0)
    infid = infidelity(x_var_work, x_exact_work)
    x_var = recover_solution(system, x_var_work)
    x_exact = classical_solve(system.a_matrix, system.b_vector)
    if float(x_var @ x_exact) < 0.0:
        x_var = -x_var
    acc = accuracy(system.a_matrix, system.b_vector, x_var)
    overlaps = None
    if system.a_matrix.shape[0] <= 2 ** _OVERLAP_LIMIT_QUBITS:
        overlaps = eigen_overlaps(system.a_matrix, x_var)
    return SolutionReport(
        x_variational=x_var,
        x_exact=x_exact,
        infidelity=infid,
        accuracy=acc,
        cost_final=cost_final,
        overlaps=overlaps,
    )


@dataclass(frozen=True, eq=False)
class RunResult:
    system: PreparedSystem
    trace: RunTrace
    report: SolutionReport


def run_single(config: RunConfig, seed: int | None = None) -> RunResult:
    """Execute one configured run (no file output; see write_trace/write_summary)."""
    system = build_system(config, seed=seed)
    ansatz = AnsatzConfig(n=system.n_qubits, d=config.solver.d)
    opts = OptimizerOptions(
        gtol=config.solver.gtol,
        max_iter=config.solver.max_iter,
        bounded=config.solver.bounded,
    )
    theta, trace = solve_adiabatic(
        system,
        ansatz,
        T=config.solver.T,
        opts=opts,
        eps_psd=config.solver.eps_psd,
        mode=config.solver.schedule,
    )
    report = evaluate_run(system, ansatz, theta, trace.final_cost)
    return RunResult(system=system, trace=trace, report=report)


def trace_payload(config: RunConfig, result: RunResult, seed: int | None = None) -> dict:
    """Deterministic JSON payload for one run (timings excluded)."""
    system, trace, report = result.system, result.trace, result.report
    steps = []
    for rec in trace.steps:
        steps.append(
            {
                "index": rec.index,
                "s_from": rec.s_from,
                "s": rec.s,
                "kind": rec.kind.value,
                "delta_s": rec.delta_s,
                "lambda_min_start": rec.lambda_min_start,
                "lambda_min_at_end": rec.lambda_min_at_end,
                "iterations": rec.iterations,
                "nfev": rec.nfev,
                "circuit_evals": rec.circuit_evals,
                "cost": rec.cost,
                "grad_norm": rec.grad_norm,
                "theta_jump": rec.theta_jump,
                "converged": rec.converged,
                "note": rec.note,
            }
        )
    return {
        "schema": TRACE_SCHEMA,
        "config": config.to_payload(),
        "effective_seed": config.seed if seed is None else seed,
        "system": {
            "n_qubits": system.n_qubits,
            "problem_dim": int(system.a_matrix.shape[0]),
            "embedded": system.embedded,
            "sign_flipped": system.sign_flipped,
            "kappa": float(system.kappa),
            "matrix_scale": float(system.matrix_scale),
        },
        "run": {
            "mode": trace.mode,
            "T": trace.T,
            "t": trace.t,
            "t_over_T": trace.t / trace.T,
            "final_cost": trace.final_cost,
            "theta_star": [float(v) for v in trace.theta_star],
        },
        "steps": steps,
        "report": {
            "infidelity": report.infidelity,
            "accuracy": report.accuracy,
            "cost_final": report.cost_final,
            "x_variational": [float(v) for v in report.x_variational],
            "x_exact": [float(v) for v in report.x_exact],
            "overlaps": (
                None
                if report.overlaps is None
                else [float(v) for v in report.overlaps]
            ),
        },
    }


def dump_trace(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_trace(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_trace(payload))


_SUMMARY_FIELDS = [
    "n", "d", "T", "l", "seed", "mode", "kappa", "embedded", "t", "t_over_T",
    "final_cost", "infidelity", "accuracy", "wall_time_s", "error",
]


def summary_row(config: RunConfig, result: RunResult | None, seed: int, error: str = "") -> dict:
    row = {
        "n": config.solver.n,
        "d": config.solver.d,
        "T": config.solver.T,
        "l": config.problem.l,
        "seed": seed,
        "mode": config.solver.schedule,
        "kappa": "",
        "embedded": "",
        "t": "",
        "t_over_T": "",
        "final_cost": "",
        "infidelity": "",
        "accuracy": "",
        "wall_time_s": "",
        "error": error,
    }
    if result is not None:
        row.update(
            kappa=repr(float(result.system.kappa)),
            embedded=result.system.embedded,
            t=result.trace.t,
            t_over_T=repr(result.trace.t / result.trace.T),
            final_cost=repr(float(result.trace.final_cost)),
            infidelity=repr(float(result.report.infidelity)),
            accuracy=repr(float(result.report.accuracy)),
            wall_time_s=f"{result.trace.wall_time_s:.3f}",
        )
    return row


def write_summary(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SUMMARY_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    path.write_text(buf.getvalue())


@dataclass(frozen=True)
class SweepCell:
    n: int
    d: int
    T: int
    l: float
    seed: int

    def tag(self) -> str:
        l_tag = f"{self.l:g}"
        return f"n{self.n}_d{self.d}_T{self.T}_l{l_tag}_s{self.seed}"


@dataclass(eq=False)
class SweepResult:
    cells: list[SweepCell]
    results: dict
    errors: dict

    @property
    def any_failed(self) -> bool:
        return bool(self.errors)


def _sweep_cells(config: RunConfig) -> list[SweepCell]:
    sweep = config.sweep
    if sweep is None:
        raise ValueError("config has no sweep section")
    ns = sweep.n or (config.solver.n,)
    ds = sweep.d or (config.solver.d,)
    ts = sweep.T or (config.solver.T,)
    ls = sweep.l or (config.problem.l,)
    return [
        SweepCell(n=n, d=d, T=t, l=l, seed=seed)
        for n, d, t, l, seed in product(ns, ds, ts, ls, sweep.seeds)
    ]


def cell_config(config: RunConfig, cell: SweepCell) -> RunConfig:
    """The run configuration of one sweep cell."""
    from dataclasses import replace

    return replace(
        config,
        problem=replace(config.problem, l=cell.l),
        solver=replace(config.solver, n=cell.n, d=cell.d, T=cell.T),
    )


def _run_cell(args: tuple) -> tuple:
    config, cell = args
    cfg = cell_config(config, cell)
    # Per-cell RNG: the master seed offsets the sweep's seed entries, so a
    # different master reshuffles every cell while reruns stay identical.
    effective_seed = config.seed + cell.seed
    try:
        result = run_single(cfg, seed=effective_seed)
        return cell, result, None
    except Exception as exc:  # recorded, the sweep keeps going
        return cell, None, f"{type(exc).__name__}: {exc}"


def _outcome(cell: SweepCell, future: Future) -> tuple:
    try:
        return future.result()
    except Exception as exc:  # the worker died or the result did not pickle
        return cell, None, f"{type(exc).__name__}: {exc}"


def run_sweep(config: RunConfig, jobs: int = 1) -> SweepResult:
    """Cartesian-product sweep; failures are recorded, not fatal.

    A worker that dies breaks the pool, and every cell not returned by then
    fails with BrokenProcessPool, including cells still running in a
    healthy worker. Each such cell is rerun once, alone in a fresh
    one-worker pool, so only a cell that breaks its own pool too is
    recorded as failed. Every cell that finished keeps its result.
    """
    cells = _sweep_cells(config)
    if jobs <= 1 or not cells:
        outcomes = [_run_cell((config, cell)) for cell in cells]
    else:
        outcomes = []
        lost = []
        # a forking pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = {pool.submit(_run_cell, (config, cell)): cell for cell in cells}
            for future in as_completed(futures):
                if isinstance(future.exception(), BrokenProcessPool):
                    lost.append(futures[future])
                else:
                    outcomes.append(_outcome(futures[future], future))
        for cell in lost:
            with ProcessPoolExecutor(max_workers=1) as pool:
                outcomes.append(_outcome(cell, pool.submit(_run_cell, (config, cell))))
    results = {}
    errors = {}
    for cell, result, error in outcomes:
        if error is None:
            results[cell] = result
        else:
            log.warning("sweep cell %s failed: %s", cell.tag(), error)
            errors[cell] = error
    return SweepResult(cells=cells, results=results, errors=errors)


_AGGREGATE_FIELDS = [
    "n", "d", "T", "l", "seeds", "failures",
    "infidelity_mean", "infidelity_min", "infidelity_max",
    "accuracy_mean", "accuracy_min", "accuracy_max",
    "t_over_T_mean", "t_over_T_min", "t_over_T_max",
]


def aggregate_rows(sweep: SweepResult) -> list[dict]:
    """One row per (n, d, T, l) cell group, aggregated over seeds."""
    groups: dict[tuple, list[SweepCell]] = {}
    for cell in sweep.cells:
        groups.setdefault((cell.n, cell.d, cell.T, cell.l), []).append(cell)
    rows = []
    for key in sorted(groups):
        cells = groups[key]
        done = [sweep.results[c] for c in cells if c in sweep.results]
        row = {
            "n": key[0], "d": key[1], "T": key[2], "l": key[3],
            "seeds": len(cells), "failures": len(cells) - len(done),
        }
        if done:
            infid = np.array([r.report.infidelity for r in done])
            acc = np.array([r.report.accuracy for r in done])
            ratio = np.array([r.trace.t / r.trace.T for r in done])
            row.update(
                infidelity_mean=repr(float(infid.mean())),
                infidelity_min=repr(float(infid.min())),
                infidelity_max=repr(float(infid.max())),
                accuracy_mean=repr(float(acc.mean())),
                accuracy_min=repr(float(acc.min())),
                accuracy_max=repr(float(acc.max())),
                t_over_T_mean=repr(float(ratio.mean())),
                t_over_T_min=repr(float(ratio.min())),
                t_over_T_max=repr(float(ratio.max())),
            )
        else:
            row.update({name: "" for name in _AGGREGATE_FIELDS[6:]})
        rows.append(row)
    return rows


def write_aggregate(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_AGGREGATE_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    path.write_text(buf.getvalue())


def emit_schedule(kappa: float, T: int, fmt: str = "csv") -> str:
    """Schedule grid as CSV rows (j, s_j) or a JSON payload."""
    sched = default_sequence(kappa, T)
    if fmt == "json":
        return json.dumps(sched.to_payload(), sort_keys=True, indent=2) + "\n"
    lines = ["j,s"]
    for j, s in enumerate(sched.s_grid):
        lines.append(f"{j},{float(s)!r}")
    return "\n".join(lines) + "\n"
