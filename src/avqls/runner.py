"""Run assembly: configs to systems, single runs, sweeps and file outputs.

Trace JSON files contain only deterministic fields, so a rerun with the
same config and master seed is byte-identical; wall-clock timings go to
the CSV summaries instead.

A sweep with --jobs N runs its cells in N processes: this one and up to
N − 1 workers forked with os.fork (_run_forked). Its outputs are
byte-identical to jobs 1, which forks nothing. A cell whose worker dies is
retried once in a freshly forked worker, never in this process, so a cell
that kills its process cannot end the sweep; when the second worker dies
too, the cell fails as "worker died twice running this cell (exit status
1)" or "(signal 9)". A worker that cannot be forked is one worker fewer,
whose cells this process runs; only a cell waiting for its retry when no
worker runs or can be forked fails, as "no worker could be forked
(BlockingIOError: [Errno 11] Resource temporarily unavailable)". A result
that does not pickle fails its cell with the pickling error. Every cell
that finished, first time or on the retry, keeps its trace and its
sweep_details.csv row. A cell that kills this process ends the sweep and
loses the finished cells, as with jobs 1.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import deque
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .config import RunConfig
from .controller import RunTrace, solve_adiabatic
from .errors import ConfigError
from .metrics import SolutionReport, accuracy, infidelity, unit_solution
from .problems import PreparedSystem, heat_system, prepare, recover_solution
from .schedule import default_sequence

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "RunResult",
    "SweepCell",
    "SweepResult",
    "build_system",
    "cell_config",
    "cell_seed",
    "evaluate_run",
    "run_single",
    "run_sweep",
    "emit_schedule",
]

TRACE_SCHEMA = "avqls-trace/2"


def build_system(config: RunConfig, seed: int | None = None) -> PreparedSystem:
    """Prepared system for one run; `seed` overrides the master seed."""
    seed = config.seed if seed is None else seed
    return prepare(*heat_system(config.problem, config.solver.n, seed))


def evaluate_run(
    system: PreparedSystem,
    ansatz: AnsatzConfig,
    theta_star: np.ndarray,
) -> SolutionReport:
    """Solution quality of a finished run, reported in the original basis."""
    e1 = np.zeros(system.dim)
    e1[0] = 1.0
    x_var_work = apply_ansatz(ansatz, theta_star)
    # prepare has checked the condition number, which system.matrix and A share
    x_exact_work = unit_solution(system.matrix, e1)
    infid = infidelity(x_var_work, x_exact_work)
    x_var = recover_solution(system, x_var_work)
    x_exact = unit_solution(system.a_matrix, system.b_vector)
    if float(x_var @ x_exact) < 0.0:
        x_var = -x_var
    acc = accuracy(system.a_matrix, system.b_vector, x_var)
    return SolutionReport(x_variational=x_var, x_exact=x_exact, infidelity=infid, accuracy=acc)


@dataclass(frozen=True, eq=False)
class RunResult:
    system: PreparedSystem
    trace: RunTrace
    report: SolutionReport


def run_single(config: RunConfig, seed: int | None = None) -> RunResult:
    """Execute one configured run (no file output; see write_trace/write_summary)."""
    system = build_system(config, seed=seed)
    ansatz = AnsatzConfig(n=system.n_qubits, d=config.solver.d)
    trace = solve_adiabatic(system, ansatz, config.solver)
    report = evaluate_run(system, ansatz, trace.theta_star)
    return RunResult(system=system, trace=trace, report=report)


def trace_payload(config: RunConfig, result: RunResult, seed: int | None = None) -> dict:
    """Deterministic JSON payload for one run (timings excluded)."""
    system, trace, report = result.system, result.trace, result.report
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
            "theta_star": trace.theta_star.tolist(),
        },
        "steps": [
            {f.name: getattr(rec, f.name) for f in fields(rec)} for rec in trace.steps
        ],
        "report": {
            "infidelity": report.infidelity,
            "accuracy": report.accuracy,
            "x_variational": report.x_variational.tolist(),
            "x_exact": report.x_exact.tolist(),
        },
    }


def dump_trace(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_trace(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_trace(payload))


_SUMMARY_FIELDS = [
    "n", "d", "T", "l", "seed", "mode", "kappa", "embedded", "t", "t_over_T",
    "circuit_evals", "final_cost", "infidelity", "accuracy", "wall_time_s", "error",
]


def summary_row(config: RunConfig, result: RunResult | None, seed: int, error: str = "") -> dict:
    row = dict.fromkeys(_SUMMARY_FIELDS, "")
    row.update(
        n=config.solver.n,
        d=config.solver.d,
        T=config.solver.T,
        l=config.problem.l,
        seed=seed,
        mode=config.solver.schedule,
        error=error,
    )
    if result is not None:
        row.update(
            kappa=repr(float(result.system.kappa)),
            embedded=result.system.embedded,
            t=result.trace.t,
            t_over_T=repr(result.trace.t / result.trace.T),
            circuit_evals=result.trace.circuit_evals,
            final_cost=repr(float(result.trace.final_cost)),
            infidelity=repr(float(result.report.infidelity)),
            accuracy=repr(float(result.report.accuracy)),
            wall_time_s=f"{result.trace.wall_time_s:.6f}",
        )
    return row


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def write_summary(path: Path, rows: list[dict]) -> None:
    _write_csv(path, _SUMMARY_FIELDS, rows)


@dataclass(frozen=True)
class SweepCell:
    n: int
    d: int
    T: int
    l: float
    seed: int

    def tag(self) -> str:
        l_tag = repr(self.l).removesuffix(".0")  # exact, so no two cells share a trace file
        return f"n{self.n}_d{self.d}_T{self.T}_l{l_tag}_s{self.seed}"


@dataclass(eq=False)
class SweepResult:
    cells: list[SweepCell]
    results: dict
    errors: dict


def _sweep_cells(config: RunConfig) -> list[SweepCell]:
    sweep = config.sweep
    if sweep is None:
        raise ConfigError("sweep: section missing from config")
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
    return replace(
        config,
        problem=replace(config.problem, l=cell.l),
        solver=replace(config.solver, n=cell.n, d=cell.d, T=cell.T),
    )


def cell_seed(config: RunConfig, cell: SweepCell) -> int:
    """The cell's RNG seed: the master seed offsets the sweep's seed entry, so
    a different master reshuffles every cell while reruns stay identical."""
    return config.seed + cell.seed


def _run_cell(config: RunConfig, cell: SweepCell) -> tuple:
    try:
        result = run_single(cell_config(config, cell), seed=cell_seed(config, cell))
        return cell, result, None
    except Exception as exc:  # recorded, the sweep keeps going
        return cell, None, f"{type(exc).__name__}: {exc}"


def _serve(config: RunConfig, conn: Connection) -> None:
    """A worker's loop: run each cell received and send its outcome, until None."""
    while (cell := conn.recv()) is not None:
        outcome = _run_cell(config, cell)
        try:
            conn.send(outcome)
        except Exception as exc:  # the outcome did not pickle, so nothing was sent
            conn.send((cell, None, f"{type(exc).__name__}: {exc}"))


def _send(conn: Connection, cell: SweepCell | None) -> None:
    try:
        conn.send(cell)
    except OSError:  # the worker is gone; its pipe reads as EOF at the next wait
        pass


def _run_forked(config: RunConfig, cells: list[SweepCell], jobs: int) -> list[tuple]:
    """Outcomes of `cells` run in min(jobs, cells) processes: this one and the workers it forks.

    Each of the min(jobs, cells) − 1 workers is handed the next pending cell
    at fork, and each outcome it sends is answered with its next cell, or
    None once none is left. This process runs the other pending cells with
    _run_cell and polls the workers after each; it blocks on them only when
    no cell is left for it. A dead worker's cell waits for a retry, which
    only a worker forked for it runs, forked whenever fewer than
    min(jobs, cells) − 1 workers are busy. The cells still waiting when no
    worker is busy and none can be forked are recorded as failed. Every
    worker is reaped before this returns, also on an exception, when the
    busy ones are killed first.
    """
    from signal import SIGKILL

    pending, retries = deque(cells), deque()
    busy: dict[Connection, tuple[int, SweepCell]] = {}
    retired, died_once, outcomes = [], set(), []
    workers = min(jobs, len(cells)) - 1
    fork_error = None

    def start(queue: deque) -> bool:
        """Fork a worker for queue[0] and pop it; on an OSError the cell stays queued."""
        # imported here, so that only a forking sweep loads multiprocessing; its
        # workers inherit the modules
        from multiprocessing.connection import Pipe

        nonlocal fork_error
        ends = ()
        try:
            ends = ours, theirs = Pipe()
            pid = os.fork()
        except OSError as exc:
            for end in ends:
                end.close()
            fork_error = f"{type(exc).__name__}: {exc}"
            return False
        cell = queue.popleft()
        if pid == 0:
            # the worker inherits `config`; it holds no pipe end but its own, so
            # its death reads as EOF in the parent, and it never returns
            status = 1
            try:
                for conn in (ours, *busy):
                    conn.close()
                _serve(config, theirs)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        busy[ours] = pid, cell
        _send(ours, cell)
        return True

    try:
        for _ in range(workers):
            start(pending)
        while True:
            if busy:  # a worker was forked, so multiprocessing.connection is loaded
                from multiprocessing.connection import wait

                # a poll while this process has a cell to run, else a block
                for conn in wait(list(busy), timeout=0 if pending else None):
                    pid, cell = busy[conn]
                    try:
                        outcomes.append(conn.recv())
                    except (EOFError, OSError):  # the worker died running `cell`
                        del busy[conn]
                        conn.close()
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                        if cell in died_once:
                            error = f"worker died twice running this cell ({how})"
                            outcomes.append((cell, None, error))
                        else:
                            died_once.add(cell)
                            retries.append(cell)
                        continue
                    if pending:
                        busy[conn] = pid, pending.popleft()
                        _send(conn, busy[conn][1])
                    else:
                        del busy[conn]
                        _send(conn, None)
                        conn.close()
                        retired.append(pid)
            while retries and len(busy) < workers and start(retries):
                pass
            if pending:
                outcomes.append(_run_cell(config, pending.popleft()))
            elif not busy:
                break
        for cell in retries:  # no worker is running, and none could be forked
            outcomes.append((cell, None, f"no worker could be forked ({fork_error})"))
    finally:
        for conn, (pid, _) in busy.items():
            conn.close()
            os.kill(pid, SIGKILL)
            retired.append(pid)
        for pid in retired:
            os.waitpid(pid, 0)
    return outcomes


def run_sweep(config: RunConfig, jobs: int = 1) -> SweepResult:
    """Cartesian-product sweep in `jobs` processes; failures are recorded, not fatal.

    The module docstring states how the processes are forked and a cell retried.
    """
    cells = _sweep_cells(config)
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"jobs {jobs}: parallel sweeps need os.fork, which this platform lacks")
    outcomes = _run_forked(config, cells, jobs)
    found = {cell: (result, error) for cell, result, error in outcomes}
    results = {}
    errors = {}
    for cell in cells:
        result, error = found[cell]
        if error is None:
            results[cell] = result
        else:
            errors[cell] = error
    return SweepResult(cells=cells, results=results, errors=errors)


# Each of these per-run values gets a _mean, _min and _max column.
_AGGREGATED = {
    "infidelity": lambda result: result.report.infidelity,
    "accuracy": lambda result: result.report.accuracy,
    "t_over_T": lambda result: result.trace.t / result.trace.T,
}
_STATS = ("mean", "min", "max")
_AGGREGATE_FIELDS = ["n", "d", "T", "l", "seeds", "failures"] + [
    f"{name}_{stat}" for name in _AGGREGATED for stat in _STATS
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
        row = dict.fromkeys(_AGGREGATE_FIELDS, "")
        row.update(
            n=key[0], d=key[1], T=key[2], l=key[3],
            seeds=len(cells), failures=len(cells) - len(done),
        )
        if done:
            for name, value in _AGGREGATED.items():
                values = np.array([value(r) for r in done])
                for stat in _STATS:
                    row[f"{name}_{stat}"] = repr(float(getattr(values, stat)()))
        rows.append(row)
    return rows


def write_aggregate(path: Path, rows: list[dict]) -> None:
    _write_csv(path, _AGGREGATE_FIELDS, rows)


def emit_schedule(kappa: float, T: int) -> str:
    """The default grid as CSV rows (j, s_j)."""
    lines = ["j,s"]
    for j, s in enumerate(default_sequence(kappa, T)):
        lines.append(f"{j},{float(s)!r}")
    return "\n".join(lines) + "\n"
