"""The benchmark workloads and the output checks applied to every solve.

Each workload is a closed loop driven from one process, one unit of work at
a time. A unit is one ``run_single`` call for the in-process workloads and
one ``avqls sweep --jobs 2`` invocation (several cells) for ``sweep-pool``.
A workload has a pool of ``inputs`` distinct inputs, drawn from a generator
seeded by the workload name and the workload seed, so the same seed always
gives the same inputs. Unit k solves input ``k % inputs``: the timed phase
makes at least ``passes`` passes over the pool, so an input is solved
several times, passes apart, and its solve time is the mean of its repeats.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import avqls.cli
import avqls.runner
from avqls import AnsatzConfig, config_from_dict

SWEEP_JOBS = 2
TINY = {"n": 3, "T": 4}

_HEAT_NOISY = {"conductivity": "noisy_constant", "sigma": 0.2}

# Criterion-10 family: the only in-process workload that runs
# hessian_bundle and propose_step; 32 amplitudes, so per-gate Python
# overhead dominates.
HESSIAN_WARMSTART = {
    "problem": {**_HEAT_NOISY, "source": "point"},
    "solver": {"n": 5, "d": 2, "T": 50, "schedule": "hessian"},
}
# The acceptance smoke size: 256 amplitudes, 24 parameters, no Hessian
# probes, so Hessian and step-control changes must not move it.
DYNAMIC_WIDE = {
    "problem": {**_HEAT_NOISY, "source": "point"},
    "solver": {"n": 8, "d": 2, "T": 10, "schedule": "dynamic"},
}
# The configs/sweep.json family with two seeds per invocation; the sweep's
# master seed is drawn from the workload seed.
SWEEP_POOL = {
    "problem": {**_HEAT_NOISY, "source": "exponential", "l": 0.0},
    "solver": {"n": 5, "d": 2, "T": 50, "schedule": "hessian"},
    "sweep": {"l": [0.0, 2.0, 5.0], "seeds": [0, 1]},
    "output": {"dir": "runs/sweep", "formats": ["json", "csv"]},
}


@dataclass
class UnitResult:
    """One unit of work: solves attempted, timings and per-solve records."""

    attempted: int = 0
    solve_s: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""


def check_trace(text: str) -> tuple[dict, list[str]]:
    """Per-solve record from a trace file's text, and the checks it failed."""
    trace = json.loads(text)
    steps, run, report = trace["steps"], trace["run"], trace["report"]
    problems = []
    if not steps or steps[-1]["s"] != 1.0:
        problems.append("path does not end at s == 1.0")
    if not math.isfinite(run["final_cost"]):
        problems.append(f"final cost {run['final_cost']} is not finite")
    for key in ("infidelity", "accuracy"):
        if not 0.0 <= report[key] <= 1.0:
            problems.append(f"{key} {report[key]} outside [0, 1]")
    record = {
        "infidelity": report["infidelity"],
        "accuracy": report["accuracy"],
        "t_over_T": run["t_over_T"],
        "circuit_evals": sum(step["circuit_evals"] for step in steps),
        "steps": len(steps),
        "iterations": sum(step["iterations"] for step in steps),
        "nfev": sum(step["nfev"] for step in steps),
        "converged": sum(bool(step["converged"]) for step in steps),
        "kinds": Counter(step["kind"] for step in steps),
    }
    return record, problems


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, inputs: int, passes: int) -> None:
        self.inputs = 2 if tiny else inputs
        # Unit 0 is the warm-up; the timed phase runs at least the rest of
        # `passes` passes over the pool.
        self.timed_units = self.inputs * passes - 1
        rng = random.Random(f"{self.name}:{seed}")
        self._seeds = [rng.randrange(2 ** 30) for _ in range(self.inputs)]

    def input_seed(self, k: int) -> int:
        return self._seeds[k % self.inputs]

    def unit(self, k: int) -> UnitResult:
        raise NotImplementedError


class SolveWorkload(Workload):
    """One ``run_single`` per unit; the conductivity seed is the unit input."""

    def __init__(self, name, raw_config, inputs, passes, seed, tiny):
        self.name = name
        super().__init__(seed, tiny, inputs, passes)
        if tiny:
            raw_config = {**raw_config, "solver": {**raw_config["solver"], **TINY}}
        self.config = config_from_dict(raw_config)
        self.ansatz = AnsatzConfig(self.config.solver.n, self.config.solver.d)

    def unit(self, k: int) -> UnitResult:
        seed = self.input_seed(k)
        out = UnitResult(attempted=1)
        try:
            started = time.perf_counter()
            result = avqls.runner.run_single(self.config, seed=seed)
            out.solve_s.append(time.perf_counter() - started)
            payload = avqls.runner.trace_payload(self.config, result, seed=seed)
            text = avqls.runner.dump_trace(payload)
        except Exception as exc:  # counted as a failed solve
            out.failures.append(f"unit {k} (seed {seed}): {type(exc).__name__}: {exc}")
            return out
        record, problems = check_trace(text)
        in_memory = sum(rec.circuit_evals for rec in result.trace.steps)
        if record["circuit_evals"] != in_memory:
            problems.append(
                f"trace circuit_evals {record['circuit_evals']} != run's {in_memory}"
            )
        if problems:
            out.failures.append(f"unit {k} (seed {seed}): " + "; ".join(problems))
        else:
            out.records.append(record)
        out.digest = hashlib.sha256(text.encode()).hexdigest()
        return out


class SweepWorkload(Workload):
    """One ``avqls sweep --jobs 2`` per unit through the CLI entry point.

    The master seed is the unit input. Output goes to a directory relative
    to `workdir` and named after the input, so the output directory recorded
    in the traces is the same for every solve of an input, in every process
    and checkout.
    """

    name = "sweep-pool"

    def __init__(self, inputs, passes, seed, tiny, workdir: Path):
        super().__init__(seed, tiny, inputs, passes)
        raw = SWEEP_POOL
        if tiny:
            raw = {
                **raw,
                "solver": {**raw["solver"], **TINY},
                "sweep": {"l": [0.0], "seeds": [0]},
            }
        self.cells = len(raw["sweep"]["l"]) * len(raw["sweep"]["seeds"])
        self.ansatz = AnsatzConfig(raw["solver"]["n"], raw["solver"]["d"])
        self.workdir = workdir
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(raw, indent=2))

    def unit(self, k: int) -> UnitResult:
        master = self.input_seed(k)
        out_name = f"sweep-{k % self.inputs}"  # recorded in the traces
        out_dir = self.workdir / out_name
        shutil.rmtree(out_dir, ignore_errors=True)
        out = UnitResult(attempted=self.cells)
        argv = [
            "sweep", str(self.config_path), "--jobs", str(SWEEP_JOBS),
            "--out", out_name, "--seed", str(master),
        ]
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = avqls.cli.main(argv)
        finally:
            os.chdir(here)
        try:
            out.failures.extend(self._collect(k, master, code, out_dir, out))
        except OSError as exc:
            out.failures.append(f"unit {k}: sweep output unreadable: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def _collect(self, k, master, code, out_dir, out) -> list[str]:
        where = f"unit {k} (master seed {master})"
        if code != 0:
            return [f"{where}: avqls sweep exited {code}"] * self.cells
        traces = sorted(out_dir.glob("trace_*.json"))
        with open(out_dir / "sweep_details.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failures = []
        if len(traces) != self.cells or len(rows) != self.cells:
            failures.append(
                f"{where}: {len(traces)} traces and {len(rows)} rows for {self.cells} cells"
            )
        failures += [f"{where}: cell error {row['error']}" for row in rows if row["error"]]
        out.solve_s.extend(float(row["wall_time_s"]) for row in rows if not row["error"])
        digest = hashlib.sha256()
        for path in traces:
            text = path.read_text()
            digest.update(path.name.encode() + b"\0" + text.encode())
            record, problems = check_trace(text)
            if problems:
                failures.append(f"{where} {path.name}: " + "; ".join(problems))
            else:
                out.records.append(record)
        out.digest = digest.hexdigest()
        return failures


def make_workload(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "hessian-warmstart":
        return SolveWorkload(name, HESSIAN_WARMSTART, 16, 4, seed, tiny)
    if name == "dynamic-wide":
        return SolveWorkload(name, DYNAMIC_WIDE, 3, 1, seed, tiny)
    if name == "sweep-pool":
        return SweepWorkload(12, 1, seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")

