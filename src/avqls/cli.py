"""Command-line interface: solve, sweep, schedule and verify subcommands.

Exit codes: 0 success, 1 configuration error (a usage error included),
2 solver error, 3 partial sweep failure. This is the one module that writes
to the terminal; the rest of avqls returns results and raises errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .runner import (
    aggregate_rows,
    cell_config,
    cell_seed,
    emit_schedule,
    run_single,
    run_sweep,
    summary_row,
    trace_payload,
    write_aggregate,
    write_summary,
    write_trace,
)

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="avqls",
        description="Adiabatic variational linear-system solver (classical emulation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a single configured problem")
    solve.add_argument("config", help="path to a JSON run configuration")
    solve.add_argument("--out", help="output directory (overrides config)")
    solve.add_argument("--seed", type=int, help="master seed (overrides config)")

    sweep = sub.add_parser("sweep", help="run the sweep section of a config")
    sweep.add_argument("config", help="path to a JSON run configuration")
    sweep.add_argument("--out", help="output directory (overrides config)")
    sweep.add_argument("--seed", type=int, help="master seed (overrides config)")
    sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="processes running cells: this one and N-1 forked workers; a cell "
        "that kills its worker is retried once, in a fresh worker only",
    )

    sched = sub.add_parser("schedule", help="print a step schedule")
    sched.add_argument("--kappa", type=float, required=True)
    sched.add_argument("--steps", type=int, default=50, metavar="T")

    sub.add_parser("verify", help="run the built-in invariant battery")
    return parser


def _apply_overrides(config, args):
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output=replace(config.output, dir=args.out))
    return config


def _out_dir(config) -> Path:
    """`output.dir`, refused before any run when it cannot be a directory; creates nothing."""
    out_dir = Path(config.output.dir)
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output.dir: {str(path)!r} is not a directory")
            break
    return out_dir


def _cmd_solve(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out_dir = _out_dir(config)
    try:
        result = run_single(config)
    except Exception as exc:  # a ValueError too, which main would call a configuration error
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    if "json" in config.output.formats:
        write_trace(out_dir / "trace.json", trace_payload(config, result))
    if "csv" in config.output.formats:
        write_summary(out_dir / "summary.csv", [summary_row(config, result, config.seed)])
    print(
        f"t={result.trace.t}/{result.trace.T} kappa={result.system.kappa:.4g} "
        f"cost={result.trace.final_cost:.3e} infidelity={result.report.infidelity:.3e} "
        f"accuracy={result.report.accuracy:.6f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    config = _apply_overrides(load_config(args.config), args)
    out_dir = _out_dir(config)
    sweep = run_sweep(config, jobs=args.jobs)
    rows = []
    for cell in sweep.cells:
        result = sweep.results.get(cell)
        error = sweep.errors.get(cell, "")
        cell_cfg = cell_config(config, cell)
        rows.append(summary_row(cell_cfg, result, cell.seed, error=error))
        if result is None:
            print(f"sweep cell {cell.tag()} failed: {error}", file=sys.stderr)
        elif "json" in config.output.formats:
            payload = trace_payload(cell_cfg, result, seed=cell_seed(config, cell))
            write_trace(out_dir / f"trace_{cell.tag()}.json", payload)
    if "csv" in config.output.formats:
        write_summary(out_dir / "sweep_details.csv", rows)
        write_aggregate(out_dir / "sweep_summary.csv", aggregate_rows(sweep))
    done = len(sweep.results)
    print(f"sweep finished: {done}/{len(sweep.cells)} cells ok")
    return 3 if sweep.errors else 0


def _cmd_schedule(args) -> int:
    sys.stdout.write(emit_schedule(args.kappa, args.steps))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "schedule":
            return _cmd_schedule(args)
        if args.command == "verify":
            from .verify import run_battery  # loaded only by the command that runs it

            return 0 if run_battery(print) else 2
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
