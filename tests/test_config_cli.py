import csv
import errno
import hashlib
import itertools
import json
import multiprocessing.connection
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import avqls
import avqls.cost as cost_module
import avqls.runner as runner
from avqls import (
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    run_single,
    run_sweep,
)
from avqls.cli import main
from avqls.config import OutputConfig, ProblemConfig, SolverConfig, SweepConfig
from avqls.runner import (
    aggregate_rows,
    cell_config,
    dump_trace,
    emit_schedule,
    trace_payload,
)

from conftest import clear_start_states

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.solver.n == 4
    assert cfg.solver.d == 2
    assert cfg.solver.T == 50
    assert cfg.solver.schedule == "hessian"
    assert cfg.problem.conductivity == "constant"
    assert cfg.problem.source == "point"
    assert cfg.problem.resolved_sigma() == 0.0
    assert cfg.seed == 0
    assert cfg.sweep is None
    assert cfg.output.formats == ("json", "csv")


def test_noisy_sigma_default():
    cfg = config_from_dict({"problem": {"conductivity": "noisy_constant"}})
    assert cfg.problem.sigma is None
    assert cfg.problem.resolved_sigma() == 0.2


def test_unknown_keys_name_the_field_path():
    with pytest.raises(ConfigError, match=r"solver\.m: unknown key"):
        config_from_dict({"solver": {"m": 3}})
    with pytest.raises(ConfigError, match=r"top level\.fooo"):
        config_from_dict({"fooo": 1})
    with pytest.raises(ConfigError, match=r"sweep\.kappa"):
        config_from_dict({"sweep": {"kappa": [1]}})
    # a config that sets a removed setting fails on that key
    for raw, path in (
        ({"problem": {"family": "heat"}}, "problem.family"),
        ({"problem": {"q0": 1.0}}, "problem.q0"),
        ({"solver": {"bounded": False}}, "solver.bounded"),
        ({"problem": {"lambda0": 1.0}}, "problem.lambda0"),
        ({"problem": {"slope": 2.0}}, "problem.slope"),
        ({"solver": {"eps_psd": 1e-8}}, "solver.eps_psd"),
        ({"solver": {"max_iter": 500}}, "solver.max_iter"),
    ):
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value) == f"{path}: unknown key"


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_shipped_configs_load(path):
    config = load_config(path)
    if config.sweep is not None:
        cells = runner._sweep_cells(config)
        assert cells
        for cell in cells:
            assert cell_config(config, cell).solver.n == cell.n


def test_value_validation_messages():
    with pytest.raises(ConfigError, match=r"solver\.n: expected an integer"):
        config_from_dict({"solver": {"n": "4"}})
    with pytest.raises(ConfigError, match=r"solver\.n: expected an integer"):
        config_from_dict({"solver": {"n": True}})
    with pytest.raises(ConfigError, match=r"solver\.T: must be >= 1"):
        config_from_dict({"solver": {"T": 0}})
    with pytest.raises(ConfigError, match=r"solver\.schedule: expected one of"):
        config_from_dict({"solver": {"schedule": "euler"}})
    with pytest.raises(ConfigError, match=r"problem\.sigma"):
        config_from_dict({"problem": {"conductivity": "constant", "sigma": 0.5}})
    with pytest.raises(ConfigError, match=r"sweep\.l"):
        config_from_dict({"problem": {"source": "point"}, "sweep": {"l": [0, 2]}})
    with pytest.raises(ConfigError, match=r"sweep\.seeds\[1\]"):
        config_from_dict(
            {"problem": {"source": "point"}, "sweep": {"seeds": [0, -1]}}
        )


_CONDUCTIVITIES = "('constant', 'noisy_constant', 'linear', 'noisy_linear')"


def case_ids(cases, retired):
    """`<number>-<field path>` ids; a deleted case's number stays retired, so no other id moves."""
    numbers = (i for i in itertools.count() if i not in retired)
    return [f"{next(numbers)}-{message.split(':')[0]}" for _, message in cases]


# One wrong-type and one out-of-range value for every field, with the exact
# message each raises.
FIELD_ERRORS = [
    ({"problem": {"conductivity": 1}},
     f"problem.conductivity: expected one of {_CONDUCTIVITIES}, got 1"),
    ({"problem": {"conductivity": "gaussian"}},
     f"problem.conductivity: expected one of {_CONDUCTIVITIES}, got 'gaussian'"),
    ({"problem": {"sigma": "0.2"}}, "problem.sigma: expected a number, got '0.2'"),
    ({"problem": {"sigma": -0.1}}, "problem.sigma: must be >= 0.0, got -0.1"),
    ({"problem": {"source": []}},
     "problem.source: expected one of ('point', 'exponential'), got []"),
    ({"problem": {"source": "line"}},
     "problem.source: expected one of ('point', 'exponential'), got 'line'"),
    ({"problem": {"l": None}}, "problem.l: expected a number, got None"),
    ({"problem": {"l": -1}}, "problem.l: must be >= 0.0, got -1.0"),
    ({"solver": {"n": "4"}}, "solver.n: expected an integer, got '4'"),
    ({"solver": {"n": 0}}, "solver.n: must be >= 1, got 0"),
    ({"solver": {"d": 1.0}}, "solver.d: expected an integer, got 1.0"),
    ({"solver": {"d": -1}}, "solver.d: must be >= 0, got -1"),
    ({"solver": {"T": True}}, "solver.T: expected an integer, got True"),
    ({"solver": {"T": 0}}, "solver.T: must be >= 1, got 0"),
    ({"solver": {"schedule": None}},
     "solver.schedule: expected one of ('fixed', 'dynamic', 'hessian'), got None"),
    ({"solver": {"schedule": "euler"}},
     "solver.schedule: expected one of ('fixed', 'dynamic', 'hessian'), got 'euler'"),
    ({"solver": {"gtol": [1e-8]}}, "solver.gtol: expected a number, got [1e-08]"),
    ({"solver": {"gtol": -1e-8}}, "solver.gtol: must be > 0.0, got -1e-08"),
    ({"sweep": {"n": 4}}, "sweep.n: expected a non-empty list"),
    ({"sweep": {"n": [2, 0]}}, "sweep.n[1]: must be >= 1, got 0"),
    ({"sweep": {"d": ["2"]}}, "sweep.d[0]: expected an integer, got '2'"),
    ({"sweep": {"d": [1, -1]}}, "sweep.d[1]: must be >= 0, got -1"),
    ({"sweep": {"T": [5.0]}}, "sweep.T[0]: expected an integer, got 5.0"),
    ({"sweep": {"T": [5, 0]}}, "sweep.T[1]: must be >= 1, got 0"),
    ({"sweep": {"l": "x"}}, "sweep.l: expected a non-empty list"),
    ({"sweep": {"l": [0.0, -1]}}, "sweep.l[1]: must be >= 0.0, got -1.0"),
    ({"sweep": {"seeds": []}}, "sweep.seeds: expected a non-empty list"),
    ({"sweep": {"seeds": [0, -1]}}, "sweep.seeds[1]: must be >= 0, got -1"),
    ({"output": {"dir": 3}}, "output.dir: expected a non-empty string"),
    ({"output": {"dir": ""}}, "output.dir: expected a non-empty string"),
    ({"output": {"formats": "json"}}, "output.formats: expected a non-empty list"),
    ({"output": {"formats": ["json", "xml"]}},
     "output.formats[1]: expected one of ('json', 'csv'), got 'xml'"),
    ({"seed": "0"}, "seed: expected an integer, got '0'"),
    ({"seed": -1}, "seed: must be >= 0, got -1"),
    ([], "top level: expected a JSON object"),
    ({"problem": 1}, "problem: expected a JSON object"),
    ({"solver": None}, "solver: expected a JSON object"),
    ({"sweep": []}, "sweep: expected a JSON object"),
    ({"output": "runs"}, "output: expected a JSON object"),
    ({"sweep": {"n": [2, 3, 2]}}, "sweep.n[2]: repeats an earlier entry, got 2"),
    ({"sweep": {"d": [1, 1]}}, "sweep.d[1]: repeats an earlier entry, got 1"),
    ({"sweep": {"T": [5, 5]}}, "sweep.T[1]: repeats an earlier entry, got 5"),
    ({"sweep": {"l": [2, 2.0]}}, "sweep.l[1]: repeats an earlier entry, got 2.0"),
    ({"sweep": {"seeds": [0, 0]}}, "sweep.seeds[1]: repeats an earlier entry, got 0"),
    ({"problem": {"sigma": float("nan")}}, "problem.sigma: expected a finite number, got nan"),
    ({"problem": {"l": float("inf")}}, "problem.l: expected a finite number, got inf"),
    ({"solver": {"gtol": float("nan")}}, "solver.gtol: expected a finite number, got nan"),
    ({"sweep": {"l": [0.0, float("inf")]}}, "sweep.l[1]: expected a finite number, got inf"),
    ({"problem": {"l": 5.0}}, "problem.l: requires problem.source = 'exponential'"),
]


@pytest.mark.parametrize(
    "raw, message",
    FIELD_ERRORS,
    ids=case_ids(
        FIELD_ERRORS, retired={0, 1, 4, 5, 6, 7, 14, 15, 24, 25, 28, 29, 30, 31, 58, 59, 62, 63}
    ),
)
def test_every_field_error_message(raw, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert str(info.value) == message


SECTIONS = {
    "problem": ProblemConfig, "solver": SolverConfig, "sweep": SweepConfig, "output": OutputConfig,
}


def one_field(raw):
    """(dataclass, field, value) of a case that sets one field of one section, or the seed."""
    if not isinstance(raw, dict) or len(raw) != 1:
        return None
    ((section, body),) = raw.items()
    if section == "seed":
        return RunConfig, "seed", body
    if isinstance(body, dict) and len(body) == 1:
        ((name, value),) = body.items()
        return SECTIONS[section], name, value
    return None


DIRECT_ERRORS = [(case, message) for raw, message in FIELD_ERRORS if (case := one_field(raw))]


@pytest.mark.parametrize(
    "case, message",
    DIRECT_ERRORS,
    ids=case_ids(
        DIRECT_ERRORS, retired={0, 1, 4, 5, 6, 7, 14, 15, 24, 25, 28, 29, 30, 31, 53, 54, 57, 58}
    ),
)
def test_every_field_error_message_when_built_directly(case, message):
    cls, name, value = case
    with pytest.raises(ConfigError) as info:
        cls(**{name: value})
    assert str(info.value) == message


def test_sweep_l_needs_exponential_source_when_built_directly():
    with pytest.raises(ConfigError) as info:
        RunConfig(sweep=SweepConfig(l=(1.0,)))
    assert str(info.value) == "sweep.l: requires problem.source = 'exponential'"
    config = RunConfig(problem=ProblemConfig(source="exponential"), sweep=SweepConfig(l=(1.0,)))
    assert config.sweep.l == (1.0,)


def test_replace_on_a_built_section_checks_again_to_the_same_values():
    sweep = SweepConfig(n=[2, 3], l=[0, 2.0], seeds=(0, 1))
    assert (sweep.n, sweep.l, sweep.seeds) == ((2, 3), (0.0, 2.0), (0, 1))
    assert replace(sweep, d=(1,)) == SweepConfig(n=(2, 3), d=(1,), l=(0.0, 2.0), seeds=(0, 1))
    with pytest.raises(ConfigError, match=r"^sweep\.seeds\[1\]: repeats an earlier entry"):
        replace(sweep, seeds=(0, 0))
    output = replace(OutputConfig(), dir="elsewhere")
    assert output == OutputConfig(dir="elsewhere", formats=["json", "csv"])
    with pytest.raises(ConfigError, match=r"^output\.dir: "):
        replace(output, dir="")
    config = RunConfig(problem=ProblemConfig(source="exponential"), sweep=sweep, output=output)
    again = replace(config, seed=3)
    assert (again.problem, again.sweep, again.output) == (config.problem, sweep, output)


def test_null_reads_as_absent():
    assert config_from_dict({"sweep": None}) == config_from_dict({})
    assert config_from_dict({"sweep": {"n": None, "l": None}}).sweep == SweepConfig()
    assert config_from_dict({"problem": {"sigma": None}}).problem == ProblemConfig()


def test_noisy_conductivity_needs_positive_sigma(tmp_path, capsys):
    for kind in ("noisy_constant", "noisy_linear"):
        with pytest.raises(ConfigError, match=r"^problem\.sigma: "):
            config_from_dict({"problem": {"conductivity": kind, "sigma": 0}})
    raw = small_heat_raw()
    raw["problem"].update(conductivity="noisy_constant", sigma=0.0)
    assert main(["solve", str(write_config(tmp_path, raw))]) == 1
    assert "problem.sigma" in capsys.readouterr().err


def test_source_exponent_needs_exponential_source(tmp_path, capsys):
    # a point source has no exponent, so l > 0 would be echoed into the trace and ignored
    raw = small_heat_raw()
    raw["problem"]["l"] = 5.0
    assert main(["solve", str(write_config(tmp_path, raw))]) == 1
    assert "problem.l: requires problem.source = 'exponential'" in capsys.readouterr().err
    raw["problem"]["source"] = "exponential"
    assert config_from_dict(raw).problem.l == 5.0


def test_negative_zero_reads_as_zero():
    # -0.0 == 0.0, and sweep.l [0.0, -0.0] is a repeat; so the echoed config
    # and the trace file names must not tell the two spellings apart
    def read(zero):
        problem = {"conductivity": "constant", "sigma": zero, "source": "exponential", "l": zero}
        config = config_from_dict({"problem": problem, "sweep": {"l": [zero]}})
        tags = [cell.tag() for cell in runner._sweep_cells(config)]
        return json.dumps(config.to_payload()), tags

    assert read(-0.0) == read(0.0)


def test_payload_round_trip():
    raw = {
        "problem": {
            "conductivity": "noisy_linear", "sigma": 0.1,
            "source": "exponential", "l": 2.0,
        },
        "solver": {
            "n": 3, "d": 1, "T": 25, "schedule": "dynamic", "gtol": 1e-7,
        },
        "sweep": {"n": [2, 3], "d": [0, 1], "T": [10, 20], "l": [0.0, 2.0], "seeds": [0, 1, 2]},
        "output": {"dir": "runs/round-trip", "formats": ["csv"]},
        "seed": 7,
    }
    cfg = config_from_dict(raw)
    default = RunConfig(sweep=SweepConfig())
    for name in ("problem", "solver", "sweep", "output"):
        for f in fields(getattr(cfg, name)):
            assert getattr(getattr(cfg, name), f.name) != getattr(getattr(default, name), f.name)
    assert cfg.seed != default.seed
    payload = cfg.to_payload()
    assert payload == raw
    again = config_from_dict(payload)
    assert again.to_payload() == payload
    assert isinstance(again, RunConfig)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)


def small_heat_raw(**solver):
    merged = {"n": 2, "d": 1, "T": 10, "schedule": "hessian"}
    merged.update(solver)
    return {"problem": {"conductivity": "constant", "source": "point"}, "solver": merged}


def test_run_single_small_heat():
    result = run_single(config_from_dict(small_heat_raw()))
    assert result.report.infidelity < 1e-6
    assert result.trace.steps[-1].s == 1.0


def test_trace_payload_is_deterministic_and_timing_free():
    cfg = config_from_dict(small_heat_raw())
    first = dump_trace(trace_payload(cfg, run_single(cfg)))
    second = dump_trace(trace_payload(cfg, run_single(cfg)))
    assert first == second
    assert "wall_time" not in first
    payload = json.loads(first)
    assert payload["schema"] == "avqls-trace/2"
    assert payload["run"]["t"] == len(payload["steps"])


def test_trace_report_holds_the_solution_and_its_quality_only():
    cfg = config_from_dict(small_heat_raw())
    report = trace_payload(cfg, run_single(cfg))["report"]
    assert set(report) == {"infidelity", "accuracy", "x_variational", "x_exact"}


def test_sweep_cell_matches_single_run():
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 2, "d": 1, "T": 5, "schedule": "dynamic"},
        "sweep": {"seeds": [3]},
    }
    sweep = run_sweep(config_from_dict(raw))
    assert not sweep.any_failed
    cell_result = sweep.results[sweep.cells[0]]

    single_raw = {k: v for k, v in raw.items() if k != "sweep"}
    single_raw["seed"] = 3
    single = run_single(config_from_dict(single_raw))
    assert single.report.infidelity == cell_result.report.infidelity
    assert np.array_equal(single.trace.theta_star, cell_result.trace.theta_star)
    assert [r.s for r in single.trace.steps] == [r.s for r in cell_result.trace.steps]


def test_aggregate_rows_group_over_seeds():
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 2, "d": 1, "T": 5, "schedule": "dynamic"},
        "sweep": {"seeds": [0, 1]},
    }
    sweep = run_sweep(config_from_dict(raw))
    rows = aggregate_rows(sweep)
    assert len(rows) == 1
    row = rows[0]
    assert row["seeds"] == 2
    assert row["failures"] == 0
    lo = float(row["infidelity_min"])
    mid = float(row["infidelity_mean"])
    hi = float(row["infidelity_max"])
    assert lo <= mid <= hi


def test_emit_schedule_formats():
    text = emit_schedule(10.0, 5)
    lines = text.strip().splitlines()
    assert lines[0] == "j,s"
    assert len(lines) == 7
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[-1].split(",")[1]) == 1.0


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_solve_writes_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_heat_raw())
    out = tmp_path / "out"
    code = main(["solve", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "trace.json").exists()
    assert (out / "summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "infidelity=" in stdout and "kappa=" in stdout
    payload = json.loads((out / "trace.json").read_text())
    assert payload["report"]["infidelity"] < 1e-6
    # the summary row carries the run's device cost, summed over its steps
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["circuit_evals"]) == sum(step["circuit_evals"] for step in payload["steps"])


def test_cli_solve_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, small_heat_raw())
    out = tmp_path / "out"
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 0
    first = (out / "trace.json").read_bytes()
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "trace.json").read_bytes() == first


def test_cli_seed_override(tmp_path):
    raw = small_heat_raw()
    raw["problem"]["conductivity"] = "noisy_constant"
    cfg_path = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["solve", str(cfg_path), "--out", str(out2), "--seed", "6"]) == 0
    p1 = json.loads((out1 / "trace.json").read_text())
    p2 = json.loads((out2 / "trace.json").read_text())
    assert p1["config"]["seed"] == 5
    assert p1["system"]["kappa"] != p2["system"]["kappa"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1
    cfg_path = write_config(tmp_path, {"solver": {"m": 1}})
    assert main(["solve", str(cfg_path)]) == 1
    assert "solver.m" in capsys.readouterr().err


TWO_CELL_SWEEP = {
    "problem": {"conductivity": "noisy_constant"},
    "solver": {"n": 2, "d": 1, "T": 4},
    "sweep": {"seeds": [0, 1]},
}


@pytest.mark.parametrize(
    "command, raw, extra, message",
    [
        ("solve", {"solver": {"n": 0}}, [], "solver.n: must be >= 1, got 0"),
        (
            "sweep",
            {
                "problem": {"conductivity": "noisy_constant"},
                "solver": {"n": 2, "d": 1, "T": 4},
                "sweep": {"seeds": [0, 0]},
            },
            [],
            "sweep.seeds[1]: repeats an earlier entry, got 0",
        ),
        ("solve", small_heat_raw(), ["--seed", "-1"], "seed: must be >= 0, got -1"),
        ("sweep", TWO_CELL_SWEEP, ["--jobs", "0"], "--jobs: must be >= 1, got 0"),
        ("sweep", TWO_CELL_SWEEP, ["--jobs", "-3"], "--jobs: must be >= 1, got -3"),
        ("solve", {"problem": {"q0": 1.0}}, [], "problem.q0: unknown key"),
        ("sweep", small_heat_raw(), [], "sweep: section missing from config"),
    ],
    ids=[
        "solve", "sweep", "seed-override", "jobs-zero", "jobs-negative", "removed-key",
        "no-sweep-section",
    ],
)
def test_cli_config_error_is_one_stderr_line(tmp_path, command, raw, extra, message):
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "avqls.cli", command, str(cfg_path), *extra, "--out", str(out)],
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"configuration error: {message}\n"
    assert not out.exists()


def test_cli_sweep_requires_section(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_heat_raw())
    assert main(["sweep", str(cfg_path)]) == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
@pytest.mark.parametrize(
    "command, raw, extra",
    [("solve", small_heat_raw(), []), ("sweep", TWO_CELL_SWEEP, ["--jobs", "2"])],
    ids=["solve", "sweep-jobs-2"],
)
def test_cli_refuses_an_output_dir_that_cannot_be_one_before_any_run(
    tmp_path, monkeypatch, capsys, command, raw, extra, under
):
    def never(config, seed=None):
        raise AssertionError("run before the output directory was checked")

    monkeypatch.setattr("avqls.cli.run_single", never)
    monkeypatch.setattr(runner, "run_single", never)
    cfg_path = write_config(tmp_path, raw)
    blocker = tmp_path / "F"
    blocker.write_text("keep me\n")
    assert main([command, str(cfg_path), "--out", str(blocker / under), *extra]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: output.dir: {str(blocker)!r} is not a directory\n"
    )
    assert blocker.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "config.json"]


def test_cli_solver_error_exit_code(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, small_heat_raw())

    def boom(config):
        raise RuntimeError("sweep exceeded 15 steps")

    monkeypatch.setattr("avqls.cli.run_single", boom)
    assert main(["solve", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "solver error: sweep exceeded 15 steps\n"


def test_cli_solve_prints_a_solver_value_error_as_a_solver_error(tmp_path, monkeypatch, capsys):
    # a ValueError from the run is the solver's, not a configuration error,
    # and its line reaches stderr although logging is already configured
    cfg_path = write_config(tmp_path, small_heat_raw())
    out = tmp_path / "out"

    def boom(config):
        raise ValueError("boom")

    monkeypatch.setattr("avqls.cli.run_single", boom)
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "solver error: boom\n")
    assert not out.exists()


def test_cli_sweep_partial_failure_exit_code(tmp_path, monkeypatch):
    raw = small_heat_raw()
    raw["problem"]["conductivity"] = "noisy_constant"
    raw["sweep"] = {"seeds": [0, 1]}
    cfg_path = write_config(tmp_path, raw)

    real_run_cell = runner._run_cell

    def flaky(config, cell):
        if cell.seed == 1:
            return cell, None, "RuntimeError: injected failure"
        return real_run_cell(config, cell)

    monkeypatch.setattr(runner, "_run_cell", flaky)
    out = tmp_path / "out"
    code = main(["sweep", str(cfg_path), "--out", str(out)])
    assert code == 3
    details = (out / "sweep_details.csv").read_text()
    assert "injected failure" in details
    assert (out / "sweep_summary.csv").exists()


def test_cli_sweep_happy_path(tmp_path, capsys):
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 2, "d": 1, "T": 5, "schedule": "dynamic"},
        "sweep": {"seeds": [0, 1]},
    }
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    code = main(["sweep", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert "2/2 cells ok" in capsys.readouterr().out
    traces = sorted(out.glob("trace_*.json"))
    assert len(traces) == 2
    with open(out / "sweep_details.csv", newline="") as fh:
        charged = [int(row["circuit_evals"]) for row in csv.DictReader(fh)]
    steps = [json.loads(path.read_text())["steps"] for path in traces]
    assert sum(charged) == sum(step["circuit_evals"] for run in steps for step in run)


def sweep_outputs(out) -> tuple[dict, list[dict]]:
    """Trace bytes by file name, and sweep_details.csv rows without wall time."""
    traces = {path.name: path.read_bytes() for path in sorted(out.glob("trace_*.json"))}
    with open(out / "sweep_details.csv", newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_time_s"} for row in csv.DictReader(fh)]
    return traces, rows


def test_cli_sweep_writes_one_trace_per_cell_for_close_l(tmp_path, capsys):
    # l values equal to 6 digits still get a trace file each; a whole l keeps its short name
    raw = {
        "problem": {"conductivity": "noisy_constant", "source": "exponential"},
        "solver": {"n": 2, "d": 1, "T": 4},
        "sweep": {"l": [1.0, 1.0000001], "seeds": [0]},
    }
    out = tmp_path / "out"
    assert main(["sweep", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    assert "2/2 cells ok" in capsys.readouterr().out
    traces, rows = sweep_outputs(out)
    assert sorted(traces) == ["trace_n2_d1_T4_l1.0000001_s0.json", "trace_n2_d1_T4_l1_s0.json"]
    assert len(rows) == 2


def test_cli_sweep_jobs_two_matches_jobs_one(tmp_path, capsys):
    solver = {"n": 3, "d": 1, "T": 4, "schedule": "hessian"}
    sweeps = [  # each config, and the trace whose system is embedded, if any
        ({"problem": {"conductivity": "noisy_constant"}, "sweep": {"seeds": [0, 1]}}, None),
        # seed 3's spectrum has both signs, so it runs embedded on 4 wires
        (
            {"problem": {"conductivity": "noisy_constant", "sigma": 1.0},
             "sweep": {"seeds": [2, 3]}},
            "trace_n3_d1_T4_l0_s3.json",
        ),
        # more cells than --jobs 3 has processes, so cells are handed out after the fork
        ({"problem": {"conductivity": "noisy_constant"}, "sweep": {"seeds": [4, 5, 6, 7, 8]}},
         None),
    ]
    out = tmp_path / "out"  # recorded in the traces, so every run uses it
    for raw, embedded in sweeps:
        cfg_path = write_config(tmp_path, {**raw, "solver": solver})
        cells = len(raw["sweep"]["seeds"])
        outputs = []
        for jobs in ("1", "2", "3"):
            shutil.rmtree(out, ignore_errors=True)
            assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
            assert f"{cells}/{cells} cells ok" in capsys.readouterr().out
            outputs.append(sweep_outputs(out))
        (traces_1, rows_1), *forked = outputs
        assert len(traces_1) == cells and len(rows_1) == cells
        for traces, rows in forked:
            assert traces == traces_1
            assert rows == rows_1
        if embedded:
            system = json.loads(traces_1[embedded])["system"]
            assert system["embedded"] and system["n_qubits"] == 4


def output_files(out) -> dict:
    """Every file of an output directory by name; CSV rows without wall time."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                files[path.name] = [
                    {k: v for k, v in row.items() if k != "wall_time_s"}
                    for row in csv.DictReader(fh)
                ]
        else:
            files[path.name] = path.read_bytes()
    return files


def test_cached_start_states_change_no_output_byte(tmp_path, monkeypatch, capsys):
    # the theta = 0 states read from the per-shape cache, cold or warm, and
    # in forked sweep workers, give the bytes of the simulated states
    solvers = [("fixed", 0), ("dynamic", 0), ("hessian", 1)]  # hessian seed 1 whitens step 2
    sweep = {**TWO_CELL_SWEEP, "solver": {"n": 3, "d": 1, "T": 4, "schedule": "hessian"}}
    cfg_path = write_config(tmp_path, sweep)
    out = tmp_path / "out"  # recorded in the traces, so every run uses it

    def outputs():
        # the sweep first, so its workers fork from a cold cache on the first call
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 0
        assert "2/2 cells ok" in capsys.readouterr().out
        traces = []
        for schedule, seed in solvers:
            raw = {
                "problem": {"conductivity": "noisy_constant"},
                "solver": {"n": 3, "d": 1, "T": 10, "schedule": schedule},
                "seed": seed,
            }
            config = config_from_dict(raw)
            traces.append(dump_trace(trace_payload(config, run_single(config))).encode())
        return traces, output_files(out)

    clear_start_states()
    cold = outputs()
    hits = cost_module._start_states.cache_info().hits
    warm = outputs()
    # every run after the first of its shape read its start states from the
    # cache: each run its objective, the hessian run its bundle's block
    assert cost_module._start_states.cache_info().hits >= hits + len(solvers) + 1
    monkeypatch.setattr(cost_module, "_start_states", cost_module._start_states.__wrapped__)
    simulated = outputs()
    assert len(simulated[1]) == 4  # two traces, sweep_details.csv, sweep_summary.csv
    assert cold == simulated
    assert warm == simulated


def crash_sweep(tmp_path, monkeypatch, seeds, act):
    """Config path of a sweep over `seeds` whose cells first call act(seed, attempt).

    act runs only in a worker, never in the test process. Each attempt
    leaves a file named after its seed and its process, so
    attempts_by_seed(tmp_path) reads which workers ran which cell.
    """
    raw = small_heat_raw()
    raw["problem"]["conductivity"] = "noisy_constant"
    raw["sweep"] = {"seeds": seeds}
    runs = tmp_path / "runs"
    runs.mkdir()
    real_run_single = runner.run_single
    test_process = os.getpid()

    def acting(config, seed=None):
        attempt = len(list(runs.glob(f"seed{seed}_*")))
        (runs / f"seed{seed}_pid{os.getpid()}").touch()
        if os.getpid() != test_process:
            act(seed, attempt)
        return real_run_single(config, seed=seed)

    monkeypatch.setattr(runner, "run_single", acting)
    return write_config(tmp_path, raw)


def attempts_by_seed(tmp_path) -> dict[int, set[str]]:
    found: dict[int, set[str]] = {}
    for path in (tmp_path / "runs").iterdir():
        seed, pid = path.name.split("_")
        found.setdefault(int(seed.removeprefix("seed")), set()).add(pid)
    return found


def test_cli_sweep_keeps_finished_cells_when_a_worker_dies(tmp_path, monkeypatch, capsys):
    # seed 0 is the first cell, so the first worker gets it at fork
    def seed_zero_dies(seed, attempt):
        if seed == 0:
            os._exit(1)

    cfg_path = crash_sweep(tmp_path, monkeypatch, [0, 1, 2], seed_zero_dies)
    out = tmp_path / "out"  # recorded in the traces, so both runs use it
    outputs = []
    for jobs, code in (("2", 3), ("1", 0)):
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == code
        if jobs == "2":
            assert "2/3 cells ok" in capsys.readouterr().out
            attempts = attempts_by_seed(tmp_path)
        outputs.append(sweep_outputs(out))
    (traces, rows), (want_traces, want_rows) = outputs
    # the cells that finished are written exactly as the in-process sweep wrote them
    assert sorted(traces) == ["trace_n2_d1_T10_l0_s1.json", "trace_n2_d1_T10_l0_s2.json"]
    assert traces == {name: want_traces[name] for name in traces}
    assert [row["error"] for row in rows] == [
        "worker died twice running this cell (exit status 1)", "", "",
    ]
    assert rows[1:] == want_rows[1:]
    assert len(attempts[0]) == 2 and f"pid{os.getpid()}" not in attempts[0]


def test_cli_sweep_records_a_cell_that_kills_two_workers(tmp_path, monkeypatch, capsys):
    def seed_zero_dies_twice(seed, attempt):
        if seed == 0:
            if attempt == 0:
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)

    cfg_path = crash_sweep(tmp_path, monkeypatch, [0, 1], seed_zero_dies_twice)
    out = tmp_path / "out"
    code = main(["sweep", str(cfg_path), "--out", str(out), "--jobs", "2"])
    assert code == 3
    assert "1/2 cells ok" in capsys.readouterr().out
    traces, rows = sweep_outputs(out)
    assert sorted(traces) == ["trace_n2_d1_T10_l0_s1.json"]
    # the second death is the one recorded; the cell is not tried a third time
    assert [row["error"] for row in rows] == ["worker died twice running this cell (signal 9)", ""]
    attempts = attempts_by_seed(tmp_path)
    # two workers, neither of them the test process, which ran seed 1
    assert len(attempts[0]) == 2 and not attempts[0] & attempts[1]
    assert attempts[1] == {f"pid{os.getpid()}"}
    with open(out / "sweep_summary.csv", newline="") as fh:
        assert [row["failures"] for row in csv.DictReader(fh)] == ["1"]


def test_cli_sweep_retries_a_cell_whose_worker_died_once(tmp_path, monkeypatch, capsys):
    def seed_zero_dies_once(seed, attempt):
        if seed == 0 and attempt == 0:
            os._exit(1)

    cfg_path = crash_sweep(tmp_path, monkeypatch, [0, 1, 2, 3], seed_zero_dies_once)
    out = tmp_path / "out"  # recorded in the traces, so both runs use it
    outputs = []
    for jobs in ("2", "1"):
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
        assert "4/4 cells ok" in capsys.readouterr().out
        if jobs == "2":
            attempts = attempts_by_seed(tmp_path)
        outputs.append(sweep_outputs(out))
    # seed 0 ran in two workers, neither of them the test process, which
    # ran at least one of the other cells; no healthy cell ran again
    assert {seed: len(pids) for seed, pids in attempts.items()} == {0: 2, 1: 1, 2: 1, 3: 1}
    test_process = f"pid{os.getpid()}"
    assert test_process not in attempts[0]
    assert any(pids == {test_process} for pids in attempts.values())
    assert outputs[0] == outputs[1]


def test_cli_sweep_forks_no_more_workers_than_cells(tmp_path, monkeypatch, capsys):
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 3, "d": 1, "T": 4, "schedule": "hessian"},
        "sweep": {"seeds": [0, 1]},
    }
    cfg_path = write_config(tmp_path, raw)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out = tmp_path / "out"  # recorded in the traces, so both runs use it
    outputs, forked = [], []
    for jobs in ("1", "8"):
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
        assert "2/2 cells ok" in capsys.readouterr().out
        outputs.append(sweep_outputs(out))
        forked.append(len(forks))
    assert forked == [0, 1]  # the test process runs the other cell
    assert outputs[1] == outputs[0]


def failing_fork(monkeypatch, fails) -> list:
    """Patch os.fork to raise BlockingIOError at each call k (from 1) where fails(k).

    Returns the list of calls, one entry each; no process is started for a failing call.
    """
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        if fails(len(calls)):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


FOUR_CELL_SWEEP = {
    "problem": {"conductivity": "noisy_constant"},
    "solver": {"n": 3, "d": 1, "T": 4, "schedule": "hessian"},
    "sweep": {"seeds": [0, 1, 2, 3]},
}


def test_cli_sweep_runs_on_when_a_worker_cannot_be_forked(tmp_path, monkeypatch, capsys):
    # the last of three forks fails: its cell is run by the test process, or
    # by one of the two running workers, and every output is what --jobs 1 writes
    cfg_path = write_config(tmp_path, FOUR_CELL_SWEEP)
    out = tmp_path / "out"  # recorded in the traces, so both runs use it
    outputs = []
    for jobs in ("1", "4"):
        if jobs == "4":
            calls = failing_fork(monkeypatch, lambda k: k == 3)
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
        assert "4/4 cells ok" in capsys.readouterr().out
        outputs.append(output_files(out))
    assert len(calls) == 3
    assert len(outputs[0]) == 6  # four traces, sweep_details.csv, sweep_summary.csv
    assert outputs[1] == outputs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_sweep_records_every_cell_when_no_worker_can_be_forked(tmp_path, monkeypatch, capsys):
    # every fork fails, so the test process runs every cell and writes what --jobs 1 writes
    cfg_path = write_config(tmp_path, FOUR_CELL_SWEEP)
    out = tmp_path / "out"  # recorded in the traces, so both runs use it
    outputs = []
    for jobs in ("1", "4"):
        if jobs == "4":
            calls = failing_fork(monkeypatch, lambda k: True)
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
        assert "4/4 cells ok" in capsys.readouterr().out
        outputs.append(output_files(out))
    assert len(calls) == 3
    assert len(outputs[0]) == 6  # four traces, sweep_details.csv, sweep_summary.csv
    assert outputs[1] == outputs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_sweep_records_a_retry_that_no_worker_can_be_forked_for(tmp_path, monkeypatch, capsys):
    # seed 0's worker dies and every later fork fails: seed 0 waits for a
    # fresh worker, never runs in the test process, and alone fails
    def seed_zero_dies(seed, attempt):
        if seed == 0:
            os._exit(1)

    cfg_path = crash_sweep(tmp_path, monkeypatch, [0, 1, 2], seed_zero_dies)
    calls = failing_fork(monkeypatch, lambda k: k > 1)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 3
    assert "2/3 cells ok" in capsys.readouterr().out
    assert len(calls) >= 2
    traces, rows = sweep_outputs(out)
    assert sorted(traces) == ["trace_n2_d1_T10_l0_s1.json", "trace_n2_d1_T10_l0_s2.json"]
    assert [row["error"] for row in rows] == [
        "no worker could be forked (BlockingIOError: [Errno 11] Resource temporarily unavailable)",
        "", "",
    ]
    attempts = attempts_by_seed(tmp_path)
    assert len(attempts[0]) == 1 and f"pid{os.getpid()}" not in attempts[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_sweep_runs_on_when_a_worker_pipe_cannot_be_made(monkeypatch):
    # the last of three pipes fails as if the process ran out of file
    # descriptors: no fork is tried for it, and its cell runs in the test
    # process or in a running worker
    pipes, forks = [], []
    real_pipe, real_fork = multiprocessing.connection.Pipe, os.fork

    def pipe():
        pipes.append(None)
        if len(pipes) == 3:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(multiprocessing.connection, "Pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    config = config_from_dict(FOUR_CELL_SWEEP)
    sweep = run_sweep(config, jobs=4)
    assert (len(pipes), len(forks)) == (3, 2)
    assert len(sweep.cells) == 4
    assert sweep.errors == {}
    assert list(sweep.results) == sweep.cells
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_outcome_that_does_not_pickle_is_that_cells_error(monkeypatch):
    raw = small_heat_raw()
    raw["problem"]["conductivity"] = "noisy_constant"
    raw["sweep"] = {"seeds": [0, 1, 2]}
    real_run_single = runner.run_single

    # seed 0 is the first cell, so the first worker runs it and must pickle its outcome
    def unpicklable_for_seed_zero(config, seed=None):
        result = real_run_single(config, seed=seed)
        return (lambda: result) if seed == 0 else result

    monkeypatch.setattr(runner, "run_single", unpicklable_for_seed_zero)
    sweep = run_sweep(config_from_dict(raw), jobs=2)
    cells = sweep.cells
    assert list(sweep.results) == [cells[1], cells[2]]
    assert list(sweep.errors) == [cells[0]]
    assert "pickle" in sweep.errors[cells[0]]


def test_run_sweep_leaves_no_child_process(tmp_path, monkeypatch):
    def seed_zero_dies_once(seed, attempt):
        if seed == 0 and attempt == 0:
            os._exit(1)

    config = load_config(crash_sweep(tmp_path, monkeypatch, [0, 1, 2], seed_zero_dies_once))
    assert not run_sweep(config, jobs=2).any_failed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def interrupted(conns, timeout=None):
        raise KeyboardInterrupt  # as if Ctrl-C reached the parent mid-sweep

    monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(config, jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_sweep_jobs_needs_fork(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    cfg_path = write_config(tmp_path, TWO_CELL_SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: jobs 2: parallel sweeps need os.fork, which this platform lacks\n"
    )
    assert not out.exists()
    assert main(["sweep", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
    assert "2/2 cells ok" in capsys.readouterr().out


def cli_env(**extra) -> dict:
    """Environment for a subprocess CLI run without a BLAS thread setting."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(avqls.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def test_import_sets_one_blas_thread_unless_exported():
    probe = "import os, avqls; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for extra, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=cli_env(**extra),
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == expected


def run_probe(*lines: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], env=cli_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_a_run_loads_numpy_random_with_avqls_and_no_scipy_package():
    # numpy.random comes with avqls, so a forked sweep worker does not import
    # it in its first cell; of scipy only L-BFGS-B's extension module loads.
    # multiprocessing loads only when a sweep forks its first worker, and the
    # verify battery only for `avqls verify`.
    run_probe(
        "import sys, avqls",
        "assert 'numpy.random' in sys.modules",
        "import avqls.cli",
        "raw = {'solver': {'n': 3, 'd': 1, 'T': 5, 'schedule': 'hessian'}}",
        "avqls.run_single(avqls.config_from_dict(raw))",
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')",
        "assert loaded == ['scipy.optimize._lbfgsb'], loaded",
        "roots = {'multiprocessing', '_multiprocessing', 'socket', '_socket', '__mp_main__'}",
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] in roots)",
        "assert loaded == [] and 'avqls.verify' not in sys.modules, loaded",
        f"avqls.run_sweep(avqls.config_from_dict({TWO_CELL_SWEEP!r}), jobs=2)",
        "assert 'multiprocessing.connection' in sys.modules",
    )


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "avqls-first"])
def test_setulb_is_scipys_whichever_is_imported_first(scipy_first):
    imports = ["import scipy.optimize", "import avqls"]
    run_probe(
        "import sys",
        *(imports if scipy_first else imports[::-1]),
        "import numpy as np",
        "from scipy.optimize import minimize, rosen, rosen_der",
        "from avqls import SolverConfig, controller, minimize_cost",
        "module = sys.modules['scipy.optimize._lbfgsb']",
        "assert scipy.optimize._lbfgsb_py._lbfgsb is module",
        "assert controller.setulb is module.setulb",
        "fun, x0 = (lambda x: (rosen(x), rosen_der(x))), np.array([-1.2, 1.0])",
        "res = minimize_cost(fun, x0, SolverConfig(gtol=1e-8))",
        "options = {'gtol': 1e-8, 'ftol': 1e-14, 'maxiter': 500}",
        "ref = minimize(fun, x0, jac=True, method='L-BFGS-B', options=options)",
        "assert np.array_equal(res.theta, ref.x) and np.array_equal(res.grad, ref.jac)",
        "assert (res.cost, res.iterations, res.nfev) == (ref.fun, ref.nit, ref.nfev)",
    )


def test_eight_qubit_trace_does_not_depend_on_blas_threads(tmp_path):
    raw = {
        "problem": {"conductivity": "noisy_constant", "source": "point"},
        "solver": {"n": 8, "d": 1, "T": 2, "schedule": "dynamic"},
        "seed": 3,
    }
    cfg_path = write_config(tmp_path, raw)
    digests = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        run_dir = tmp_path / name  # --out is recorded in the trace, so keep it relative
        run_dir.mkdir()
        subprocess.run(
            [sys.executable, "-m", "avqls.cli", "solve", str(cfg_path), "--out", "out"],
            cwd=run_dir,
            env=cli_env(**extra),
            capture_output=True,
            check=True,
        )
        digests.append(hashlib.sha256((run_dir / "out" / "trace.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_cli_schedule_subcommand(capsys):
    assert main(["schedule", "--kappa", "10", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert out == emit_schedule(10.0, 4)
    lines = out.strip().splitlines()
    assert lines[0] == "j,s"
    assert len(lines) == 6


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schedule", "--kappa", "abc"], "argument --kappa: invalid float value: 'abc'"),
        (["solve"], "the following arguments are required: config"),
        (["solve", "CFG", "--dump-system"], "unrecognized arguments: --dump-system"),
        (["schedule", "--kappa", "3", "--format", "json"], "unrecognized arguments: --format json"),
        (["schedule", "--kappa", "3", "--out", "f"], "unrecognized arguments: --out f"),
    ],
    ids=["bad-kappa", "no-config", "dump-system", "format", "schedule-out"],
)
def test_cli_usage_error_is_a_config_error(tmp_path, argv, message):
    cfg_path = write_config(tmp_path, small_heat_raw())
    argv = [str(cfg_path) if arg == "CFG" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "avqls.cli", *argv],
        cwd=tmp_path,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"configuration error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--help"])
    assert exc.value.code == 0
    assert "--kappa" in capsys.readouterr().out


def test_cli_schedule_rejects_kappa_whose_bounds_overflow():
    # 2 kappa^2 would overflow and make every inner s(v) NaN; kappa is refused first
    proc = subprocess.run(
        [sys.executable, "-m", "avqls.cli", "schedule", "--kappa", "1.3e154", "--steps", "3"],
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "configuration error: condition number must be in [1, 1e+14), got 1.3e+154\n"
    )


VERIFY_LINES = [
    ("schedule endpoints", "max endpoint deviation"),
    ("householder algebra", "max defect"),
    ("ansatz norm preservation", "max norm drift"),
    ("derivative extrapolation", "max extrapolation defect"),
    ("ground-state identity", "max ground-state residual"),
    ("shift-rule gradient", "max gradient defect"),
    ("Hessian device rule", "max rule defect"),
    ("classical start", "max start defect"),
]


def test_cli_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(VERIFY_LINES)
    for line, (name, label) in zip(lines, VERIFY_LINES):
        pattern = rf"\[ ok \] {re.escape(name)}: {re.escape(label)} \d\.\d\de[+-]\d\d"
        assert re.fullmatch(pattern, line), line


def test_cli_verbose_logs_one_line_per_step(tmp_path):
    # in a subprocess: pytest's log handlers make logging.basicConfig a no-op here
    cfg_path = write_config(tmp_path, small_heat_raw())
    stderr = {}
    for flags in (["-v"], []):
        out = tmp_path / f"out{len(flags)}"
        proc = subprocess.run(
            [sys.executable, "-m", "avqls.cli", *flags, "solve", str(cfg_path), "--out", str(out)],
            env=cli_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        stderr[bool(flags)] = proc.stderr.splitlines()
    steps = json.loads((tmp_path / "out1" / "trace.json").read_text())["steps"]
    assert len(steps) > 1
    assert all(line.startswith("INFO avqls.controller step,") for line in stderr[True])
    assert [line.split(",")[1] for line in stderr[True]] == [str(s["index"]) for s in steps]
    assert stderr[False] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "avqls.cli", "schedule", "--kappa", "3", "--steps", "4"],
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("j,s")
