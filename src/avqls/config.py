"""Run configuration: JSON file loading, validation and defaults.

The file is a single JSON object with nested sections. Unknown keys are
rejected and every validation error names the offending field path. Each
field is declared once, on its dataclass, with its default and its check;
building a section runs every check, whether it is parsed or made in Python.
Parsing, the unknown-key check and the config echoed into trace.json all
follow from that one line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = [
    "ProblemConfig",
    "SolverConfig",
    "SweepConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "config_from_dict",
]

_SIGMA_DEFAULTS = {"noisy_constant": 0.2, "noisy_linear": 0.05}


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(
    value, path: str, minimum: float | None = None, strict_min: float | None = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"{path}: must be > {strict_min}, got {value}")
    return value


def _as_text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    return value


def _as_choice(value, path: str, choices: tuple) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return value


def _field(default, check):
    """A config field: its default and its check(value, path) -> value.

    A field that defaults to None is optional: None (JSON null) leaves it out.
    """
    check = _optional(check) if default is None else check
    return field(default=default, metadata={"check": check})


def _section(cls):
    """A required section, parsed as `cls`; absent means all defaults."""
    return field(default_factory=cls, metadata={"check": _object(cls)})


def _object(cls):
    return lambda value, path: value if isinstance(value, cls) else _parse(cls, value, path)


def _int(minimum):
    return lambda value, path: _as_int(value, path, minimum=minimum)


def _float(minimum=None, strict_min=None):
    return lambda value, path: _as_float(value, path, minimum=minimum, strict_min=strict_min)


def _choice(*choices):
    return lambda value, path: _as_choice(value, path, choices)


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _list_of(check, distinct=False):
    def parse(value, path):
        items = []
        for i, v in enumerate(_as_list(value, path)):
            item = check(v, f"{path}[{i}]")
            if distinct and item in items:
                raise ConfigError(f"{path}[{i}]: repeats an earlier entry, got {item}")
            items.append(item)
        return tuple(items)

    return parse


class _Checked:
    """Building a section runs each field's check, with `_prefix` on its path.

    A check gives back a checked value unchanged, so `replace` can run them again.
    """

    _prefix = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = f.metadata["check"](getattr(self, f.name), self._prefix + f.name)
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class ProblemConfig(_Checked):
    _prefix = "problem."
    conductivity: str = _field(
        "constant", _choice("constant", "noisy_constant", "linear", "noisy_linear")
    )
    sigma: float | None = _field(None, _float(minimum=0.0))
    source: str = _field("point", _choice("point", "exponential"))
    l: float = _field(0.0, _float(minimum=0.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.conductivity in ("constant", "linear"):
            if self.sigma not in (None, 0.0):
                raise ConfigError("problem.sigma: only meaningful for noisy conductivity kinds")
        elif self.resolved_sigma() <= 0.0:
            raise ConfigError(
                "problem.sigma: must be > 0.0 for noisy conductivity kinds, "
                f"got {self.sigma}"
            )
        if self.l > 0.0 and self.source != "exponential":
            raise ConfigError("problem.l: requires problem.source = 'exponential'")

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        return _SIGMA_DEFAULTS.get(self.conductivity, 0.0)


@dataclass(frozen=True)
class SolverConfig(_Checked):
    _prefix = "solver."
    n: int = _field(4, _int(1))
    d: int = _field(2, _int(0))
    T: int = _field(50, _int(1))
    schedule: str = _field("hessian", _choice("fixed", "dynamic", "hessian"))
    gtol: float = _field(1e-8, _float(strict_min=0.0))


# A repeated sweep entry would solve the same cell twice and count it as two seeds.
@dataclass(frozen=True)
class SweepConfig(_Checked):
    _prefix = "sweep."
    n: tuple[int, ...] | None = _field(None, _list_of(_int(1), distinct=True))
    d: tuple[int, ...] | None = _field(None, _list_of(_int(0), distinct=True))
    T: tuple[int, ...] | None = _field(None, _list_of(_int(1), distinct=True))
    l: tuple[float, ...] | None = _field(None, _list_of(_float(minimum=0.0), distinct=True))
    seeds: tuple[int, ...] = _field((0,), _list_of(_int(0), distinct=True))


@dataclass(frozen=True)
class OutputConfig(_Checked):
    _prefix = "output."
    dir: str = _field("runs", _as_text)
    formats: tuple[str, ...] = _field(("json", "csv"), _list_of(_choice("json", "csv")))


@dataclass(frozen=True)
class RunConfig(_Checked):
    problem: ProblemConfig = _section(ProblemConfig)
    solver: SolverConfig = _section(SolverConfig)
    sweep: SweepConfig | None = _field(None, _object(SweepConfig))
    output: OutputConfig = _section(OutputConfig)
    seed: int = _field(0, _int(0))

    def __post_init__(self) -> None:
        super().__post_init__()
        if getattr(self.sweep, "l", None) is not None and self.problem.source != "exponential":
            raise ConfigError("sweep.l: requires problem.source = 'exponential'")

    def to_payload(self) -> dict:
        """The config as JSON data: unset (None) fields left out, sigma resolved."""
        payload = _payload(self)
        payload["problem"]["sigma"] = self.problem.resolved_sigma()
        return payload


def _payload(config) -> dict:
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out[f.name] = _payload(value)
        elif value is not None:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    return _parse(RunConfig, raw, "")


def _parse(cls, section, path: str):
    """`cls` from one JSON object; `path` is "" at the top level.

    Absent keys take the default; building `cls` checks every field.
    """
    where = path or "top level"
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    names = {f.name for f in fields(cls)}
    for key in section:
        if key not in names:
            raise ConfigError(f"{where}.{key}: unknown key")
    return cls(**section)

