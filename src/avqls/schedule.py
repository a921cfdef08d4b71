"""Condition-number aware step schedule for the adiabatic sweep.

The grid is uniform in an auxiliary variable v and mapped through a closed
form s(v) that concentrates steps near s = 1 for ill-conditioned systems.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidScheduleError, SingularMatrixError

__all__ = [
    "condition_number",
    "v_bounds",
    "s_of_v",
    "default_sequence",
    "uniform_sequence",
    "next_increment",
]

_ENDPOINT_TOL = 1e-8


def condition_number(matrix: np.ndarray) -> float:
    """Ratio of extreme singular values; raises if numerically singular."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise SingularMatrixError(
            f"matrix is singular to working precision (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})"
        )
    return float(sv[0] / sv[-1])


def v_bounds(kappa: float) -> tuple[float, float]:
    """Endpoints (v_min, v_max) of the auxiliary variable for a given kappa."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"condition number must be finite and >= 1, got {kappa}")
    k2 = kappa * kappa
    root = math.sqrt(1.0 + k2)
    pref = math.sqrt(2.0 * k2 / (1.0 + k2))
    # kappa*sqrt(1+kappa^2) - kappa^2 == kappa/(kappa + sqrt(1+kappa^2)),
    # which avoids cancellation for large kappa.
    arg_min = kappa / (kappa + root)
    arg_max = root + 1.0
    if arg_min <= 0.0:
        raise InvalidScheduleError(f"log argument not positive for kappa={kappa}")
    v_min, v_max = pref * math.log(arg_min), pref * math.log(arg_max)
    if not math.isfinite(v_max - v_min):  # near kappa = 1e154, 2 kappa^2 overflows
        raise InvalidScheduleError(f"bounds ({v_min}, {v_max}) not finite for kappa={kappa}")
    return v_min, v_max


def s_of_v(v: float, kappa: float) -> float:
    """Map the auxiliary variable to the adiabatic parameter s in [0, 1]."""
    v_min, v_max = v_bounds(kappa)
    slack = 1e-9 * max(1.0, v_max - v_min)
    if v < v_min - slack or v > v_max + slack:
        raise InvalidScheduleError(
            f"v={v} outside schedule bounds [{v_min}, {v_max}] for kappa={kappa}"
        )
    k2 = kappa * kappa
    r = math.sqrt((1.0 + k2) / (2.0 * k2))
    value = (math.exp(v * r) + 2.0 * k2 - k2 * math.exp(-v * r)) / (2.0 * (1.0 + k2))
    if value < -_ENDPOINT_TOL or value > 1.0 + _ENDPOINT_TOL:
        raise InvalidScheduleError(
            f"s(v={v}) = {value} deviates from [0, 1] beyond {_ENDPOINT_TOL}"
        )
    return min(max(value, 0.0), 1.0)


def default_sequence(kappa: float, T: int) -> np.ndarray:
    """Strictly increasing grid s_0 = 0 < ... < s_T = 1, the s(v) of T+1 evenly spaced v."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    grid = np.array([s_of_v(v, kappa) for v in np.linspace(*v_bounds(kappa), T + 1)])
    if abs(grid[0]) > _ENDPOINT_TOL or abs(grid[-1] - 1.0) > _ENDPOINT_TOL:
        raise InvalidScheduleError(
            f"schedule endpoints ({grid[0]}, {grid[-1]}) deviate from (0, 1)"
        )
    grid[0] = 0.0
    grid[-1] = 1.0
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidScheduleError("schedule grid is not strictly increasing")
    return grid


def uniform_sequence(T: int) -> np.ndarray:
    """Uniform grid s_j = j / T of T+1 values (fixed-step mode); it does not depend on kappa."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    return np.linspace(0.0, 1.0, T + 1)


def next_increment(grid: np.ndarray, s: float) -> float:
    """Distance from s to the next larger value of an increasing grid (or to 1 past it)."""
    j = int(np.searchsorted(grid, s + 1e-12, side="right"))
    if j >= len(grid):
        return max(1.0 - s, 0.0)
    return float(grid[j] - s)
