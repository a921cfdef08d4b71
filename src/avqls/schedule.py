"""Condition-number aware step schedule for the adiabatic sweep.

The grid is uniform in an auxiliary variable v and mapped through a closed
form s(v) that concentrates steps near s = 1 for ill-conditioned systems.
v is taken only in [v_min, v_max], and s(v), which misses [0, 1] there by
round-off only, is clamped into it. A grid's ends are set to exactly 0
and 1; a run steps to the first grid point more than S_TOL past s.
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

# Round-off slack on the adiabatic parameter: an s within S_TOL of [0, 1]
# is in range, and a grid point (or 1) within S_TOL past s has been reached.
S_TOL = 1e-12
# sigma_min <= _SINGULAR_RATIO * sigma_max is singular to working precision,
# so a schedule accepts kappa < 1 / _SINGULAR_RATIO and no larger.
_SINGULAR_RATIO = 1e-14


def check_s(s: float) -> None:
    """Raise ValueError unless s lies in [0, 1] up to S_TOL."""
    if not -S_TOL <= s <= 1.0 + S_TOL:
        raise ValueError(f"adiabatic parameter must lie in [0, 1], got {s}")


def condition_number(matrix: np.ndarray) -> float:
    """Ratio of extreme singular values; raises if numerically singular."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[-1] <= _SINGULAR_RATIO * sv[0]:
        raise SingularMatrixError(
            f"matrix is singular to working precision (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})"
        )
    return float(sv[0] / sv[-1])


def v_bounds(kappa: float) -> tuple[float, float]:
    """Endpoints (v_min, v_max) of the auxiliary variable for a given kappa."""
    if not (1.0 <= kappa and kappa * _SINGULAR_RATIO < 1.0):
        raise InvalidScheduleError(
            f"condition number must be in [1, {1.0 / _SINGULAR_RATIO:g}), got {kappa}"
        )
    k2 = kappa * kappa
    root = math.sqrt(1.0 + k2)
    pref = math.sqrt(2.0 * k2 / (1.0 + k2))
    # kappa*sqrt(1+kappa^2) - kappa^2 == kappa/(kappa + sqrt(1+kappa^2)),
    # which avoids cancellation for large kappa.
    arg_min = kappa / (kappa + root)
    arg_max = root + 1.0
    return pref * math.log(arg_min), pref * math.log(arg_max)


def s_of_v(v: float, kappa: float) -> float:
    """Map the auxiliary variable to the adiabatic parameter s in [0, 1]."""
    v_min, v_max = v_bounds(kappa)
    if not v_min <= v <= v_max:
        raise InvalidScheduleError(
            f"v={v} outside schedule bounds [{v_min}, {v_max}] for kappa={kappa}"
        )
    k2 = kappa * kappa
    r = math.sqrt((1.0 + k2) / (2.0 * k2))
    value = (math.exp(v * r) + 2.0 * k2 - k2 * math.exp(-v * r)) / (2.0 * (1.0 + k2))
    return min(max(value, 0.0), 1.0)


def default_sequence(kappa: float, T: int) -> np.ndarray:
    """Non-decreasing grid s_0 = 0 <= ... <= s_T = 1, the s(v) of T+1 evenly spaced v."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    grid = np.array([s_of_v(v, kappa) for v in np.linspace(*v_bounds(kappa), T + 1)])
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


def uniform_sequence(T: int) -> np.ndarray:
    """Uniform grid s_j = j / T of T+1 values (fixed-step mode); it does not depend on kappa."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    return np.linspace(0.0, 1.0, T + 1)


def next_increment(grid: np.ndarray, s: float) -> float:
    """Distance from s to the next larger value of an increasing grid (or to 1 past it)."""
    j = int(np.searchsorted(grid, s + S_TOL, side="right"))
    if j >= len(grid):
        return max(1.0 - s, 0.0)
    return float(grid[j] - s)
