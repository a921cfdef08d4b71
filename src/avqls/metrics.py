"""Classical reference solutions and solution-quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import check_s, condition_number

__all__ = [
    "SolutionReport",
    "classical_solve",
    "solve_parametric",
    "infidelity",
    "accuracy",
]


def classical_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized solution of A x = b; condition_number raises if A is singular."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    condition_number(a)
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    return unit_solution(a, b)


def unit_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized numpy.linalg.solve(a, b), which fails only on a zero pivot:
    for a matrix whose condition number has been checked."""
    x = np.linalg.solve(a, b)
    return x / np.linalg.norm(x)


def solve_parametric(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Normalized solution of the pencil ((1-s) I + s A) x = b."""
    check_s(s)
    a = np.asarray(a, dtype=float)
    pencil = (1.0 - s) * np.eye(a.shape[0]) + s * a
    return classical_solve(pencil, b)


def infidelity(x_var: np.ndarray, x_exact: np.ndarray) -> float:
    """1 - |<x_var | x_exact>|^2 for two unit vectors."""
    x_var = _checked_unit(x_var, "x_var")
    x_exact = _checked_unit(x_exact, "x_exact")
    return max(1.0 - float(np.vdot(x_var, x_exact)) ** 2, 0.0)


def accuracy(a: np.ndarray, b: np.ndarray, x_var: np.ndarray) -> float:
    """|<b | A x_var>|^2 / |A x_var|^2 with b normalized internally."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x_var = np.asarray(x_var, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],) or x_var.shape != (a.shape[0],):
        raise ValueError("vector shapes do not match the matrix")
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        raise ValueError("right-hand side must be nonzero")
    image = a @ x_var
    image_norm = np.linalg.norm(image)
    if image_norm < 1e-300:
        raise ValueError("A @ x_var is numerically zero")
    value = float(np.vdot(b / b_norm, image)) ** 2 / float(image_norm ** 2)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Final solution quality of one run, in the original problem basis."""

    x_variational: np.ndarray
    x_exact: np.ndarray
    infidelity: float
    accuracy: float


def _checked_unit(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {x.shape}")
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"{name} must be unit-normalized, |{name}| = {norm}")
    return x / norm
