"""Self-contained invariant battery behind the `verify` CLI subcommand."""

from __future__ import annotations

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .cost import (
    assemble_hamiltonian,
    build_cost_model,
    cost,
    cost_extrapolate,
    cost_gradient,
    hessian_bundle,
    hessian_extrapolate,
)
from .metrics import solve_parametric
from .problems import householder, prepare
from .schedule import default_sequence, s_of_v, v_bounds

__all__ = [
    "schedule_endpoint_defect",
    "householder_defect",
    "extrapolation_defect",
    "ground_state_defect",
    "run_battery",
]


def schedule_endpoint_defect(kappas, steps: int) -> float:
    """Worst |s(v_min)| and |s(v_max) - 1| over kappas.

    Infinite when a default grid of `steps` stops at some kappa is not
    strictly increasing.
    """
    worst = 0.0
    for kappa in kappas:
        v_min, v_max = v_bounds(kappa)
        worst = max(worst, abs(s_of_v(v_min, kappa)), abs(s_of_v(v_max, kappa) - 1.0))
        if np.any(np.diff(default_sequence(kappa, steps).s_grid) <= 0.0):
            return np.inf
    return worst


def householder_defect(vectors) -> float:
    """Worst entry of S - S^T, S S - I, S S^T - I and S b/|b| - e1 over vectors b."""
    worst = 0.0
    for b in vectors:
        s = householder(b)
        eye = np.eye(len(b))
        worst = max(
            worst,
            float(np.abs(s - s.T).max()),
            float(np.abs(s @ s - eye).max()),
            float(np.abs(s @ s.T - eye).max()),
            float(np.abs(s @ (b / np.linalg.norm(b)) - eye[0]).max()),
        )
    return worst


def extrapolation_defect(cases) -> float:
    """Worst gap between extrapolated and directly measured cost and Hessian.

    Each case is (model, config, theta, s, ds): the cost and the parameter
    Hessian at s + ds, predicted from measurements at s, against direct
    evaluation at s + ds. Hessians are compared in the Frobenius norm.
    """
    worst = 0.0
    for model, config, theta, s, ds in cases:
        direct_c = cost(model, config, theta, s + ds)
        pred_c = cost_extrapolate(model, config, theta, s, ds)
        pred_h = hessian_extrapolate(hessian_bundle(model, config, theta, s), ds)
        direct_h = hessian_bundle(model, config, theta, s + ds).h_s
        worst = max(worst, abs(pred_c - direct_c), float(np.linalg.norm(pred_h - direct_h)))
    return worst


def ground_state_defect(systems, s_values) -> float:
    """Worst |x(s)^T H(s) x(s)| for the exact pencil solution x(s) of each system."""
    worst = 0.0
    for system in systems:
        model = build_cost_model(system)
        e1 = np.zeros(system.dim)
        e1[0] = 1.0
        for s in s_values:
            x = solve_parametric(system.matrix, e1, s)
            worst = max(worst, abs(float(x @ assemble_hamiltonian(model, s) @ x)))
    return worst


def _check_schedule_endpoints() -> tuple[bool, str]:
    worst = schedule_endpoint_defect((1.0, 10.0, 100.0, 1000.0), 25)
    return worst < 1e-10, f"max endpoint deviation {worst:.2e}"


def _check_householder() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = householder_defect([rng.normal(size=size) for size in (2, 8, 32)])
    return worst < 1e-12, f"max defect {worst:.2e}"


def _check_norm_preservation() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    worst = 0.0
    for n, d in ((1, 0), (3, 2), (5, 1)):
        config = AnsatzConfig(n=n, d=d)
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        state = apply_ansatz(config, theta)
        worst = max(worst, abs(float(np.linalg.norm(state)) - 1.0))
    return worst < 1e-12, f"max norm drift {worst:.2e}"


def _check_extrapolation() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.eye(4) + 0.3 * rng.normal(size=(4, 4)))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    worst = extrapolation_defect([(model, config, theta, 0.3, 0.45)])
    return worst < 1e-9, f"max extrapolation defect {worst:.2e}"


def _check_ground_state() -> tuple[bool, str]:
    rng = np.random.default_rng(14)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    matrix = basis @ np.diag(rng.uniform(0.3, 1.0, 8)) @ basis.T
    system = prepare(matrix, rng.normal(size=8))
    worst = ground_state_defect([system], (0.0, 0.5, 1.0))
    return worst < 1e-10, f"max ground-state residual {worst:.2e}"


def _check_gradient() -> tuple[bool, str]:
    rng = np.random.default_rng(15)
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.diag([0.5, 0.7, 0.9, 1.0]))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    grad = cost_gradient(model, config, theta, 0.8)
    h = 1e-6
    worst = 0.0
    for i in range(config.n_params):
        step = np.zeros(config.n_params)
        step[i] = h
        fd = (
            cost(model, config, theta + step, 0.8)
            - cost(model, config, theta - step, 0.8)
        ) / (2 * h)
        worst = max(worst, abs(grad[i] - fd))
    return worst < 1e-7, f"max gradient defect {worst:.2e}"


_CHECKS = [
    ("schedule endpoints", _check_schedule_endpoints),
    ("householder algebra", _check_householder),
    ("ansatz norm preservation", _check_norm_preservation),
    ("derivative extrapolation", _check_extrapolation),
    ("ground-state identity", _check_ground_state),
    ("shift-rule gradient", _check_gradient),
]


def run_battery(echo=print) -> bool:
    """Run every invariant check, print one line each, return overall pass."""
    all_ok = True
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        echo(f"[{'ok' : ^4}] {name}: {detail}" if ok else f"[FAIL] {name}: {detail}")
    return all_ok
