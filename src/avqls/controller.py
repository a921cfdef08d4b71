"""Warm-started adiabatic sweep with Hessian-guided step control.

The solver walks s from 0 to 1, reoptimizing the ansatz at each stop from
the previous optimum. In `hessian` mode the next increment is chosen from
the extrapolated parameter Hessian: the largest step for which the
extrapolated Hessian stays positive semidefinite keeps the warm start
inside a locally convex region. `dynamic` mode follows the
condition-number schedule without Hessian probes and `fixed` mode walks a
uniform grid.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.optimize

from .ansatz import AnsatzConfig
from .cost import (
    CostModel,
    HessianBundle,
    build_cost_model,
    cost,  # noqa: F401  (perfbench wraps it; see tests/test_perfbench_bindings.py)
    cost_and_gradient,
    cost_gradient,
    hessian_bundle,
    hessian_extrapolate,
)
from .problems import PreparedSystem
from .schedule import Schedule, default_sequence, next_increment, uniform_sequence

__all__ = [
    "StepKind",
    "StepDecision",
    "OptimizerOptions",
    "MinimizeResult",
    "StepRecord",
    "RunTrace",
    "minimize_cost",
    "propose_step",
    "solve_adiabatic",
]

log = logging.getLogger(__name__)

DEFAULT_EPS_PSD = 1e-8


class StepKind(str, Enum):
    FALLBACK_SCHEDULE = "fallback_schedule"
    JUMP_TO_ONE = "jump_to_one"
    MINIMUM_STEP = "minimum_step"
    HESSIAN_STEP = "hessian_step"


@dataclass(frozen=True)
class StepDecision:
    kind: StepKind
    delta_s: float
    lambda_min_start: float | None
    lambda_min_at_end: float | None


def _lambda_min(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def _first_psd_crossing(
    bundle: HessianBundle, remaining: float, eps_psd: float
) -> float | None:
    """First step in (0, remaining] where the extrapolated Hessian stops being PSD.

    M(ds) = ds^2 K_a + ds K_1 + (H_s + eps_psd I), with K_1 = 2 s K_a + K_b,
    is singular exactly at the eigenvalues of the companion pencil
    [[0, I], [-M(0), -K_1]] z = ds [[I, 0], [0, K_a]] z. The caller has
    checked that M(0) is PSD, so the first crossing is the smallest real
    eigenvalue in (0, remaining]; None means there is none. LAPACK returns
    each real eigenvalue as a 1x1 block with an imaginary part of exactly
    zero, and a singular K_a only adds infinite ones, so no tolerance is
    needed to filter them. A root that round-off put on the indefinite side
    is backed off by 1, 2, 4, ... ulps until M is PSD there again, which at
    worst ends at ds = 0.
    """
    n = bundle.n_params
    eye, zero = np.eye(n), np.zeros((n, n))
    k_1 = 2.0 * bundle.s * bundle.k_a + bundle.k_b
    left = np.block([[zero, eye], [-(bundle.h_s + eps_psd * eye), -k_1]])
    right = np.block([[eye, zero], [zero, bundle.k_a]])
    ds = scipy.linalg.eigvals(left, right)
    ds = ds.real[np.isfinite(ds) & (ds.imag == 0.0)]
    roots = ds[(ds > 0.0) & (ds <= remaining)]
    if roots.size == 0:
        return None
    root = step = float(roots.min())
    back = float(np.spacing(root))
    while _lambda_min(hessian_extrapolate(bundle, step)) + eps_psd < 0.0:
        step = max(root - back, 0.0)
        back *= 2.0
    return step


def propose_step(
    bundle: HessianBundle,
    s: float,
    delta_s_min: float,
    eps_psd: float = DEFAULT_EPS_PSD,
) -> StepDecision:
    """Pick the next increment from the extrapolated convexity picture.

    Cases, in order: the current Hessian is itself indefinite (the point is
    not a trusted minimum), so fall back to the schedule increment; the
    extrapolated Hessian stays PSD (within eps_psd) all the way to s = 1, so
    jump there; otherwise step to its first PSD crossing, floored at the
    schedule increment.
    """
    remaining = 1.0 - s
    if remaining <= 0.0:
        raise ValueError(f"no room left to step from s={s}")
    ds_min = min(delta_s_min, remaining)
    if ds_min <= 0.0:
        raise ValueError(f"minimum step must be positive, got {delta_s_min}")
    lam_here = _lambda_min(bundle.h_s)
    lam_end = _lambda_min(hessian_extrapolate(bundle, remaining))
    if lam_here < -eps_psd:
        return StepDecision(StepKind.FALLBACK_SCHEDULE, ds_min, lam_here, lam_end)
    ds_star = _first_psd_crossing(bundle, remaining, eps_psd)
    if ds_star is None:
        return StepDecision(StepKind.JUMP_TO_ONE, remaining, lam_here, lam_end)
    if ds_star <= ds_min:
        return StepDecision(StepKind.MINIMUM_STEP, ds_min, lam_here, lam_end)
    return StepDecision(StepKind.HESSIAN_STEP, ds_star, lam_here, lam_end)


@dataclass(frozen=True)
class OptimizerOptions:
    gtol: float = 1e-8
    max_iter: int = 500
    ftol: float = 1e-14
    bounded: bool = False


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    theta: np.ndarray
    cost: float
    iterations: int
    nfev: int
    njev: int
    converged: bool
    message: str


def minimize_cost(
    fun,
    theta0: np.ndarray,
    opts: OptimizerOptions | None = None,
) -> MinimizeResult:
    """Quasi-Newton line-search minimization with an analytic gradient.

    fun(theta) returns (cost, gradient) together, so one batch of circuits
    serves both.

    Terminates when the projected-gradient infinity norm drops below gtol
    or after max_iter iterations. On a line-search failure the best point
    found so far is returned with converged=False.
    """
    opts = opts or OptimizerOptions()
    theta0 = np.asarray(theta0, dtype=float)
    bounds = [(-2.0 * math.pi, 2.0 * math.pi)] * theta0.size if opts.bounded else None
    res = scipy.optimize.minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": opts.max_iter,
            "gtol": opts.gtol,
            "ftol": opts.ftol,
        },
    )
    return MinimizeResult(
        theta=np.asarray(res.x, dtype=float),
        cost=float(res.fun),
        iterations=int(res.nit),
        nfev=int(res.nfev),
        njev=int(getattr(res, "njev", res.nfev)),
        converged=bool(res.success),
        message=str(res.message),
    )


@dataclass(frozen=True, eq=False)
class StepRecord:
    index: int
    s_from: float
    s: float
    kind: StepKind
    delta_s: float
    lambda_min_start: float | None
    lambda_min_at_end: float | None
    iterations: int
    nfev: int
    circuit_evals: int
    cost: float
    grad_norm: float
    theta_jump: float
    converged: bool
    note: str = ""


@dataclass(eq=False)
class RunTrace:
    mode: str
    T: int
    kappa: float
    steps: list[StepRecord] = field(default_factory=list)
    theta_star: np.ndarray | None = None
    final_cost: float = math.nan
    wall_time_s: float = math.nan

    @property
    def t(self) -> int:
        """Effective number of optimization steps actually executed."""
        return len(self.steps)


def solve_adiabatic(
    system: PreparedSystem,
    config: AnsatzConfig,
    T: int = 50,
    opts: OptimizerOptions | None = None,
    eps_psd: float = DEFAULT_EPS_PSD,
    mode: str = "hessian",
) -> tuple[np.ndarray, RunTrace]:
    """Sweep s from 0 to 1 with warm starts; returns (theta_star, trace).

    At s = 0 the zero parameter vector is the exact minimum (the circuit
    prepares e1, the working right-hand side), so the loop decides the
    first increment before any optimization. Each pass decides a step from
    the current converged point, advances s and reoptimizes warm-started.
    """
    if mode not in ("fixed", "dynamic", "hessian"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    if system.n_qubits != config.n:
        raise ValueError(
            f"ansatz acts on {config.n} qubits but the system needs {system.n_qubits}"
        )
    opts = opts or OptimizerOptions()
    model = build_cost_model(system)
    sched = _make_schedule(mode, system.kappa, T)
    n_p = config.n_params
    bundle_evals = 2 * n_p * n_p + 2 * n_p + 1

    theta = np.zeros(n_p)
    s = 0.0
    trace = RunTrace(mode=mode, T=T, kappa=system.kappa)
    started = time.perf_counter()
    max_steps = T + 5

    while s < 1.0 - 1e-12:
        if mode == "hessian":
            bundle = hessian_bundle(model, config, theta, s)
            decision = propose_step(bundle, s, next_increment(sched, s), eps_psd)
            probe_evals = bundle_evals
        else:
            decision = StepDecision(
                StepKind.FALLBACK_SCHEDULE, next_increment(sched, s), None, None
            )
            probe_evals = 0
        s_next = s + decision.delta_s
        if s_next > 1.0 - 1e-12:
            s_next = 1.0
        res = minimize_cost(
            lambda th: cost_and_gradient(model, config, th, s_next),
            theta,
            opts,
        )
        grad_norm = float(
            np.abs(cost_gradient(model, config, res.theta, s_next)).max()
        )
        note = ""
        if res.cost < -1e-10:
            note = f"negative cost {res.cost:.3e}"
        if not res.converged:
            note = (note + "; " if note else "") + res.message
        record = StepRecord(
            index=len(trace.steps),
            s_from=s,
            s=s_next,
            kind=decision.kind,
            delta_s=s_next - s,
            lambda_min_start=decision.lambda_min_start,
            lambda_min_at_end=decision.lambda_min_at_end,
            iterations=res.iterations,
            nfev=res.nfev,
            circuit_evals=probe_evals + res.nfev + (res.njev + 1) * 2 * n_p,
            cost=res.cost,
            grad_norm=grad_norm,
            theta_jump=float(np.linalg.norm(res.theta - theta)),
            converged=res.converged,
            note=note,
        )
        trace.steps.append(record)
        log.info(
            "step,%d,%.8f,%s,%.3e,%d,%.6e,%.3e",
            record.index,
            record.s,
            record.kind.value,
            record.delta_s,
            record.iterations,
            record.cost,
            record.grad_norm,
        )
        theta = res.theta
        s = s_next
        if len(trace.steps) > max_steps:
            raise RuntimeError(
                f"sweep exceeded {max_steps} steps; schedule is not advancing"
            )

    trace.theta_star = theta
    trace.final_cost = trace.steps[-1].cost if trace.steps else 0.0
    trace.wall_time_s = time.perf_counter() - started
    return theta, trace


def _make_schedule(mode: str, kappa: float, T: int) -> Schedule:
    if mode == "fixed":
        return uniform_sequence(T, kappa)
    return default_sequence(kappa, T)
