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
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.optimize

from .ansatz import AnsatzConfig
from .config import SolverConfig
from .cost import (
    HessianBundle,
    build_cost_model,
    cost_and_gradient,
    hessian_bundle,
    hessian_extrapolate,
)
# perfbench wraps these two; tests/test_perfbench_bindings.py checks they resolve
from .cost import cost, cost_gradient  # noqa: F401
from .problems import PreparedSystem
from .schedule import S_TOL, default_sequence, next_increment, uniform_sequence

__all__ = [
    "StepKind",
    "StepDecision",
    "MinimizeResult",
    "StepRecord",
    "RunTrace",
    "minimize_cost",
    "propose_step",
    "solve_adiabatic",
]

log = logging.getLogger(__name__)

# Every run uses these, so none is a setting: L-BFGS-B's stops on the relative cost
# decrease and the iteration count, and the slack on lambda_min of a PSD Hessian.
_FTOL = 1e-14
_MAX_ITER = 500
_EPS_PSD = 1e-8


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


def _first_psd_crossing(bundle: HessianBundle, remaining: float) -> float | None:
    """First step in (0, remaining] where the extrapolated Hessian stops being PSD.

    M(ds) = ds^2 K_a + ds K_1 + (H_s + _EPS_PSD I), with K_1 = 2 s K_a + K_b,
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
    left = np.block([[zero, eye], [-(bundle.h_s + _EPS_PSD * eye), -k_1]])
    right = np.block([[eye, zero], [zero, bundle.k_a]])
    ds = scipy.linalg.eigvals(left, right)
    ds = ds.real[np.isfinite(ds) & (ds.imag == 0.0)]
    roots = ds[(ds > 0.0) & (ds <= remaining)]
    if roots.size == 0:
        return None
    root = step = float(roots.min())
    back = float(np.spacing(root))
    while _lambda_min(hessian_extrapolate(bundle, step)) + _EPS_PSD < 0.0:
        step = max(root - back, 0.0)
        back *= 2.0
    return step


def propose_step(bundle: HessianBundle, delta_s_min: float) -> StepDecision:
    """Pick the next increment from bundle.s, where the bundle was measured.

    Cases, in order: the current Hessian is itself indefinite (the point is
    not a trusted minimum), so fall back to the schedule increment; the
    extrapolated Hessian stays PSD (within _EPS_PSD) all the way to s = 1, so
    jump there; otherwise step to its first PSD crossing, floored at the
    schedule increment.
    """
    remaining = 1.0 - bundle.s
    if remaining <= 0.0:
        raise ValueError(f"no room left to step from s={bundle.s}")
    ds_min = min(delta_s_min, remaining)
    if ds_min <= 0.0:
        raise ValueError(f"minimum step must be positive, got {delta_s_min}")
    lam_here = _lambda_min(bundle.h_s)
    lam_end = _lambda_min(hessian_extrapolate(bundle, remaining))
    if lam_here < -_EPS_PSD:
        return StepDecision(StepKind.FALLBACK_SCHEDULE, ds_min, lam_here, lam_end)
    ds_star = _first_psd_crossing(bundle, remaining)
    if ds_star is None:
        return StepDecision(StepKind.JUMP_TO_ONE, remaining, lam_here, lam_end)
    if ds_star <= ds_min:
        return StepDecision(StepKind.MINIMUM_STEP, ds_min, lam_here, lam_end)
    return StepDecision(StepKind.HESSIAN_STEP, ds_star, lam_here, lam_end)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    theta: np.ndarray
    cost: float
    grad: np.ndarray
    iterations: int
    nfev: int
    njev: int
    converged: bool
    message: str


def _answer_first_call(fun, theta0: np.ndarray, first):
    """fun, except that its first call at theta0 returns `first`, already measured there."""
    pending = [first]

    def answered(theta):
        if pending and np.array_equal(theta, theta0):
            return pending.pop()
        return fun(theta)

    return answered


def minimize_cost(
    fun,
    theta0: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    hessian: np.ndarray | None = None,
) -> MinimizeResult:
    """Quasi-Newton line-search minimization with an analytic gradient.

    fun(theta) returns (cost, gradient) together, so one batch of circuits
    serves both; the result keeps the theta, cost and gradient of the fun
    call L-BFGS-B stopped at, and nfev counts every fun call. Reads
    solver.gtol. The angles are unbounded: the cost is 2pi-periodic in
    each.

    `hessian` is the Hessian of the cost at theta0, if the caller holds it.
    L-BFGS-B then runs in its whitened coordinates phi, with
    theta = theta0 + V Lambda^{-1/2} phi and (Lambda, V) = eigh(hessian), in
    which the quadratic model is |phi - phi*|^2 / 2 plus a constant, when
    both hold:
    - the smallest eigenvalue exceeds _EPS_PSD;
    - the quadratic model at theta0 keeps its minimum, C - g^T H^{-1} g / 2,
      at or above 0, the floor of the nonnegative cost. A model that dips
      below it fails before its own minimizer, so its metric is not used.
    The second test reads fun at theta0, which is L-BFGS-B's first call in
    either case, so it is answered from that reading and costs nothing.
    Otherwise, or with no `hessian`, L-BFGS-B runs on theta itself and the
    result is the same as without one. The whitened first step is not the
    Newton step to phi*: L-BFGS-B's first trial step has unit length, so even
    on the model itself it takes 3-4 evaluations, not 2, unless |phi*| = 1.

    Terminates when the projected-gradient infinity norm drops below gtol
    (for a whitened solve, that of the gradient in phi,
    (V Lambda^{-1/2})^T grad C), when the relative cost decrease drops below
    _FTOL, or after _MAX_ITER iterations. On a line-search failure the best
    point found so far is returned with converged=False.
    """
    theta0 = np.asarray(theta0, dtype=float)
    objective, start, seen = fun, theta0, None
    if hessian is not None:
        lam, vec = np.linalg.eigh(hessian)
        if lam[0] > _EPS_PSD:
            basis = vec / np.sqrt(lam)
            cost0, grad0 = first = fun(theta0)
            measured = objective = _answer_first_call(fun, theta0, first)
            white = basis.T @ grad0
            if cost0 - 0.5 * float(white @ white) >= 0.0:
                seen = {}

                def objective(phi):
                    theta = theta0 + basis @ phi
                    value, grad = measured(theta)
                    seen[phi.tobytes()] = (theta, value, grad)
                    return value, basis.T @ grad

                start = np.zeros_like(theta0)
    res = scipy.optimize.minimize(
        objective,
        start,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": _MAX_ITER,
            "gtol": solver.gtol,
            "ftol": _FTOL,
        },
    )
    if seen is None:
        theta, value, grad = res.x, res.fun, res.jac
    else:
        theta, value, grad = seen[np.asarray(res.x, dtype=float).tobytes()]
    return MinimizeResult(
        theta=np.asarray(theta, dtype=float),
        cost=float(value),
        grad=np.asarray(grad, dtype=float),
        iterations=int(res.nit),
        nfev=int(res.nfev),
        njev=int(res.njev),
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


@dataclass(frozen=True, eq=False)
class RunTrace:
    mode: str
    T: int
    steps: list[StepRecord]
    theta_star: np.ndarray
    wall_time_s: float

    @property
    def t(self) -> int:
        """Effective number of optimization steps actually executed."""
        return len(self.steps)

    @property
    def circuit_evals(self) -> int:
        """Device circuits charged over all steps."""
        return sum(rec.circuit_evals for rec in self.steps)

    @property
    def final_cost(self) -> float:
        """Cost of the last step, at s = 1; every run takes at least one step."""
        return self.steps[-1].cost


def solve_adiabatic(
    system: PreparedSystem,
    ansatz: AnsatzConfig,
    solver: SolverConfig = SolverConfig(),
) -> RunTrace:
    """Sweep s from 0 to 1 with warm starts; the trace holds theta_star.

    Reads solver.T and solver.schedule; minimize_cost reads solver.gtol,
    and the ansatz fixes the circuit that solver.n and solver.d describe.
    A step's note is L-BFGS-B's message when its solve did not converge.

    At s = 0 the zero parameter vector is the exact minimum (the circuit
    prepares e1, the working right-hand side), so the loop decides the
    first increment before any optimization. Each pass decides a step from
    the current converged point, advances s and reoptimizes warm-started.
    In `hessian` mode the reoptimization is preconditioned with the Hessian
    of the next stop's cost at the warm start, which the bundle already
    holds.

    A step charges the circuits a device must run: the bundle's pair
    circuits, and every L-BFGS-B evaluation but the first. At theta = 0 the
    bundle is free, since every derivative state is a signed basis vector,
    so its numbers are entries of H(s) (verify.start_rule_defect). Otherwise
    theta_k is the previous optimum, whose evaluation measured C(theta_k)
    and C(theta_k +- pi/2 e_i); so the bundle's centre and its n_p single
    shifts are known, C(theta + pi e_i) being
    C(theta + pi/2 e_i) + C(theta - pi/2 e_i) - C(theta)
    (verify.hessian_rule_defect). The first evaluation is at the warm start,
    theta = 0 or that optimum. The terms <a>, <b>, <c> behind each reading
    do not depend on s, so a reading at one s serves every other.
    """
    mode, T = solver.schedule, solver.T
    if system.n_qubits != ansatz.n:
        raise ValueError(
            f"ansatz acts on {ansatz.n} qubits but the system needs {system.n_qubits}"
        )
    model = build_cost_model(system)
    grid = uniform_sequence(T) if mode == "fixed" else default_sequence(system.kappa, T)
    n_p = ansatz.n_params

    theta = np.zeros(n_p)
    s = 0.0
    steps: list[StepRecord] = []
    started = time.perf_counter()
    max_steps = T + 5

    while s < 1.0 - S_TOL:
        if mode == "hessian":
            bundle = hessian_bundle(model, ansatz, theta, s)
            decision = propose_step(bundle, next_increment(grid, s))
            probe_evals = bundle.circuit_evals - 1 - n_p if theta.any() else 0
        else:
            decision = StepDecision(
                StepKind.FALLBACK_SCHEDULE, next_increment(grid, s), None, None
            )
            probe_evals = 0
        s_next = s + decision.delta_s
        if s_next > 1.0 - S_TOL:
            s_next = 1.0
        res = minimize_cost(
            lambda th: cost_and_gradient(model, ansatz, th, s_next),
            theta,
            solver,
            hessian_extrapolate(bundle, s_next - s) if mode == "hessian" else None,
        )
        record = StepRecord(
            index=len(steps),
            s_from=s,
            s=s_next,
            kind=decision.kind,
            delta_s=s_next - s,
            lambda_min_start=decision.lambda_min_start,
            lambda_min_at_end=decision.lambda_min_at_end,
            iterations=res.iterations,
            nfev=res.nfev,
            circuit_evals=probe_evals + (res.nfev - 1) + (res.njev - 1) * 2 * n_p,
            cost=res.cost,
            grad_norm=float(np.abs(res.grad).max()),
            theta_jump=float(np.linalg.norm(res.theta - theta)),
            converged=res.converged,
            note="" if res.converged else res.message,
        )
        steps.append(record)
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
        if len(steps) > max_steps:
            raise RuntimeError(
                f"sweep exceeded {max_steps} steps; schedule is not advancing"
            )

    return RunTrace(
        mode=mode,
        T=T,
        steps=steps,
        theta_star=theta,
        wall_time_s=time.perf_counter() - started,
    )
