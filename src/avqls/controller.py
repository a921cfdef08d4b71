"""Warm-started adiabatic sweep with Hessian-guided step control.

The solver walks s from 0 to 1, reoptimizing the ansatz at each stop from
the previous optimum. In `hessian` mode the next increment is chosen from
the extrapolated parameter Hessian: the largest step for which the
extrapolated Hessian stays positive semidefinite keeps the warm start
inside a locally convex region. `dynamic` mode follows the
condition-number schedule without Hessian probes and `fixed` mode walks a
uniform grid.

The extrapolated Hessian is the matrix polynomial
ds^2 K_a + ds (2 s K_a + K_b) + H_s, so its first PSD crossing is the
smallest real root of a quadratic eigenvalue problem, found by one
eigensolve of its companion matrix in 1/ds (_first_psd_crossing). At the
next stop it is the exact Hessian of that stop's cost at the warm start,
for no circuits, and minimize_cost whitens the solve with it when it
passes two tests; after a hessian_step it is singular by construction, so
it fails the first. A whitened solve is charged as a plain one: the change
of coordinates runs no circuits, the reading at the warm start that
decides it is the solve's own first evaluation, and grad_norm is still
read from the gradient in theta.

Every solve runs L-BFGS-B's compiled routine setulb (Byrd, Lu, Nocedal and
Zhu 1995; Zhu et al. 1997, Algorithm 778), the private one of the C port
scipy 1.15 introduced. _lbfgsb is the loop of
scipy.optimize.minimize(method="L-BFGS-B"), with its settings (memory 10,
at most 20 line-search steps, ftol 1e-14, 500 iterations) and its memo:
one reading at the start, and a new one only at a point other than the
last one read. So every iterate is scipy's, bit for bit, without the cost
of its wrapper; tests/test_controller.py checks that.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from enum import Enum
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .ansatz import AnsatzConfig
from .config import SolverConfig
from .cost import (
    HessianBundle,
    bind_objective,
    build_cost_model,
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


def _load_setulb():
    """L-BFGS-B's compiled setulb, without the scipy.optimize package, which
    would load scipy.linalg, sparse, special and fft. The extension module is
    shared through sys.modules with scipy.optimize, whichever loads it first."""
    name = "scipy.optimize._lbfgsb"
    if name not in sys.modules:
        scipy_dirs = find_spec("scipy").submodule_search_locations
        package = PathFinder.find_spec("scipy.optimize", scipy_dirs)
        spec = PathFinder.find_spec(name, package.submodule_search_locations)
        sys.modules[name] = module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].setulb


setulb = _load_setulb()

# Every run uses these, so none is a setting: L-BFGS-B's stops on the relative cost
# decrease and the iteration count, and the slack on lambda_min of a PSD Hessian.
_FTOL = 1e-14
_MAX_ITER = 500
_EPS_PSD = 1e-8
_M, _MAXLS = 10, 20  # scipy's L-BFGS-B memory and line-search steps per iteration
# setulb's (task, code) at the end of an unbounded solve, with scipy's messages
_TASKS = {
    (4, 401): "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    (4, 402): "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    (5, 504): "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT",
    (8, 0): "ABNORMAL: ",
}


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

    M(ds) = ds^2 K_a + ds K_1 + H_eps, with K_1 = 2 s K_a + K_b and
    H_eps = H_s + _EPS_PSD I, is singular exactly where mu = 1/ds is an
    eigenvalue of the companion matrix [[0, I], [-H_eps^-1 K_a, -H_eps^-1 K_1]]
    of det(mu^2 H_eps + mu K_1 + K_a) = 0. The caller has checked that H_eps
    is PSD, so the first crossing is 1/mu for the largest real mu with 1/mu in
    (0, remaining]; None means there is none. LAPACK gives each real eigenvalue
    an imaginary part of exactly zero, so no tolerance filters them. A singular
    H_eps, at the edge lambda_min(H_s) = -_EPS_PSD, leaves M(0) no PSD margin:
    the crossing is then ds = 0. A root that round-off put on the indefinite
    side is backed off by 1, 2, 4, ... ulps until M is PSD there again."""
    n = bundle.n_params
    k_1 = 2.0 * bundle.s * bundle.k_a + bundle.k_b
    try:
        lower = np.linalg.solve(bundle.h_s + _EPS_PSD * np.eye(n), -np.hstack([bundle.k_a, k_1]))
    except np.linalg.LinAlgError:  # H_eps is singular
        return 0.0
    mu = np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)], [lower]]))
    ds = 1.0 / mu.real[(mu.imag == 0.0) & (mu.real > 0.0)]
    roots = ds[ds <= remaining]
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
    converged: bool
    message: str


def _gtol_met(grad: np.ndarray, gtol: float) -> bool:
    return float(np.abs(grad).max()) <= gtol


def _lbfgsb(fun, x0: np.ndarray, first: tuple, gtol: float) -> MinimizeResult:
    """scipy.optimize.minimize(method="L-BFGS-B", jac=True)'s loop over setulb, unbounded.

    fun(x) returns a reading (cost, gradient in x, theta, grad C(theta));
    `first` is the one at x0. At each FG task fun gets a copy of x, and only
    if x differs from the last point it read (scipy's memo). setulb's own
    gradient test is off (pgtol = 0): the solve stops when grad C(theta)
    meets `gtol` at the start or at a NEW_X task, an iteration (401), else at
    _MAX_ITER (504). Returns the last accepted reading's theta, cost and grad.
    """
    n = x0.size
    x, last, reading, accepted, iterations, nfev = x0.copy(), x0, first, first, 0, 1
    free, nbd, iwa = np.zeros(n), np.zeros(n, np.int32), np.zeros(3 * n, np.int32)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    task, ln_task, lsave, isave = (np.zeros(k, np.int32) for k in (2, 2, 4, 44))
    dsave, factr = np.zeros(29), _FTOL / np.finfo(float).eps
    code = (4, 401) if _gtol_met(first[-1], gtol) else None
    while code is None:
        f, g = reading[0], np.array(reading[1], dtype=float)  # setulb may write g
        setulb(_M, x, free, free, nbd, f, g, factr, 0.0, wa, iwa, task, lsave, isave, dsave,
               _MAXLS, ln_task)
        if task[0] == 1:  # NEW_X: x, the last point read, is accepted
            accepted, iterations = reading, iterations + 1
            if _gtol_met(reading[-1], gtol):
                code = 4, 401
            elif iterations >= _MAX_ITER:
                code = 5, 504
        elif task[0] != 3:  # not FG either: the solve has ended
            code = tuple(task.tolist())
        elif not np.array_equal(x, last):  # FG at a point fun has not just read
            last = x.copy()
            reading, nfev = fun(last), nfev + 1
    value, _, theta, grad = accepted
    return MinimizeResult(theta, float(value), grad, iterations, nfev, code[0] == 4, _TASKS[code])


def minimize_cost(
    fun,
    theta0: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    hessian: np.ndarray | None = None,
) -> MinimizeResult:
    """Quasi-Newton line-search minimization with an analytic gradient.

    fun(theta) returns (cost, gradient) together, so one batch of circuits
    serves both. _lbfgsb drives L-BFGS-B with scipy.optimize.minimize's
    settings and memo, so the iterates and nfev are scipy's. Reads
    solver.gtol. The angles are unbounded: the cost is 2pi-periodic in each.

    `hessian` is the Hessian of the cost at theta0, if the caller holds it.
    L-BFGS-B then runs in its scaled whitened coordinates phi, with
    theta = theta0 + c V Lambda^{-1/2} phi, (Lambda, V) = eigh(hessian) and
    c = |(V Lambda^{-1/2})^T grad C(theta0)|_2, when both hold:
    - the smallest eigenvalue exceeds _EPS_PSD;
    - the quadratic model at theta0 keeps its minimum, C - g^T H^{-1} g / 2,
      at or above 0, the floor of the nonnegative cost. A model that dips
      below it fails before its own minimizer, so its metric is not used.
    In phi the model's minimizer lies at unit distance along -grad,
    L-BFGS-B's first trial point: the first step is the Newton step, and on
    the model itself the solve takes 2 evaluations.

    Every solve, whitened or not, terminates when max |grad C(theta)| <= gtol
    at the start or an accepted point, when the relative cost decrease drops
    below _FTOL, after _MAX_ITER iterations, or with converged=False when a
    line search fails. It returns the theta, cost and grad C(theta) of its
    last accepted point.
    """
    theta0 = np.array(theta0, dtype=float)
    cost0, grad0 = fun(theta0)

    def objective(theta):
        value, grad = fun(theta)
        return value, grad, theta, grad
    start, first = theta0, (cost0, grad0, theta0, grad0)
    if hessian is not None:
        lam, vec = np.linalg.eigh(hessian)
        if lam[0] > _EPS_PSD:
            basis = vec / np.sqrt(lam)
            white = basis.T @ grad0
            if cost0 - 0.5 * float(white @ white) >= 0.0:
                basis = basis * np.linalg.norm(white)

                def objective(phi):
                    theta = theta0 + basis @ phi
                    value, grad = fun(theta)
                    return value, basis.T @ grad, theta, grad
                start = np.zeros_like(theta0)
                first = cost0, basis.T @ grad0, theta0 + basis @ start, grad0
    return _lbfgsb(objective, start, first, solver.gtol)


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
    which every solve tests on the gradient in theta, and the ansatz fixes
    the circuit that solver.n and solver.d describe. A step records the
    theta, cost and gradient of its solve's last accepted point, and as its
    note L-BFGS-B's message (scipy's) when the solve did not converge.

    At s = 0 the zero parameter vector is the exact minimum (the circuit
    prepares e1, the working right-hand side), so the loop decides the
    first increment before any optimization. Each pass decides a step from
    the current converged point, advances s and reoptimizes warm-started.
    In `hessian` mode the reoptimization is preconditioned with the Hessian
    of the next stop's cost at the warm start, which the bundle already
    holds, so its first step is the Newton step of that quadratic model.

    A step charges the circuits a device must run: the bundle's pair
    circuits, and 1 + 2 n_p for each L-BFGS-B evaluation but the first, at
    the warm start, theta = 0 or the previous optimum. avqls.verify derives
    and checks why the rest is free: start_rule_defect at theta = 0, and
    hessian_rule_defect away from it. A reading at one s serves every other
    s, since the expansion terms behind it do not depend on s (avqls.cost).
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
            bind_objective(model, ansatz, theta, s_next),
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
            circuit_evals=probe_evals + (res.nfev - 1) * (1 + 2 * n_p),
            cost=res.cost,
            grad_norm=float(np.abs(res.grad).max()),
            theta_jump=float(np.linalg.norm(res.theta - theta)),
            converged=res.converged,
            note="" if res.converged else res.message,
        )
        steps.append(record)
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
