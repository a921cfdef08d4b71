"""Self-contained invariant battery behind the `verify` CLI subcommand."""

from __future__ import annotations

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .cost import (
    assemble_hamiltonian,
    build_cost_model,
    cost,
    cost_and_gradient,
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
    "norm_defect",
    "extrapolation_defect",
    "ground_state_defect",
    "gradient_defect",
    "hessian_rule_defect",
    "start_rule_defect",
    "run_battery",
]


def _worst(defects) -> float:
    """Largest defect, or inf if any is NaN or infinite, so it fails every bound.

    The builtin max would drop a NaN, since every comparison with NaN is false.
    """
    defects = np.asarray(defects, dtype=float)
    if not np.all(np.isfinite(defects)):
        return np.inf
    return float(defects.max()) if defects.size else 0.0


def schedule_endpoint_defect(kappas, steps: int) -> float:
    """Worst |s(v_min)| and |s(v_max) - 1| over kappas.

    Infinite when a default grid of `steps` stops at some kappa is not
    strictly increasing.
    """
    defects = []
    for kappa in kappas:
        v_min, v_max = v_bounds(kappa)
        defects += [abs(s_of_v(v_min, kappa)), abs(s_of_v(v_max, kappa) - 1.0)]
        if not np.all(np.diff(default_sequence(kappa, steps)) > 0.0):
            return np.inf
    return _worst(defects)


def householder_defect(vectors) -> float:
    """Worst entry of S - S^T, S S - I, S S^T - I and S b/|b| - e1 over vectors b."""
    defects = []
    for b in vectors:
        s = householder(b)
        eye = np.eye(len(b))
        defects += [
            np.abs(s - s.T).max(),
            np.abs(s @ s - eye).max(),
            np.abs(s @ s.T - eye).max(),
            np.abs(s @ (b / np.linalg.norm(b)) - eye[0]).max(),
        ]
    return _worst(defects)


def norm_defect(cases) -> float:
    """Worst |norm(psi) - 1| of the ansatz state over cases (config, theta)."""
    return _worst(
        [abs(np.linalg.norm(apply_ansatz(config, theta)) - 1.0) for config, theta in cases]
    )


def extrapolation_defect(cases) -> float:
    """Worst gap between extrapolated and directly measured cost and Hessian.

    Each case is (model, config, theta, s, ds): the cost and the parameter
    Hessian at s + ds, predicted from measurements at s, against direct
    evaluation at s + ds. Hessians are compared in the Frobenius norm.
    """
    defects = []
    for model, config, theta, s, ds in cases:
        direct_c = cost(model, config, theta, s + ds)
        pred_c = cost_extrapolate(model, config, theta, s, ds)
        pred_h = hessian_extrapolate(hessian_bundle(model, config, theta, s), ds)
        direct_h = hessian_bundle(model, config, theta, s + ds).h_s
        defects += [abs(pred_c - direct_c), np.linalg.norm(pred_h - direct_h)]
    return _worst(defects)


def ground_state_defect(systems, s_values) -> float:
    """Worst |x(s)^T H(s) x(s)| for the exact pencil solution x(s) of each system."""
    defects = []
    for system in systems:
        model = build_cost_model(system)
        e1 = np.zeros(system.dim)
        e1[0] = 1.0
        for s in s_values:
            x = solve_parametric(system.matrix, e1, s)
            defects.append(abs(x @ assemble_hamiltonian(model, s) @ x))
    return _worst(defects)


def gradient_defect(cases, h: float = 1e-6, rtol: float = 0.0) -> float:
    """Worst |g - fd| - rtol |fd| between shift-rule and finite-difference gradients.

    Each case is (model, config, theta, s); fd is the central difference of
    the cost with step h in each parameter. With rtol = 0 this is the worst
    absolute gap; `gradient_defect(cases, h, rtol) <= atol` is the entrywise
    test of `np.allclose(g, fd, rtol, atol)` on every case.
    """
    defects = []
    for model, config, theta, s in cases:
        grad = cost_gradient(model, config, theta, s)
        for i in range(config.n_params):
            step = np.zeros(config.n_params)
            step[i] = h
            up = cost(model, config, theta + step, s)
            down = cost(model, config, theta - step, s)
            fd = (up - down) / (2.0 * h)
            defects.append(abs(grad[i] - fd) - rtol * abs(fd))
    return _worst(defects)


def hessian_rule_defect(cases) -> float:
    """Worst gap between the bundle's H_s and the device rule it is charged for.

    Each case is (model, config, theta, s). The rule measures the cost C at
    theta, at theta + pi e_i, and at theta + t (e_i + e_j) for
    t = pi/2, -pi/2, pi and each pair i < j. Since Ry(t + 2 pi) = -Ry(t),
    C(theta + pi e_i) = C(theta - pi e_i), so the shift-rule second
    difference (C(theta + pi e_i) - 2 C(theta) + C(theta - pi e_i)) / 4 is
    H_ii = (C(theta + pi e_i) - C(theta)) / 2, from one shifted circuit.
    f(t) = C(theta + t (e_i + e_j)) has frequencies <= 2, so
    f''(0) = f(pi/2) + f(-pi/2) - 3/2 f(0) - 1/2 f(pi) and
    H_ij = (f''(0) - H_ii - H_jj) / 2. Infinite when the rule's circuit count
    is not the bundle's `circuit_evals`.

    Away from theta = 0 a run charges only the pair circuits: C(theta) and
    C(theta +- pi/2 e_i) were read by the objective at theta, and
    g(t) = C(theta + t e_i) has frequency <= 1, so
    C(theta + pi e_i) = C(theta + pi/2 e_i) + C(theta - pi/2 e_i) - C(theta).
    That identity is checked too.
    """
    defects = []
    for model, config, theta, s in cases:
        n_p = config.n_params
        eye = np.eye(n_p)
        pairs = list(zip(*np.triu_indices(n_p, k=1)))
        offsets = [np.zeros(n_p)] + [np.pi * e for e in eye] + [
            t * (eye[i] + eye[j]) for i, j in pairs for t in (np.pi / 2, -np.pi / 2, np.pi)
        ]
        values = np.array([cost(model, config, theta + offset, s) for offset in offsets])
        bundle = hessian_bundle(model, config, theta, s)
        if len(values) != bundle.circuit_evals:
            return np.inf
        centre, singles, along = values[0], values[1:1 + n_p], values[1 + n_p:].reshape(-1, 3)
        up, down = (
            np.array([cost(model, config, theta + t * e, s) for e in eye])
            for t in (np.pi / 2, -np.pi / 2)
        )
        rule = np.diag((singles - centre) / 2.0)
        second = along[:, 0] + along[:, 1] - 1.5 * centre - 0.5 * along[:, 2]
        for (i, j), f2 in zip(pairs, second):
            rule[i, j] = rule[j, i] = (f2 - rule[i, i] - rule[j, j]) / 2.0
        defects += [np.abs(rule - bundle.h_s).max(), np.abs(up + down - centre - singles).max()]
    return _worst(defects)


def _flipped_start(config: AnsatzConfig, flipped) -> tuple[int, int]:
    """(sign, index) of the basis state psi(pi e_p summed over p in flipped).

    Pushes basis index 0 through the circuit by bit operations: Ry(0) is the
    identity, Ry(pi) maps |0> to |1> and |1> to -|0>, and a CNOT flips its
    target bit when its control bit is set.
    """
    n = config.n
    sign, index = 1, 0
    for p in range(config.n_params):
        if p and p % n == 0:
            for control, target in config.ring:
                index ^= (index >> (n - 1 - control) & 1) << (n - 1 - target)
        if p in flipped:
            bit = 1 << (n - 1 - p % n)
            sign = -sign if index & bit else sign
            index ^= bit
    return sign, index


def start_rule_defect(cases) -> float:
    """Worst gap between the circuits at theta = 0 and entries of H(s).

    Each case is (model, config, s). At theta = 0 the circuit prepares e1,
    and each derivative state is a signed basis vector found without
    simulating a state: chi_i = psi(pi e_i) = e_{b_i}, since every earlier
    gate leaves index 0 alone and the flipped bit is still 0, and
    chi_ij = psi(pi e_i + pi e_j) = sigma_ij e_{b_ij}. So C = H_00,
    dC_i = H_{0,b_i}, H_ii = (H_{b_i,b_i} - H_00) / 2 and
    H_ij = (H_{b_i,b_j} + sigma_ij H_{b_ij,0}) / 2 are entries of
    assemble_hamiltonian, compared here with cost_and_gradient and
    hessian_bundle. This is why a run charges no circuits for them.
    """
    defects = []
    for model, config, s in cases:
        n_p = config.n_params
        ham = assemble_hamiltonian(model, s)
        index = [_flipped_start(config, {i})[1] for i in range(n_p)]
        rule = ham[np.ix_(index, index)] / 2.0
        rule[np.diag_indices(n_p)] -= ham[0, 0] / 2.0
        for i, j in zip(*np.triu_indices(n_p, k=1)):
            sign, index_ij = _flipped_start(config, {i, j})
            rule[i, j] = rule[j, i] = rule[i, j] + sign * ham[index_ij, 0] / 2.0
        zero = np.zeros(n_p)
        value, grad = cost_and_gradient(model, config, zero, s)
        defects += [
            abs(value - ham[0, 0]),
            np.abs(grad - ham[0, index]).max(),
            np.abs(hessian_bundle(model, config, zero, s).h_s - rule).max(),
        ]
    return _worst(defects)


def _check_schedule_endpoints() -> tuple[bool, str]:
    worst = schedule_endpoint_defect((1.0, 10.0, 100.0, 1000.0), 25)
    return worst < 1e-10, f"max endpoint deviation {worst:.2e}"


def _check_householder() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = householder_defect([rng.normal(size=size) for size in (2, 8, 32)])
    return worst < 1e-12, f"max defect {worst:.2e}"


def _check_norm_preservation() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    cases = []
    for n, d in ((1, 0), (3, 2), (5, 1)):
        config = AnsatzConfig(n=n, d=d)
        cases.append((config, rng.uniform(-np.pi, np.pi, config.n_params)))
    worst = norm_defect(cases)
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
    worst = gradient_defect([(model, config, theta, 0.8)])
    return worst < 1e-7, f"max gradient defect {worst:.2e}"


def _check_hessian_rule() -> tuple[bool, str]:
    rng = np.random.default_rng(16)
    config = AnsatzConfig(n=2, d=1)
    matrix = rng.normal(size=(4, 4))
    model = build_cost_model(matrix / np.linalg.norm(matrix, 2))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    worst = hessian_rule_defect([(model, config, theta, 0.7)])
    return worst < 1e-12, f"max rule defect {worst:.2e}"


def _check_start_rule() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(8, 8))
    model = build_cost_model(matrix / np.linalg.norm(matrix, 2))
    config = AnsatzConfig(n=3, d=2)
    worst = start_rule_defect([(model, config, s) for s in (0.0, 0.6, 1.0)])
    return worst < 1e-12, f"max start defect {worst:.2e}"


_CHECKS = [
    ("schedule endpoints", _check_schedule_endpoints),
    ("householder algebra", _check_householder),
    ("ansatz norm preservation", _check_norm_preservation),
    ("derivative extrapolation", _check_extrapolation),
    ("ground-state identity", _check_ground_state),
    ("shift-rule gradient", _check_gradient),
    ("Hessian device rule", _check_hessian_rule),
    ("classical start", _check_start_rule),
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
