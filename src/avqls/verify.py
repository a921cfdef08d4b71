"""Self-contained invariant battery behind the `verify` CLI subcommand."""

from __future__ import annotations

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .cost import (
    assemble_hamiltonian,
    bind_objective,
    build_cost_model,
    cost,
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
    """Worst |s(v_min)| and |s(v_max) - 1| over kappas; inf if a grid repeats a point."""
    defects = []
    for kappa in kappas:
        v_min, v_max = v_bounds(kappa)
        defects += [abs(s_of_v(v_min, kappa)), abs(s_of_v(v_max, kappa) - 1.0)]
        if np.any(np.diff(default_sequence(kappa, steps)) <= 0.0):
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
    """Worst gap between the cost and Hessian at s + ds and their references.

    Each case is (model, config, theta, s, ds). The cost at s + ds is checked
    against psi^T H(s + ds) psi of the dense Hamiltonian, and the parameter
    Hessian extrapolated from a bundle at s against a bundle measured at
    s + ds, in the Frobenius norm.
    """
    defects = []
    for model, config, theta, s, ds in cases:
        psi = apply_ansatz(config, theta)
        dense_c = psi @ assemble_hamiltonian(model, s + ds) @ psi
        direct_c = cost(model, config, theta, s + ds)
        pred_h = hessian_extrapolate(hessian_bundle(model, config, theta, s), ds)
        direct_h = hessian_bundle(model, config, theta, s + ds).h_s
        defects += [abs(direct_c - dense_c), np.linalg.norm(pred_h - direct_h)]
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
    assemble_hamiltonian, compared here with the bound objective and
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
        value, grad = bind_objective(model, config, zero, s)(zero)
        defects += [
            abs(value - ham[0, 0]),
            np.abs(grad - ham[0, index]).max(),
            np.abs(hessian_bundle(model, config, zero, s).h_s - rule).max(),
        ]
    return _worst(defects)


def _schedule_endpoints() -> float:
    return schedule_endpoint_defect((1.0, 10.0, 100.0, 1000.0), 25)


def _householder() -> float:
    rng = np.random.default_rng(11)
    return householder_defect([rng.normal(size=size) for size in (2, 8, 32)])


def _norm_preservation() -> float:
    rng = np.random.default_rng(12)
    cases = []
    for n, d in ((1, 0), (3, 2), (5, 1)):
        config = AnsatzConfig(n=n, d=d)
        cases.append((config, rng.uniform(-np.pi, np.pi, config.n_params)))
    return norm_defect(cases)


def _extrapolation() -> float:
    rng = np.random.default_rng(13)
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.eye(4) + 0.3 * rng.normal(size=(4, 4)))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    return extrapolation_defect([(model, config, theta, 0.3, 0.45)])


def _ground_state() -> float:
    rng = np.random.default_rng(14)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    matrix = basis @ np.diag(rng.uniform(0.3, 1.0, 8)) @ basis.T
    system = prepare(matrix, rng.normal(size=8))
    return ground_state_defect([system], (0.0, 0.5, 1.0))


def _gradient() -> float:
    rng = np.random.default_rng(15)
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.diag([0.5, 0.7, 0.9, 1.0]))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    return gradient_defect([(model, config, theta, 0.8)])


def _hessian_rule() -> float:
    rng = np.random.default_rng(16)
    config = AnsatzConfig(n=2, d=1)
    matrix = rng.normal(size=(4, 4))
    model = build_cost_model(matrix / np.linalg.norm(matrix, 2))
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    return hessian_rule_defect([(model, config, theta, 0.7)])


def _start_rule() -> float:
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(8, 8))
    model = build_cost_model(matrix / np.linalg.norm(matrix, 2))
    config = AnsatzConfig(n=3, d=2)
    return start_rule_defect([(model, config, s) for s in (0.0, 0.6, 1.0)])


# (name, defect, bound, label): a check passes when its defect is below its bound
_CHECKS = [
    ("schedule endpoints", _schedule_endpoints, 1e-10, "max endpoint deviation"),
    ("householder algebra", _householder, 1e-12, "max defect"),
    ("ansatz norm preservation", _norm_preservation, 1e-12, "max norm drift"),
    ("derivative extrapolation", _extrapolation, 1e-9, "max extrapolation defect"),
    ("ground-state identity", _ground_state, 1e-10, "max ground-state residual"),
    ("shift-rule gradient", _gradient, 1e-7, "max gradient defect"),
    ("Hessian device rule", _hessian_rule, 1e-12, "max rule defect"),
    ("classical start", _start_rule, 1e-12, "max start defect"),
]


def run_battery(echo) -> bool:
    """Run every invariant check, pass one line each to `echo`, return overall pass."""
    all_ok = True
    for name, defect, bound, label in _CHECKS:
        try:
            worst = defect()
            ok, detail = worst < bound, f"{label} {worst:.2e}"
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        echo(f"[{'ok' : ^4}] {name}: {detail}" if ok else f"[FAIL] {name}: {detail}")
    return all_ok
