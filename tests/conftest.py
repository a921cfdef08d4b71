"""Shared oracles for the test suite.

The dense helpers here rebuild circuit states and derivatives from first
principles (explicit gate matrices, central finite differences) so the
fast strided kernels and shift-rule formulas in the package are checked
against independent constructions. The per-gate loop engine and the
per-point shift-rule loops are the reference for the package's batched
statevector engine.
"""

from __future__ import annotations

import functools
import importlib.util
import math
from pathlib import Path

from avqls import AnsatzConfig  # before numpy: one BLAS thread, as in the CLI
import avqls.cost
import numpy as np


def ry_matrix(angle: float) -> np.ndarray:
    c = np.cos(0.5 * angle)
    s = np.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]])


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    """Dense CNOT permutation. Qubit 0 is the most significant bit."""
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for col in range(dim):
        cbit = (col >> (n - 1 - control)) & 1
        row = col ^ (1 << (n - 1 - target)) if cbit else col
        mat[row, col] = 1.0
    return mat


def ry_column_matrix(angles: np.ndarray) -> np.ndarray:
    out = ry_matrix(angles[0])
    for a in angles[1:]:
        out = np.kron(out, ry_matrix(a))
    return out


def dense_ansatz_state(config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Gate-by-gate matrix-product oracle for the layered circuit."""
    theta = np.asarray(theta, dtype=float)
    n = config.n
    state = np.zeros(config.dim)
    state[0] = 1.0
    state = ry_column_matrix(theta[:n]) @ state
    for layer in range(1, config.d + 1):
        for control, tgt in config.ring:
            state = cnot_matrix(control, tgt, n) @ state
        state = ry_column_matrix(theta[layer * n:(layer + 1) * n]) @ state
    return state


def _loop_ry(psi: np.ndarray, qubit: int, angle: float) -> None:
    """Rotate `qubit` by Ry(angle) in place using a strided pair update."""
    half = 0.5 * angle
    c = math.cos(half)
    s = math.sin(half)
    view = psi.reshape(2 ** qubit, 2, -1)
    top = view[:, 0, :].copy()
    bot = view[:, 1, :]
    view[:, 0, :] = c * top - s * bot
    view[:, 1, :] = s * top + c * bot


def _loop_cnot(psi: np.ndarray, control: int, target: int, n: int) -> None:
    """Swap the target-bit amplitudes on the control=1 half, in place."""
    view = psi.reshape([2] * n)
    i10 = [slice(None)] * n
    i11 = [slice(None)] * n
    i10[control], i10[target] = 1, 0
    i11[control], i11[target] = 1, 1
    tmp = view[tuple(i10)].copy()
    view[tuple(i10)] = view[tuple(i11)]
    view[tuple(i11)] = tmp


def _loop_layers(psi: np.ndarray, config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Apply the entangling layers to psi, one gate at a time, in place."""
    n = config.n
    for layer in range(1, config.d + 1):
        for control, target in config.ring:
            _loop_cnot(psi, control, target, n)
        block = theta[layer * n:(layer + 1) * n]
        for q in range(n):
            _loop_ry(psi, q, block[q])
    return psi


def loop_ansatz_state(config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """One circuit, one gate at a time: the reference for apply_ansatz."""
    theta = np.asarray(theta, dtype=float)
    psi = np.zeros(config.dim)
    psi[0] = 1.0
    for q in range(config.n):
        _loop_ry(psi, q, theta[q])
    return _loop_layers(psi, config, theta)


def product_loop_state(config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """loop_ansatz_state with the initial column built as a Kronecker product.

    apply_ansatz multiplies the initial (cos, sin) pairs where the loop adds
    rotated zeros: the values agree, but an initial angle of exactly +-0
    leaves zero amplitudes whose sign can differ. This is the reference for
    the sign bits.
    """
    theta = np.asarray(theta, dtype=float)
    pairs = [np.array([math.cos(0.5 * a), math.sin(0.5 * a)]) for a in theta[:config.n]]
    return _loop_layers(functools.reduce(np.kron, pairs), config, theta)


def loop_operators(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (a_op, b_op, c_op) built from D."""
    d_op = model.d_op
    proj = np.eye(model.dim)
    proj[0, 0] = 0.0
    return d_op.T @ proj @ d_op, d_op.T @ proj + proj @ d_op, proj


def loop_terms(model, config: AnsatzConfig, theta: np.ndarray, operators=None) -> np.ndarray:
    """(<a_op>, <b_op>, <c_op>) at one point, from loop_operators(model) unless given."""
    a_op, b_op, proj = loop_operators(model) if operators is None else operators
    x = loop_ansatz_state(config, theta)
    return np.array([x @ a_op @ x, x @ b_op @ x, x @ proj @ x])


def loop_shift_rule(model, config: AnsatzConfig, theta: np.ndarray, s: float, beta: float):
    """(gradient, H_s, K_a, K_b) of C_s by the shift rule, one circuit per point."""
    theta = np.asarray(theta, dtype=float)
    n_p = config.n_params
    denom = 2.0 * math.sin(beta)
    operators = loop_operators(model)

    def terms_at(offset: np.ndarray) -> np.ndarray:
        return loop_terms(model, config, theta + offset, operators)

    eye = np.eye(n_p)
    center = terms_at(np.zeros(n_p))
    grad3 = np.empty((n_p, 3))
    hess3 = np.empty((3, n_p, n_p))
    for i in range(n_p):
        grad3[i] = (terms_at(beta * eye[i]) - terms_at(-beta * eye[i])) / denom
        for j in range(n_p):
            if i == j:
                val = terms_at(2 * beta * eye[i]) - 2.0 * center + terms_at(-2 * beta * eye[i])
            else:
                val = (
                    terms_at(beta * (eye[i] + eye[j]))
                    - terms_at(beta * (eye[i] - eye[j]))
                    - terms_at(beta * (eye[j] - eye[i]))
                    + terms_at(-beta * (eye[i] + eye[j]))
                )
            hess3[:, i, j] = val / (denom * denom)
    grad = s * s * grad3[:, 0] + s * grad3[:, 1] + grad3[:, 2]
    k_a, k_b, h_c = hess3
    return grad, s * s * k_a + s * k_b + h_c, k_a, k_b


def fd_hessian(fun, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    m = x.size
    hess = np.zeros((m, m))
    f0 = fun(x)
    for i in range(m):
        ei = np.zeros_like(x)
        ei[i] = h
        hess[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros_like(x)
            ej[j] = h
            val = (
                fun(x + ei + ej)
                - fun(x + ei - ej)
                - fun(x - ei + ej)
                + fun(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return hess


def random_system_matrix(rng: np.random.Generator, n_sites: int, kind: str) -> np.ndarray:
    """Symmetric matrix with eigenvalues pushed away from zero.

    kind selects the sign pattern: all positive, all negative, or a mix.
    Magnitudes live in [0.2, 1.0] so condition numbers stay tame and the
    prepared pencil is comfortably nonsingular.
    """
    mags = rng.uniform(0.2, 1.0, size=n_sites)
    if kind == "pd":
        eigs = mags
    elif kind == "nd":
        eigs = -mags
    elif kind == "indef":
        signs = rng.choice([-1.0, 1.0], size=n_sites)
        if np.all(signs > 0):
            signs[0] = -1.0
        if np.all(signs < 0):
            signs[0] = 1.0
        eigs = signs * mags
    else:
        raise ValueError(f"unknown kind {kind!r}")
    gauss = rng.normal(size=(n_sites, n_sites))
    q, _ = np.linalg.qr(gauss)
    return q @ np.diag(eigs) @ q.T


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def clear_start_states() -> None:
    """Forget the cached theta = 0 states, so the next run of a shape simulates them."""
    avqls.cost._start_states.cache_clear()


def load_tool(name: str):
    """A script of tools/, imported by path: the tools are not a package."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
