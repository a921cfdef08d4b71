"""Cost operator family of the homotopy and its exact derivative machinery.

The working Hamiltonian is H(s) = A(s)^T P A(s) with A(s) = I + s*D,
D = M - I, and P the projector onto the first basis vector's complement,
P = I - e1 e1^T. Expanding in powers of s gives three fixed operators

    a_op = D^T P D
    b_op = D^T P + P D
    c_op = P

so that H(s) = s^2 a_op + s b_op + c_op identically. Their expectations are
read off D x, so none of them is formed densely. Because the expansion is
exact, expectation values of a_op and b_op measured at one value of s
reconstruct the cost (and its parameter Hessian) at any other value of s
without further circuit evaluations. Gradients and Hessians with respect to
the circuit parameters use the two-point shift rule, which is exact for Ry
generators at any shift beta with sin(beta) != 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz

__all__ = [
    "DEFAULT_SHIFT",
    "CostModel",
    "HessianBundle",
    "build_cost_model",
    "assemble_hamiltonian",
    "cost",
    "cost_extrapolate",
    "cost_gradient",
    "cost_and_gradient",
    "hessian_bundle",
    "hessian_extrapolate",
]

DEFAULT_SHIFT = math.pi / 2

# Largest state batch simulated at once, in amplitudes (8 MiB of float64).
_MAX_BATCH_AMPLITUDES = 2 ** 20


@dataclass(frozen=True, eq=False)
class CostModel:
    """D = M - I of the prepared matrix M, which fixes the s-expansion."""

    d_op: np.ndarray
    dim: int


def build_cost_model(source) -> CostModel:
    """Build the cost model of a prepared system or a raw matrix.

    `source` is either an object with a `.matrix` attribute (a prepared
    system, whose right-hand side is e1 by construction) or a square matrix
    for which the right-hand side is taken to be e1.
    """
    matrix = np.asarray(getattr(source, "matrix", source), dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    dim = matrix.shape[0]
    return CostModel(d_op=matrix - np.eye(dim), dim=dim)


def assemble_hamiltonian(model: CostModel, s: float) -> np.ndarray:
    """Dense H(s) = A(s)^T P A(s) with A(s) = I + s D."""
    _check_s(s)
    pencil = np.eye(model.dim) + s * model.d_op
    projected = pencil.copy()
    projected[0] = 0.0
    return pencil.T @ projected


def _check_s(s: float) -> None:
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"adiabatic parameter must lie in [0, 1], got {s}")


def _terms_of_states(model: CostModel, states: np.ndarray) -> np.ndarray:
    # One product with D yields all three expectations of each row x:
    #   <a> = |Dx|^2 - (Dx)_1^2, <b> = 2 (x.Dx - x_1 (Dx)_1), <c> = |x|^2 - x_1^2
    y = states @ model.d_op.T
    x0 = states[:, 0]
    y0 = y[:, 0]
    terms = np.empty((len(states), 3))
    np.subtract(np.einsum("ij,ij->i", y, y), y0 * y0, out=terms[:, 0])
    np.subtract(np.einsum("ij,ij->i", states, y), x0 * y0, out=terms[:, 1])
    terms[:, 1] *= 2.0
    np.subtract(np.einsum("ij,ij->i", states, states), x0 * x0, out=terms[:, 2])
    return terms


def _terms_at(model: CostModel, config: AnsatzConfig, points: np.ndarray) -> np.ndarray:
    """(B, 3) expectations (<a_op>, <b_op>, <c_op>) at a (B, n_p) batch of points.

    States are simulated in chunks of at most _MAX_BATCH_AMPLITUDES amplitudes.
    """
    _check_dims(model, config)
    chunk = max(1, _MAX_BATCH_AMPLITUDES // config.dim)
    if len(points) <= chunk:
        return _terms_of_states(model, apply_ansatz(config, points))
    return np.concatenate([
        _terms_of_states(model, apply_ansatz(config, points[k:k + chunk]))
        for k in range(0, len(points), chunk)
    ])


def _in_s(terms: np.ndarray, s: float) -> np.ndarray:
    """Combine expansion terms (last axis a, b, c) into C_s = s^2 a + s b + c."""
    return s * s * terms[..., 0] + s * terms[..., 1] + terms[..., 2]


@functools.lru_cache(maxsize=None)
def _objective_offsets(n_p: int, beta: float) -> np.ndarray:
    """Offsets of the 2 n_p + 1 objective points from theta, read-only.

    Row 0 is the centre; rows 1..2 n_p are the shift-rule points
    theta + beta e_i, then theta - beta e_i. Adding -0.0 leaves every theta
    unchanged, sign of zero included, and adding -beta equals subtracting
    beta, so theta + table is bitwise the explicit points.
    """
    shifts = beta * np.eye(n_p)
    table = np.concatenate([np.full((1, n_p), -0.0), shifts, -shifts])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _hessian_offsets(n_p: int, beta: float) -> np.ndarray:
    """Offsets of the 2 n_p^2 + 1 Hessian-bundle points, read-only.

    The centre, theta +- 2 beta e_i, and the four double shifts of each pair
    i < j in np.triu_indices order.
    """
    eye = np.eye(n_p)
    iu, ju = np.triu_indices(n_p, k=1)
    pair_sum, pair_diff = eye[iu] + eye[ju], eye[iu] - eye[ju]
    table = beta * np.concatenate(
        [np.zeros((1, n_p)), 2.0 * eye, -2.0 * eye, pair_sum, pair_diff, -pair_diff, -pair_sum]
    )
    table.flags.writeable = False
    return table


def _shift_rule(terms: np.ndarray, beta: float) -> np.ndarray:
    """Per-parameter derivatives from the terms at theta +- beta e_i."""
    n_p = len(terms) // 2
    return (terms[:n_p] - terms[n_p:]) / (2.0 * math.sin(beta))


def cost(model: CostModel, config: AnsatzConfig, theta: np.ndarray, s: float) -> float:
    """C_s(theta) = <theta| H(s) |theta>."""
    _check_s(s)
    terms = _terms_at(model, config, _check_theta(config, theta)[None])[0]
    return float(_in_s(terms, s))


def cost_extrapolate(
    model: CostModel,
    config: AnsatzConfig,
    theta: np.ndarray,
    s: float,
    delta_s: float,
) -> float:
    """C_{s+delta_s}(theta) from expectations measured at theta only.

    Exact for any step because the cost is a quadratic polynomial in s.
    """
    _check_s(s)
    _check_s(s + delta_s)
    terms = _terms_at(model, config, _check_theta(config, theta)[None])[0]
    ea, eb, _ = terms
    cost_here = _in_s(terms, s)
    return float(delta_s * delta_s * ea + delta_s * (2.0 * s * ea + eb) + cost_here)


def cost_gradient(
    model: CostModel,
    config: AnsatzConfig,
    theta: np.ndarray,
    s: float,
    beta: float = DEFAULT_SHIFT,
) -> np.ndarray:
    """Exact gradient of C_s via the two-point shift rule.

    All 2 n_p shifted circuits are simulated as one batch.
    """
    _check_s(s)
    _check_beta(beta)
    theta = _check_theta(config, theta)
    terms = _terms_at(model, config, theta + _objective_offsets(config.n_params, beta)[1:])
    return _in_s(_shift_rule(terms, beta), s)


def cost_and_gradient(
    model: CostModel,
    config: AnsatzConfig,
    theta: np.ndarray,
    s: float,
    beta: float = DEFAULT_SHIFT,
) -> tuple[float, np.ndarray]:
    """(C_s(theta), its shift-rule gradient) from one batch of 2 n_p + 1 circuits."""
    _check_s(s)
    _check_beta(beta)
    theta = _check_theta(config, theta)
    terms = _terms_at(model, config, theta + _objective_offsets(config.n_params, beta))
    return float(_in_s(terms[0], s)), _in_s(_shift_rule(terms[1:], beta), s)


@dataclass(frozen=True, eq=False)
class HessianBundle:
    """Hessians of C_s and of the expansion terms, measured at one point.

    h_s is the parameter Hessian of the cost at (theta, s); k_a and k_b are
    the Hessians of <a_op> and <b_op>, which do not depend on s.
    """

    h_s: np.ndarray
    k_a: np.ndarray
    k_b: np.ndarray
    s: float

    @property
    def n_params(self) -> int:
        return self.h_s.shape[0]

    @property
    def circuit_evals(self) -> int:
        """Circuits measured for the bundle, one per point: 2 n_p^2 + 1."""
        return 2 * self.n_params ** 2 + 1


def hessian_bundle(
    model: CostModel,
    config: AnsatzConfig,
    theta: np.ndarray,
    s: float,
    beta: float = DEFAULT_SHIFT,
) -> HessianBundle:
    """Measure H_s and the component Hessians in one pass.

    Shifted circuit evaluations are shared across the three operators, so
    the full bundle costs 2 n_p^2 + 1 state preparations, simulated
    as one batch. Diagonal Hessian entries use theta +- 2 beta e_i together
    with the unshifted point; off-diagonal entries use the four
    double-shifted points and are filled symmetrically.
    """
    _check_s(s)
    _check_beta(beta)
    theta = _check_theta(config, theta)
    n_p = config.n_params
    denom = 2.0 * math.sin(beta)
    denom2 = denom * denom
    iu, ju = np.triu_indices(n_p, k=1)
    terms = _terms_at(model, config, theta + _hessian_offsets(n_p, beta))
    sizes = [1, n_p, n_p] + [len(iu)] * 3
    center, plus2, minus2, pp, pm, mp, mm = np.split(terms, np.cumsum(sizes))
    hess3 = np.empty((3, n_p, n_p))
    diag = np.arange(n_p)
    hess3[:, diag, diag] = ((plus2 - 2.0 * center + minus2) / denom2).T
    val = ((pp - pm - mp + mm) / denom2).T
    hess3[:, iu, ju] = val
    hess3[:, ju, iu] = val
    k_a, k_b, h_c = hess3
    h_s = s * s * k_a + s * k_b + h_c
    return HessianBundle(h_s=h_s, k_a=k_a, k_b=k_b, s=s)


def hessian_extrapolate(bundle: HessianBundle, delta_s: float) -> np.ndarray:
    """Parameter Hessian of C_{s+delta_s} at the bundle's theta, exactly.

    H[C_{s+ds}] = ds^2 K_a + ds (2 s K_a + K_b) + H_s holds for any ds
    because the cost is quadratic in s with theta-independent coefficients.
    """
    ds = float(delta_s)
    return ds * ds * bundle.k_a + ds * (2.0 * bundle.s * bundle.k_a + bundle.k_b) + bundle.h_s


def _check_beta(beta: float) -> None:
    if abs(math.sin(beta)) < 1e-6:
        raise ValueError(f"shift angle beta={beta} has sin(beta) too close to 0")


def _check_theta(config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (config.n_params,):
        raise ValueError(
            f"expected {config.n_params} parameters, got shape {theta.shape}"
        )
    return theta


def _check_dims(model: CostModel, config: AnsatzConfig) -> None:
    if model.dim != config.dim:
        raise ValueError(
            f"model dimension {model.dim} does not match ansatz dimension {config.dim}"
        )
