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
without further circuit evaluations. Gradients with respect to the circuit
parameters use the two-point shift rule with the shift fixed at pi/2, exact
for Ry generators. Hessians are exact bilinear forms of the derivative
states psi(theta + pi e_i) and psi(theta + pi e_i + pi e_j).

Each stop binds its L-BFGS objective once (bind_objective). Every block
of points is theta plus a cached read-only table, simulated in one call
through one path (_block_states). The objective's block, theta and
theta +- pi/2 e_i, gives the cost and its gradient; cost_gradient reads the
same points. A Hessian bundle's block, the points of psi(theta) and of its
derivative states (1 + n_p + n_p (n_p - 1) / 2, 121 at n=5, d=2), gives the
Hessians of all three operators from their bilinear forms.

At theta = +0.0 the circuit prepares e1, and each of those states is a
signed basis vector. A circuit shape thus has two blocks of start states,
the objective's and the bundle's. The process simulates each once and
keeps them (_start_states), which changes no count and no trace: what a
run charges is the device's circuit count (controller.solve_adiabatic),
not the states simulated here.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzConfig, apply_ansatz
from .schedule import check_s

__all__ = [
    "CostModel",
    "HessianBundle",
    "build_cost_model",
    "assemble_hamiltonian",
    "cost",
    "bind_objective",
    "cost_gradient",
    "hessian_bundle",
    "hessian_extrapolate",
]

@dataclass(frozen=True, eq=False)
class CostModel:
    """D = M - I of the prepared matrix M, which fixes the s-expansion."""

    d_op: np.ndarray


def build_cost_model(source) -> CostModel:
    """Build the cost model of a prepared system or a raw matrix.

    `source` is either an object with a `.matrix` attribute (a prepared
    system, whose right-hand side is e1 by construction) or a square matrix
    for which the right-hand side is taken to be e1.
    """
    matrix = np.asarray(getattr(source, "matrix", source), dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    return CostModel(d_op=matrix - np.eye(len(matrix)))


def assemble_hamiltonian(model: CostModel, s: float) -> np.ndarray:
    """Dense H(s) = A(s)^T P A(s) with A(s) = I + s D."""
    check_s(s)
    pencil = np.eye(len(model.d_op)) + s * model.d_op
    projected = pencil.copy()
    projected[0] = 0.0
    return pencil.T @ projected


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


def _projected(model: CostModel, states: np.ndarray) -> np.ndarray:
    """(2, B, dim) rows P x and P D x of a (B, dim) batch of states x."""
    pair = np.stack([states, states @ model.d_op.T])
    pair[:, :, 0] = 0.0
    return pair


def _forms(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(3, B, B') forms x^T O z of (a_op, b_op, c_op) from _projected rows (q, r).

    P = P^T P makes them r.r', r.q' + q.r' and q.q'.
    """
    g = left[:, None] @ right.swapaxes(1, 2)[None]  # g[k, l] = left[k] right[l]^T
    return np.stack([g[1, 1], g[1, 0] + g[0, 1], g[0, 0]])


def _in_s(terms: np.ndarray, s: float) -> np.ndarray:
    """Combine expansion terms (last axis a, b, c) into C_s = s^2 a + s b + c."""
    return s * s * terms[..., 0] + s * terms[..., 1] + terms[..., 2]


@functools.lru_cache(maxsize=None)
def _objective_offsets(n_p: int) -> np.ndarray:
    """Offsets of the 2 n_p + 1 objective points from theta, read-only.

    Row 0 is the centre; rows 1..2 n_p are the shift-rule points
    theta + pi/2 e_i, then theta - pi/2 e_i. Adding -0.0 leaves every theta
    unchanged, sign of zero included, and adding -pi/2 equals subtracting
    pi/2, so theta + table is bitwise the explicit points.
    """
    shifts = (np.pi / 2) * np.eye(n_p)
    table = np.concatenate([np.full((1, n_p), -0.0), shifts, -shifts])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _bundle_offsets(n_p: int) -> np.ndarray:
    """Offsets of a bundle's points theta, theta + pi e_i, theta + pi (e_i + e_j), read-only.

    The pairs i < j follow in np.triu_indices order. An unshifted entry is
    -0.0, so theta + table leaves it bitwise theta.
    """
    eye = np.eye(n_p, dtype=bool)
    iu, ju = np.triu_indices(n_p, k=1)
    shifted = np.vstack([np.zeros_like(eye[:1]), eye, eye[iu] | eye[ju]])
    table = np.where(shifted, np.pi, -0.0)
    table.flags.writeable = False
    return table


def _shift_rule(terms: np.ndarray) -> np.ndarray:
    """Per-parameter derivatives from the terms at theta +- pi/2 e_i.

    The denominator 2 sin(pi/2) is exactly 2.
    """
    n_p = len(terms) // 2
    return (terms[:n_p] - terms[n_p:]) / 2.0


def cost(model: CostModel, config: AnsatzConfig, theta: np.ndarray, s: float) -> float:
    """C_s(theta) = <theta| H(s) |theta>."""
    check_s(s)
    point = _check_inputs(model, config, theta)[None]
    return float(_in_s(_terms_of_states(model, apply_ansatz(config, point))[0], s))


def bind_objective(
    model: CostModel, config: AnsatzConfig, theta: np.ndarray, s: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """A stop's L-BFGS objective: theta -> (C_s(theta), its pi/2 shift-rule gradient).

    s, the dimensions and the shape of theta are checked here, once; each
    call reads one batch of 2 n_p + 1 circuits at a float theta of that shape.
    """
    check_s(s)
    _check_inputs(model, config, theta)
    s2 = s * s

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        terms = _terms_of_states(model, _block_states(config, theta, _objective_offsets))
        a, b, c = terms[0].tolist()
        return float(s2 * a + s * b + c), _in_s(_shift_rule(terms[1:]), s)

    return objective


def cost_gradient(
    model: CostModel, config: AnsatzConfig, theta: np.ndarray, s: float
) -> np.ndarray:
    """Exact gradient of C_s: the L-BFGS objective's gradient, from its 2 n_p + 1 points."""
    theta = np.asarray(theta, dtype=float)
    return bind_objective(model, config, theta, s)(theta)[1]


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
        """Device circuits of the bundle: 1 + n_p + 3 n_p (n_p - 1) / 2.

        C at theta and at each theta + pi e_i, then three per pair i < j
        along e_i + e_j; verify.hessian_rule_defect states and checks the rule.
        """
        n_p = self.n_params
        return 1 + n_p + 3 * (n_p * (n_p - 1) // 2)


def hessian_bundle(
    model: CostModel, config: AnsatzConfig, theta: np.ndarray, s: float
) -> HessianBundle:
    """Measure H_s and the component Hessians in one pass, exactly.

    With psi = psi(theta), chi_i = psi(theta + pi e_i) and
    chi_ij = psi(theta + pi e_i + pi e_j), each operator O gives
    H_ii = (chi_i^T O chi_i - psi^T O psi) / 2 and
    H_ij = (chi_i^T O chi_j + chi_ij^T O psi) / 2. All of them are simulated
    as one block (_bundle_offsets), projected once and reduced to the
    forms of psi with the chi_i among themselves and of the chi_ij with psi.
    The forms equal the pi/2 shift rule's second differences, without
    simulating its 2 n_p^2 + 1 points. At theta = 0 the block is simulated
    once per circuit shape and process.
    """
    check_s(s)
    theta = _check_inputs(model, config, theta)
    n_p = config.n_params
    iu, ju = np.triu_indices(n_p, k=1)
    rows = _projected(model, _block_states(config, theta, _bundle_offsets))
    first = rows[:, :n_p + 1]
    gram = _forms(first, first)
    hess3 = 0.5 * gram[:, 1:, 1:]
    diag = np.arange(n_p)
    hess3[:, diag, diag] -= 0.5 * gram[:, :1, 0]
    hess3[:, iu, ju] += 0.5 * _forms(rows[:, n_p + 1:], rows[:, :1])[..., 0]
    hess3[:, ju, iu] = hess3[:, iu, ju]
    k_a, k_b, h_c = hess3
    h_s = s * s * k_a + s * k_b + h_c
    return HessianBundle(h_s=h_s, k_a=k_a, k_b=k_b, s=s)


def _block_states(config: AnsatzConfig, theta: np.ndarray, offsets) -> np.ndarray:
    """States at theta + offsets(n_p), one block in one call; `offsets` builds a table.

    Read from _start_states at theta = +0.0. A -0.0 entry is simulated:
    sin(-0/2) = -0.0 gives other sign bits.
    """
    if theta.any() or np.signbit(theta).any():
        return apply_ansatz(config, theta + offsets(len(theta)))
    return _start_states(config, offsets)


@functools.lru_cache(maxsize=16)
def _start_states(config: AnsatzConfig, offsets) -> np.ndarray:
    """Read-only states at the points +0.0 + offsets(n_p): the objective's and the bundle's.

    A shape has these two start blocks, so the cache holds those of 8 shapes.
    """
    states = apply_ansatz(config, np.zeros(config.n_params) + offsets(config.n_params))
    states.flags.writeable = False
    return states


def hessian_extrapolate(bundle: HessianBundle, delta_s: float) -> np.ndarray:
    """Parameter Hessian of C_{s+delta_s} at the bundle's theta, exactly.

    H[C_{s+ds}] = ds^2 K_a + ds (2 s K_a + K_b) + H_s holds for any ds
    because the cost is quadratic in s with theta-independent coefficients.
    """
    ds = float(delta_s)
    return ds * ds * bundle.k_a + ds * (2.0 * bundle.s * bundle.k_a + bundle.k_b) + bundle.h_s


def _check_inputs(model: CostModel, config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (config.n_params,):
        raise ValueError(
            f"expected {config.n_params} parameters, got shape {theta.shape}"
        )
    if len(model.d_op) != config.dim:
        raise ValueError(
            f"model dimension {len(model.d_op)} does not match ansatz dimension {config.dim}"
        )
    return theta
