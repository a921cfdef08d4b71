"""Steady-state heat-flow problem generation and system preparation.

The physical model is one-dimensional heat conduction on (0, L) with
Dirichlet boundaries, a space-dependent conductivity profile and a source
term, all read from a `ProblemConfig`. Discretizing on N = 2**n interior
sites gives a tridiagonal system A x = b. Preparation turns an arbitrary
invertible system into the working form used by the variational solver:
right-hand side exactly e1, matrix normalized to unit spectral norm, and,
when the spectrum is not strictly positive, an ancilla embedding that makes
the homotopy pencil nonsingular for every s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # loaded here, not in a forked worker's first cell

from .config import ProblemConfig
from .errors import SingularMatrixError
from .schedule import condition_number

__all__ = [
    "LENGTH",
    "PreparedSystem",
    "sample_conductivity",
    "discretize_heat",
    "build_source",
    "householder",
    "heat_system",
    "prepare",
    "recover_solution",
]

LENGTH = 1.0

# Gaussian perturbations are redrawn until every site stays above this
# fraction of the mean noiseless conductivity, keeping the profile physical.
_FLOOR_FRACTION = 0.01
_RESAMPLE_BUDGET = 100


def sample_conductivity(problem: ProblemConfig, n_sites: int, seed: int = 0) -> np.ndarray:
    """Conductivity values at the interior sites z_i = i * dz, i = 1..N.

    The noiseless profile is 1 for the constant kinds and 2 z / L for the
    linear ones; scaling it by c would, once `prepare` normalizes A, only
    act as sigma / c. Noisy kinds perturb each site by N(0, sigma^2) drawn
    from `seed`.
    """
    if n_sites < 1:
        raise ValueError(f"site count must be >= 1, got {n_sites}")
    dz = LENGTH / n_sites
    z = np.arange(1, n_sites + 1) * dz
    if problem.conductivity in ("constant", "noisy_constant"):
        base = np.full(n_sites, 1.0)
    else:
        base = 2.0 * z / LENGTH
    if problem.conductivity in ("constant", "linear"):
        return base
    sigma = problem.resolved_sigma()
    rng = default_rng(seed)
    lam = base + rng.normal(0.0, sigma, n_sites)
    floor = _FLOOR_FRACTION * float(base.mean())
    for _ in range(_RESAMPLE_BUDGET):
        mask = lam <= floor
        if not mask.any():
            return lam
        lam[mask] = base[mask] + rng.normal(0.0, sigma, int(mask.sum()))
    raise RuntimeError(
        f"could not keep conductivity above {floor} after {_RESAMPLE_BUDGET} redraws"
    )


def discretize_heat(
    problem: ProblemConfig, n_qubits: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal operator of d/dz(lambda(z) d/dz) on N = 2**n_qubits sites.

    Row i carries -2 lambda_i / dz^2 on the diagonal and
    (lambda_i +- (lambda_{i+1} - lambda_{i-1}) / 4) / dz^2 off it. The
    profile is extended past the boundary by its edge values so constant
    conductivity keeps the exact textbook spectrum.
    """
    if n_qubits < 1:
        raise ValueError(f"qubit count must be >= 1, got {n_qubits}")
    n_sites = 2 ** n_qubits
    lam = sample_conductivity(problem, n_sites, seed)
    dz = LENGTH / n_sites
    inv = 1.0 / (dz * dz)
    ext = np.concatenate([[lam[0]], lam, [lam[-1]]])
    diff = (ext[2:] - ext[:-2]) / 4.0
    matrix = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites)
    matrix[idx, idx] = -2.0 * lam * inv
    matrix[idx[1:], idx[:-1]] = (lam[1:] + diff[1:]) * inv
    matrix[idx[:-1], idx[1:]] = (lam[:-1] - diff[:-1]) * inv
    return matrix, lam


def build_source(problem: ProblemConfig, n_qubits: int) -> np.ndarray:
    """Source vector on the grid: e1 or exp(-l * j * dz / L); `prepare` normalizes it."""
    if n_qubits < 1:
        raise ValueError(f"qubit count must be >= 1, got {n_qubits}")
    n_sites = 2 ** n_qubits
    if problem.source == "point":
        b = np.zeros(n_sites)
        b[0] = 1.0
        return b
    j = np.arange(1, n_sites + 1)
    dz = LENGTH / n_sites
    return np.exp(-problem.l * j * dz / LENGTH)


def heat_system(
    problem: ProblemConfig, n_qubits: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Assembled (A, b) for one problem instance; `seed` draws the noisy conductivity."""
    matrix, _ = discretize_heat(problem, n_qubits, seed)
    return matrix, build_source(problem, n_qubits)


def householder(b: np.ndarray) -> np.ndarray:
    """Reflection S with S @ (b / |b|) = e1; identity when b is already e1.

    Uses v = b/|b| - e1 and S = I - 2 v v^T / (v.v), which is symmetric,
    orthogonal and involutory.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"right-hand side must be a vector, got shape {b.shape}")
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ValueError("right-hand side must be nonzero")
    v = b / norm
    v = v.copy()
    v[0] -= 1.0
    vn2 = float(v @ v)
    if vn2 < 1e-24:
        return np.eye(b.size)
    return np.eye(b.size) - (2.0 / vn2) * np.outer(v, v)


@dataclass(frozen=True, eq=False)
class PreparedSystem:
    """Working form of a linear system for the variational solver.

    `matrix` has unit spectral norm and the working right-hand side is
    exactly e1. For embedded systems the matrix acts on n_qubits + 1 wires
    (one ancilla) and its spectrum is purely imaginary, which keeps the
    pencil (1-s) I + s M nonsingular on the whole sweep.
    """

    matrix: np.ndarray
    n_qubits: int
    embedded: bool
    kappa: float
    sign_flipped: bool
    matrix_scale: float
    householder: np.ndarray
    householder_emb: np.ndarray | None
    a_matrix: np.ndarray
    b_vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def prepare(a: np.ndarray, b: np.ndarray) -> PreparedSystem:
    """Rotate, normalize and (if needed) embed a system into working form.

    Steps: flip the sign of A when every eigenvalue has negative real part
    (the cost projector is even in b, so b keeps its sign and the recovered
    solution direction absorbs the flip); rotate b to e1 with a Householder
    reflection; when the spectrum is not strictly in the right half plane,
    embed the rotated matrix as [[0, M], [-M, 0]] with the matching
    right-hand side rotated to e1 by a second reflection; finally rescale
    to unit spectral norm.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n_sites = a.shape[0]
    if b.shape != (n_sites,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    n_qubits = int(round(np.log2(n_sites)))
    if 2 ** n_qubits != n_sites:
        raise ValueError(f"dimension {n_sites} is not a power of two")
    if np.linalg.norm(b) == 0.0:
        raise ValueError("right-hand side must be nonzero")

    eigs = np.linalg.eigvals(a)
    mags = np.abs(eigs)
    if mags.min() <= 1e-14 * mags.max():
        raise SingularMatrixError("matrix is singular to working precision")
    tol = 1e-12 * mags.max()

    a_orig = a.copy()
    b_orig = b.copy()
    sign_flipped = False
    work_a = a
    if np.all(eigs.real < -tol):
        work_a = -a
        eigs = -eigs
        sign_flipped = True

    s1 = householder(b)
    rotated = s1 @ work_a @ s1.T

    if np.all(eigs.real > tol):
        working = rotated
        s2 = None
        embedded = False
        wires = n_qubits
    else:
        # (1-s) sz(x)I + s sx(x)M equals (sz(x)I) [(1-s) I + s W] with
        # W = [[0, M], [-M, 0]]; the orthogonal prefactor drops out of the
        # cost operator, so the embedded problem is again a plain pencil
        # with right-hand side |-> (x) e1, rotated to e1 below.
        zero = np.zeros_like(rotated)
        w = np.block([[zero, rotated], [-rotated, zero]])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        e1 = np.zeros(n_sites)
        e1[0] = 1.0
        s2 = householder(np.kron(minus, e1))
        working = s2 @ w @ s2.T
        embedded = True
        wires = n_qubits + 1

    scale = float(np.linalg.norm(working, 2))
    working = working / scale
    kappa = condition_number(working)
    return PreparedSystem(
        matrix=working,
        n_qubits=wires,
        embedded=embedded,
        kappa=kappa,
        sign_flipped=sign_flipped,
        matrix_scale=scale,
        householder=s1,
        householder_emb=s2,
        a_matrix=a_orig,
        b_vector=b_orig,
    )


def recover_solution(system: PreparedSystem, state: np.ndarray) -> np.ndarray:
    """Map a working-basis state back to a unit vector in the original basis.

    Embedded states are projected onto the |+> ancilla block before the
    reflections are undone; the discarded block is the part the embedding
    uses only to keep the pencil invertible.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (system.dim,):
        raise ValueError(
            f"state shape {state.shape} does not match system dimension {system.dim}"
        )
    if system.embedded:
        y = system.householder_emb.T @ state
        half = system.dim // 2
        vec = (y[:half] + y[half:]) / np.sqrt(2.0)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError("state has no weight in the solution block")
        vec = vec / norm
    else:
        vec = state
    out = system.householder.T @ vec
    return out / np.linalg.norm(out)
