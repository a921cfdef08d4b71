"""Real-valued statevector simulation of the layered Ry/CNOT ansatz.

Every gate used here (Ry rotations and CNOTs) has real matrix elements, so
states are plain float64 vectors of length 2**n. Qubit 0 is the most
significant bit of the basis index, matching the Kronecker-product
convention used for the problem matrices. A batch of parameter vectors is
simulated in one pass: each gate updates every state of the batch at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["AnsatzConfig", "apply_ansatz"]


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the circuit: an initial Ry column plus d entangling layers.

    Each layer applies the CNOT ring first and a fresh Ry column after it,
    so the parameter count is n * (d + 1).
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if self.d < 0:
            raise ValueError(f"layer count must be >= 0, got {self.d}")

    @property
    def n_params(self) -> int:
        return self.n * (self.d + 1)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def ring(self) -> tuple[tuple[int, int], ...]:
        """CNOT pairs (control i, target (i+1) mod n), applied in index order.

        One qubit has no entangler and two qubits degenerate to a single CNOT.
        """
        if self.n == 1:
            return ()
        if self.n == 2:
            return ((0, 1),)
        return tuple((i, (i + 1) % self.n) for i in range(self.n))


@functools.lru_cache(maxsize=None)
def _ring_permutation(config: AnsatzConfig) -> np.ndarray:
    """Basis-index gather that applies the whole CNOT ring: psi[perm].

    A CNOT maps basis index i to i with the target bit flipped when the
    control bit is set, and is its own inverse. Gathering through the ring
    c_1 ... c_k therefore reads old[c_1(c_2(...c_k(i)))], so the index map
    is composed from the last CNOT to the first.
    """
    n = config.n
    perm = np.arange(config.dim)
    for control, target in reversed(config.ring):
        control_bit = (perm >> (n - 1 - control)) & 1
        perm = perm ^ (control_bit << (n - 1 - target))
    perm.flags.writeable = False
    return perm


def _apply_ry_column(psi: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Rotate qubit q of state column b by Ry with (cos, sin)[q, b], in place.

    psi holds one state per column, shape (2**n, B), so each rotation is one
    strided pair update of the whole batch with the batch axis innermost.
    """
    n, batch = cos.shape
    for q in range(n):
        view = psi.reshape(2 ** q, 2, -1, batch)
        c = cos[q]
        s = sin[q]
        top = view[:, 0].copy()
        bot = view[:, 1]
        view[:, 0] = c * top - s * bot
        view[:, 1] = s * top + c * bot


def apply_ansatz(config: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Return U(theta)|0...0> as a real unit vector of length 2**n.

    theta is consumed in column order: entries [0, n) feed the initial Ry
    column, entries [k*n, (k+1)*n) feed the Ry column of layer k, and within
    a layer the CNOT ring acts before the rotations. A (B, n_params) batch
    of parameter vectors gives the (B, 2**n) batch of states, row by row.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1:] != (config.n_params,):
        raise ValueError(
            f"expected {config.n_params} parameters, got shape {theta.shape}"
        )
    n = config.n
    half = np.ascontiguousarray(0.5 * theta.reshape(-1, config.n_params).T)
    batch = half.shape[1]
    cos = np.cos(half)
    sin = np.sin(half)
    # The initial column acts on |0...0>, so it prepares the product state
    # of (cos, sin) pairs, qubit 0 as the most significant bit.
    psi = np.ones((1, batch))
    for q in range(n):
        pairs = np.empty((len(psi), 2, batch))
        np.multiply(psi, cos[q], out=pairs[:, 0])
        np.multiply(psi, sin[q], out=pairs[:, 1])
        psi = pairs.reshape(-1, batch)
    for layer in range(1, config.d + 1):
        psi = psi[_ring_permutation(config)]
        block = slice(layer * n, (layer + 1) * n)
        _apply_ry_column(psi, cos[block], sin[block])
    return psi.T if theta.ndim == 2 else psi[:, 0]

