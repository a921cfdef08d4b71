"""Real-valued statevector simulation of the layered Ry/CNOT ansatz.

Every gate used here (Ry rotations and CNOTs) has real matrix elements, so
states are plain float64 vectors of length 2**n. Qubit 0 is the most
significant bit of the basis index, matching the Kronecker-product
convention used for the problem matrices. A batch of parameter vectors is
simulated in one pass: each gate updates every state of the batch at once.

The kernel holds the batch as a (2**n, B) array, batch axis innermost. The
initial Ry column acts on |0...0>, so it is the product state of its
(cos, sin) pairs. Every later Ry is three numpy calls on the whole batch,
and each CNOT ring is one precomputed gather of basis indices (np.take).
The layers write with out= into a workspace of two state buffers and one
product buffer, whose per-gate views are built once per circuit shape,
batch size and thread. The process keeps the 8 latest workspaces of up to
2**15 amplitudes per buffer; a larger batch builds its own. Each result is
copied out, so no later call overwrites it. The states are bit-identical
to a gate-by-gate loop, except for the sign of a zero amplitude, which the
product can set differently when an initial angle is exactly +-0.
"""

from __future__ import annotations

import functools
import threading
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
    half = 0.5 * theta.reshape(-1, config.n_params).T
    batch = half.shape[1]
    # cs[k] = (cos, sin) of half angle k, one entry per batch column
    cs = np.empty((config.n_params, 2, batch))
    np.cos(half, out=cs[:, 0])
    np.sin(half, out=cs[:, 1])
    # The initial column acts on |0...0>, so it prepares the product state
    # of (cos, sin) pairs, qubit 0 as the most significant bit.
    psi = cs[0]
    for q in range(1, n):
        psi = (psi[:, None] * cs[q]).reshape(2 ** (q + 1), batch)
    # Every later Ry maps the pair (top, bot) of its qubit to
    # c * (top, bot) + (bot, top) * (-s, s). Negation is exact and the sums
    # differ only in operand order, so this equals c*top - s*bot and
    # s*top + c*bot bitwise, in three numpy calls on the whole batch.
    cos = cs[n:, 0]
    signed = cs[n:, None, 1:] * np.array([-1.0, 1.0])[:, None, None]
    perm = _ring_permutation(config)
    workspace = _kept_workspace if batch * config.dim <= _KEPT_AMPLITUDES else _workspace
    buffers, rys = workspace(config, batch, threading.get_ident())
    w = 0  # the buffer the next gate writes
    for layer in range(config.d):
        np.take(psi, perm, axis=0, out=buffers[w], mode="clip")
        for k, (top, flipped, out, product) in enumerate(rys[w], layer * n):
            np.multiply(top, cos[k], out=out)
            np.multiply(flipped, signed[k], out=product)
            np.add(out, product, out=out)
        w ^= n & 1  # the buffer holding the layer's result
        psi, w = buffers[w], 1 - w
    psi = psi.copy()  # out of the workspace
    return psi.T if theta.ndim == 2 else psi[:, 0]


def _workspace(config: AnsatzConfig, batch: int, thread: int) -> tuple[np.ndarray, tuple]:
    """State buffers 0 and 1, product buffer 2 and each Ry's views; `thread` keys _kept_workspace.

    rys[w] is a layer's Rys on states in buffer w: qubit q's (2**q, 2, rest, batch)
    pairs as read, flipped, as written in the other state buffer, and in buffer 2.
    """
    buffers, rys = np.empty((3, config.dim, batch)), ([], [])
    for q in range(config.n):
        pairs = [b.reshape(2 ** q, 2, config.dim >> (q + 1), batch) for b in buffers]
        for w in (0, 1):
            read = pairs[(w + q) % 2]
            rys[w].append((read, read[:, ::-1], pairs[(w + q + 1) % 2], pairs[2]))
    return buffers, rys


# Each thread keeps its workspaces of up to _KEPT_AMPLITUDES amplitudes per
# buffer, so no two threads write one buffer; a larger batch builds its own.
_KEPT_AMPLITUDES = 2 ** 15
_kept_workspace = functools.lru_cache(maxsize=8)(_workspace)
