import numpy as np
import pytest

from avqls import (
    AnsatzConfig,
    ConductivityProfile,
    SingularMatrixError,
    SolverConfig,
    SourceSpec,
    build_source,
    discretize_heat,
    evaluate_run,
    heat_system,
    householder,
    prepare,
    recover_solution,
    sample_conductivity,
    solve_adiabatic,
)
from avqls.cost import assemble_hamiltonian, build_cost_model

from conftest import random_system_matrix


def stencil_oracle(lam: np.ndarray, dz: float) -> np.ndarray:
    """Entry-by-entry rebuild of the conduction operator from its stencil.

    The off-diagonal couplings carry the first-derivative correction
    (lambda_{i+1} - lambda_{i-1}) / 4 with the profile continued past the
    ends by its edge values.
    """
    n = lam.size
    ext = np.empty(n + 2)
    ext[1:-1] = lam
    ext[0] = lam[0]
    ext[-1] = lam[-1]
    mat = np.zeros((n, n))
    for i in range(n):
        li = ext[i + 1]
        corr = (ext[i + 2] - ext[i]) / 4.0
        mat[i, i] = -2.0 * li / dz**2
        if i > 0:
            mat[i, i - 1] = (li + corr) / dz**2
        if i < n - 1:
            mat[i, i + 1] = (li - corr) / dz**2
    return mat


def test_constant_profile_n2_matrix():
    prof = ConductivityProfile(kind="constant")
    mat, lam = discretize_heat(prof, 2)
    assert np.array_equal(lam, np.ones(4))
    # dz = 1/4: diagonal -2/dz^2 = -32, neighbors 1/dz^2 = +16
    assert np.allclose(np.diag(mat), -32.0)
    assert np.allclose(np.diag(mat, 1), 16.0)
    assert np.allclose(np.diag(mat, -1), 16.0)
    assert np.count_nonzero(mat - np.triu(np.tril(mat, 1), -1)) == 0


def test_constant_profile_spectrum():
    prof = ConductivityProfile(kind="constant")
    for n in (1, 2, 3, 4):
        mat, _ = discretize_heat(prof, n)
        n_sites = 2 ** n
        dz = 1.0 / n_sites
        eigs = np.sort(np.linalg.eigvalsh(-(dz * dz) * mat))
        k = np.arange(1, n_sites + 1)
        expected = np.sort(4.0 * np.sin(np.pi * k / (2.0 * (n_sites + 1))) ** 2)
        assert np.allclose(eigs, expected, atol=1e-9)


def test_linear_profile_matches_stencil_oracle():
    prof = ConductivityProfile(kind="linear", slope=2.0)
    for n in (1, 2, 3):
        mat, lam = discretize_heat(prof, n)
        n_sites = 2 ** n
        dz = 1.0 / n_sites
        z = np.arange(1, n_sites + 1) * dz
        assert np.allclose(lam, 2.0 * z)
        assert np.allclose(mat, stencil_oracle(lam, dz), atol=1e-9)


def test_noisy_profile_matches_stencil_oracle():
    prof = ConductivityProfile(kind="noisy_constant", sigma=0.2, seed=4)
    mat, lam = discretize_heat(prof, 3)
    assert np.allclose(mat, stencil_oracle(lam, 1.0 / 8.0), atol=1e-9)


def test_conductivity_reproducible_by_seed():
    prof = ConductivityProfile(kind="noisy_constant", sigma=0.2, seed=7)
    a = sample_conductivity(prof, 16)
    b = sample_conductivity(prof, 16)
    assert np.array_equal(a, b)
    other = sample_conductivity(
        ConductivityProfile(kind="noisy_constant", sigma=0.2, seed=8), 16
    )
    assert not np.array_equal(a, other)


def test_conductivity_stays_positive():
    # a huge sigma forces redraws; every site must stay above the floor
    prof = ConductivityProfile(kind="noisy_constant", sigma=5.0, seed=0)
    lam = sample_conductivity(prof, 64)
    assert np.all(lam > 0.01 * 1.0 - 1e-15)


def test_profile_validation():
    with pytest.raises(ValueError, match="sigma"):
        ConductivityProfile(kind="noisy_constant")
    with pytest.raises(ValueError, match="kind"):
        ConductivityProfile(kind="quadratic")
    with pytest.raises(ValueError, match="lambda0"):
        ConductivityProfile(kind="constant", lambda0=0.0)


def test_point_source():
    b = build_source(SourceSpec(kind="point", q0=3.0), 2)
    assert np.array_equal(b, [3.0, 0.0, 0.0, 0.0])


def test_exponential_source():
    b = build_source(SourceSpec(kind="exponential", l=0.0), 2)
    assert np.allclose(b, np.ones(4))
    b2 = build_source(SourceSpec(kind="exponential", l=2.0), 2)
    j = np.arange(1, 5)
    assert np.allclose(b2, np.exp(-2.0 * j / 4.0))


def test_source_validation():
    with pytest.raises(ValueError):
        SourceSpec(kind="point", q0=0.0)
    with pytest.raises(ValueError):
        SourceSpec(kind="exponential", l=-1.0)
    with pytest.raises(ValueError):
        SourceSpec(kind="gaussian")


def test_householder_identity_for_e1():
    assert np.array_equal(householder(np.array([1.0, 0.0, 0.0, 0.0])), np.eye(4))
    assert np.array_equal(householder(np.array([2.5, 0.0])), np.eye(2))


def test_householder_two_dim_example():
    s = householder(np.array([1.0, 1.0]))
    rotated = s @ (np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(rotated, [1.0, 0.0], atol=1e-14)


def test_householder_algebra():
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = rng.normal(size=16)
        s = householder(b)
        assert np.allclose(s, s.T, atol=1e-12)
        assert np.allclose(s @ s, np.eye(16), atol=1e-12)
        assert np.allclose(s @ (b / np.linalg.norm(b)), np.eye(16)[0], atol=1e-12)


def test_householder_rejects_zero():
    with pytest.raises(ValueError):
        householder(np.zeros(4))


def test_prepare_heat_system():
    prof = ConductivityProfile(kind="constant")
    a, b, _ = heat_system(prof, SourceSpec(kind="point"), 2)
    system = prepare(a, b)
    assert system.sign_flipped is True
    assert system.embedded is False
    assert system.n_qubits == 2
    assert abs(np.linalg.norm(system.matrix, 2) - 1.0) < 1e-12
    # the point source needs no rotation at all
    assert np.array_equal(system.householder, np.eye(4))
    # working solution maps back to the classical one up to direction
    x_work = np.linalg.solve(system.matrix, np.eye(4)[0])
    recovered = recover_solution(system, x_work / np.linalg.norm(x_work))
    exact = np.linalg.solve(a, b)
    exact = exact / np.linalg.norm(exact)
    overlap = abs(float(recovered @ exact))
    assert abs(overlap - 1.0) < 1e-12


def test_prepare_rotates_general_rhs():
    prof = ConductivityProfile(kind="constant")
    a, b, _ = heat_system(prof, SourceSpec(kind="exponential", l=2.0), 2)
    system = prepare(a, b)
    # the reflection carries the unit rhs onto e1 exactly
    assert np.allclose(system.householder @ (b / np.linalg.norm(b)), np.eye(4)[0], atol=1e-12)
    # conjugation preserves the condition number
    assert abs(system.kappa - np.linalg.cond(a)) / np.linalg.cond(a) < 1e-10


def test_prepare_embeds_indefinite_systems():
    a = np.diag([1.0, -1.0, 2.0, -0.5])
    b = np.array([1.0, 0.5, 0.25, 0.125])
    system = prepare(a, b)
    assert system.embedded is True
    assert system.n_qubits == 3
    assert system.dim == 8
    assert system.sign_flipped is False
    # the pencil stays comfortably nonsingular across the sweep
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        pencil = (1.0 - s) * np.eye(8) + s * system.matrix
        sv = np.linalg.svd(pencil, compute_uv=False)
        assert sv[-1] > 1e-3


def test_embedding_matches_block_construction():
    """The embedded cost Hamiltonian equals the one built from the
    two-block pencil [[(1-s) I, s A], [-s A, (1-s) I]]-style construction
    before the final rotation, for every s."""
    a = np.diag([1.0, -2.0])
    b = np.array([1.0, 1.0])
    system = prepare(a, b)
    assert system.embedded
    model = build_cost_model(system)

    s1 = system.householder
    rotated = s1 @ a @ s1.T
    w = np.block([
        [np.zeros((2, 2)), rotated],
        [-rotated, np.zeros((2, 2))],
    ])
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rhs = np.kron(minus, np.eye(2)[0])
    proj = np.eye(4) - np.outer(rhs, rhs)
    scale = system.matrix_scale
    s2 = system.householder_emb
    for s in (0.0, 0.3, 0.7, 1.0):
        pencil = (1.0 - s) * np.eye(4) + (s / scale) * w
        direct = pencil.T @ proj @ pencil
        packaged = s2.T @ assemble_hamiltonian(model, s) @ s2
        # same Hamiltonian up to the basis change and the uniform rescale
        assert np.allclose(packaged, direct, atol=1e-10)


def test_recover_solution_embedded_round_trip():
    a = np.diag([1.0, -2.0, 0.5, -0.25])
    b = np.array([0.2, 0.4, 0.6, 0.8])
    system = prepare(a, b)
    assert system.embedded
    x = np.linalg.solve(a, b)
    x_hat = x / np.linalg.norm(x)
    # the working ground state at s = 1 is the embedded, rotated solution
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    s1 = system.householder
    state = system.householder_emb @ np.kron(plus, s1 @ x_hat)
    recovered = recover_solution(system, state / np.linalg.norm(state))
    assert abs(abs(float(recovered @ x_hat)) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_indefinite_system_solves_end_to_end(seed):
    # the ancilla embedding through the whole solver: prepare, the Hessian
    # path and evaluation in the original basis
    rng = np.random.default_rng(seed)
    a = random_system_matrix(rng, 4, "indef")
    b = rng.normal(size=4)
    system = prepare(a, b)
    assert system.embedded is True
    assert system.n_qubits == 3
    ansatz = AnsatzConfig(n=system.n_qubits, d=2)
    trace = solve_adiabatic(system, ansatz, SolverConfig(T=20, schedule="hessian"))
    report = evaluate_run(system, ansatz, trace.theta_star)
    assert trace.steps[-1].s == 1.0
    assert np.isfinite(trace.final_cost)
    assert report.infidelity < 1e-10
    assert report.accuracy > 1.0 - 1e-10


def test_prepare_validation():
    with pytest.raises(SingularMatrixError):
        prepare(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="power of two"):
        prepare(np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match="nonzero"):
        prepare(np.eye(2), np.zeros(2))


def test_recover_solution_plain_round_trip():
    rng = np.random.default_rng(19)
    a = np.diag([2.0, 1.0, 0.5, 0.25]) + 0.05 * rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    system = prepare(a, b)
    if system.embedded:
        pytest.skip("random perturbation flipped an eigenvalue sign")
    x_work = np.linalg.solve(system.matrix, np.eye(4)[0])
    recovered = recover_solution(system, x_work / np.linalg.norm(x_work))
    exact = np.linalg.solve(a, b)
    exact /= np.linalg.norm(exact)
    assert abs(abs(float(recovered @ exact)) - 1.0) < 1e-12
