import numpy as np
import pytest
import scipy.linalg

from avqls import (
    ProblemConfig,
    SingularMatrixError,
    accuracy,
    classical_solve,
    heat_system,
    infidelity,
    solve_parametric,
)


def test_infidelity_known_angle():
    x = np.array([1.0, 0.0])
    y = np.array([np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)])
    assert abs(infidelity(x, y) - 0.75) < 1e-12
    assert infidelity(x, x) == 0.0
    # global sign is irrelevant
    assert abs(infidelity(x, -y) - 0.75) < 1e-12


def test_infidelity_requires_unit_vectors():
    with pytest.raises(ValueError, match="unit"):
        infidelity(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"^x_var must be a vector, got shape \(2, 2\)$"):
        infidelity(np.eye(2), np.array([1.0, 0.0]))


def test_infidelity_takes_vectors_within_1e_8_of_unit_norm():
    e1 = np.array([1.0, 0.0])
    assert infidelity(np.array([1.0 + 5e-9, 0.0]), e1) == 0.0
    with pytest.raises(ValueError, match="unit-normalized"):
        infidelity(np.array([1.0 + 5e-8, 0.0]), e1)


def test_accuracy_exact_solution_is_one():
    rng = np.random.default_rng(3)
    a = np.diag([3.0, 2.0, 1.0, 0.5]) + 0.1 * rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    x = np.linalg.solve(a, b)
    assert abs(accuracy(a, b, x) - 1.0) < 1e-12
    # scale invariance in x
    assert abs(accuracy(a, b, 7.3 * x) - 1.0) < 1e-12


def test_accuracy_orthogonal_image_is_zero():
    a = np.eye(2)
    b = np.array([1.0, 0.0])
    assert accuracy(a, b, np.array([0.0, 1.0])) < 1e-15


@pytest.mark.parametrize(
    "a, b, x_var, message",
    [
        (np.ones((2, 3)), np.ones(2), np.ones(2), r"matrix must be square, got shape \(2, 3\)"),
        (np.eye(2), np.ones(3), np.ones(2), "vector shapes do not match the matrix"),
        (np.eye(2), np.zeros(2), np.ones(2), "right-hand side must be nonzero"),
        (np.eye(2), np.ones(2), np.zeros(2), "A @ x_var is numerically zero"),
    ],
    ids=["non-square", "mismatched-rhs", "zero-rhs", "zero-image"],
)
def test_accuracy_refuses_inputs_it_cannot_score(a, b, x_var, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        accuracy(a, b, x_var)


def test_classical_solve_normalizes():
    a = np.diag([2.0, 4.0])
    b = np.array([2.0, 4.0])
    x = classical_solve(a, b)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    assert np.allclose(x, np.ones(2) / np.sqrt(2.0))


def test_classical_solve_rejects_singular():
    exact = np.array([[1.0, 1.0], [1.0, 1.0]])
    # sigma_min / sigma_max is 2.5e-15 here, yet no pivot is zero
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    for a in (exact, near):
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] < 1e-14 * sv[0]
        with pytest.raises(SingularMatrixError):
            classical_solve(a, np.array([1.0, 0.0]))


def test_classical_solve_refuses_a_non_square_matrix_and_a_mismatched_rhs():
    with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        classical_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match=r"^rhs shape \(3,\) does not match matrix \(2, 2\)$"):
        classical_solve(np.eye(2), np.ones(3))


def test_classical_solve_is_the_lu_solution():
    rng = np.random.default_rng(5)
    cases = [heat_system(ProblemConfig(conductivity=kind), n, seed)
             for kind in ("noisy_constant", "noisy_linear") for n in (2, 4, 6) for seed in (0, 1)]
    cases += [(rng.normal(size=(16, 16)), rng.normal(size=16)) for _ in range(4)]
    for a, b in cases:
        x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
        assert np.abs(classical_solve(a, b) - x / np.linalg.norm(x)).max() <= 1e-12


def test_solve_parametric_endpoints():
    a = np.diag([4.0, 2.0])
    b = np.array([3.0, 1.0])
    x0 = solve_parametric(a, b, 0.0)
    assert np.allclose(x0, b / np.linalg.norm(b))
    x1 = solve_parametric(a, b, 1.0)
    exact = np.linalg.solve(a, b)
    assert np.allclose(x1, exact / np.linalg.norm(exact))
    with pytest.raises(ValueError):
        solve_parametric(a, b, 1.5)


def mode_weights(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared overlaps of x with the eigenvectors of the symmetric -A, by ascending eigenvalue."""
    _, vecs = np.linalg.eigh(-a)
    return (vecs.T @ x) ** 2


def test_uniform_source_favors_smallest_mode():
    """A spatially flat source concentrates the solution in the lowest
    conduction mode, which is where an interpolating solver benefits most."""
    prof = ProblemConfig(conductivity="constant", source="exponential", l=0.0)
    a, b = heat_system(prof, 5)
    x = classical_solve(a, b)
    overlaps = mode_weights(a, x)
    # -A is positive definite; the smallest eigenvalue is the slowest mode
    assert overlaps[0] > 0.99
    assert overlaps[0] > 50.0 * overlaps[1:].max()


def test_sharper_sources_spread_over_modes():
    weights = []
    for l in (0.0, 2.0, 5.0):
        prof = ProblemConfig(conductivity="constant", source="exponential", l=l)
        a, b = heat_system(prof, 5)
        x = classical_solve(a, b)
        weights.append(mode_weights(a, x)[0])
    assert weights[0] > weights[1] > weights[2]
