import importlib

import numpy as np
import pytest

import avqls.verify as verify
from avqls import (
    AnsatzConfig,
    ProblemConfig,
    heat_system,
    prepare,
)
from avqls.cost import (
    DEFAULT_SHIFT,
    assemble_hamiltonian,
    build_cost_model,
    cost,
    cost_and_gradient,
    cost_extrapolate,
    cost_gradient,
    hessian_bundle,
    hessian_extrapolate,
)

from conftest import fd_gradient, fd_hessian, loop_shift_rule, loop_terms

# Batched results against the per-point loop reference; fixed in advance,
# about 1e4 ulps of the O(1) costs of a spectrally normalized matrix.
BATCH_TOL = 1e-12


def quadratic_hamiltonian(matrix: np.ndarray, s: float) -> np.ndarray:
    """Direct construction A(s)^T (I - P) A(s) with A(s) = (1-s) I + s M."""
    dim = matrix.shape[0]
    pencil = (1.0 - s) * np.eye(dim) + s * matrix
    proj = np.eye(dim)
    proj[0, 0] = 0.0
    return pencil.T @ proj @ pencil


def test_identity_matrix_collapses_to_projector():
    model = build_cost_model(np.eye(4))
    assert not model.d_op.any()
    proj = np.eye(4)
    proj[0, 0] = 0.0
    # H(s) is the projector for every s
    for s in (0.0, 0.3, 1.0):
        assert np.allclose(assemble_hamiltonian(model, s), proj)


def test_diagonal_example():
    model = build_cost_model(np.diag([1.0, 2.0]))
    h1 = assemble_hamiltonian(model, 1.0)
    assert np.allclose(h1, np.diag([0.0, 4.0]))


def test_expansion_matches_direct_hamiltonian():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mat = rng.normal(size=(8, 8))
        model = build_cost_model(mat)
        for s in (0.0, 0.2, 0.5, 0.9, 1.0):
            direct = quadratic_hamiltonian(mat, s)
            assert np.allclose(assemble_hamiltonian(model, s), direct, atol=1e-12)


def test_cost_matches_dense_quadratic_form():
    a, b = heat_system(ProblemConfig(conductivity="constant", source="point"), 2)
    system = prepare(a, b)
    model = build_cost_model(system)
    config = AnsatzConfig(n=2, d=1)
    rng = np.random.default_rng(11)
    from avqls import apply_ansatz

    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 1.0)
        state = apply_ansatz(config, theta)
        dense = float(state @ quadratic_hamiltonian(system.matrix, s) @ state)
        assert abs(cost(model, config, theta, s) - dense) < 1e-12


def test_single_qubit_closed_form():
    # M = I on one qubit: C(theta) = (1 - cos(theta)) / 2 for every s,
    # with derivative sin(theta)/2 and second derivative cos(theta)/2.
    model = build_cost_model(np.eye(2))
    config = AnsatzConfig(n=1, d=0)
    for theta in (-2.0, -0.5, 0.0, 0.7, 2.3):
        t = np.array([theta])
        assert abs(cost(model, config, t, 1.0) - (1 - np.cos(theta)) / 2) < 1e-14
        grad = cost_gradient(model, config, t, 1.0)
        assert abs(grad[0] - np.sin(theta) / 2) < 1e-12
        hess = hessian_bundle(model, config, t, 1.0).h_s
        assert abs(hess[0, 0] - np.cos(theta) / 2) < 1e-12


def test_gradient_matches_finite_differences():
    a, b = heat_system(ProblemConfig(conductivity="constant", source="point"), 2)
    system = prepare(a, b)
    model = build_cost_model(system)
    config = AnsatzConfig(n=2, d=2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 1.0)
        grad = cost_gradient(model, config, theta, s)
        ref = fd_gradient(lambda th: cost(model, config, th, s), theta)
        assert np.allclose(grad, ref, rtol=1e-5, atol=1e-8)


def test_gradient_defect_fails_on_nan_gradient(monkeypatch):
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.diag([0.5, 0.7, 0.9, 1.0]))
    cases = [(model, config, np.full(config.n_params, 0.3), 0.8)]
    assert verify.gradient_defect(cases) < 1e-7
    monkeypatch.setattr(verify, "cost_gradient", lambda *a, **k: np.full(config.n_params, np.nan))
    assert verify.gradient_defect(cases) == np.inf
    assert verify.gradient_defect(cases, rtol=1e-5) == np.inf


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(23)
    mat = rng.normal(size=(4, 4))
    mat = mat / np.linalg.norm(mat, 2)
    model = build_cost_model(mat)
    config = AnsatzConfig(n=2, d=1)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 1.0)
        hess = hessian_bundle(model, config, theta, s).h_s
        ref = fd_hessian(lambda th: cost(model, config, th, s), theta)
        assert np.allclose(hess, ref, atol=1e-4)
        assert np.allclose(hess, hess.T, atol=1e-14)


def test_shift_angle_invariance():
    a, b = heat_system(ProblemConfig(conductivity="constant", source="point"), 2)
    system = prepare(a, b)
    model = build_cost_model(system)
    config = AnsatzConfig(n=2, d=1)
    rng = np.random.default_rng(29)
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    s = 0.6
    grads = [
        cost_gradient(model, config, theta, s, beta=beta)
        for beta in (DEFAULT_SHIFT, np.pi / 3, 1.0)
    ]
    hessians = [
        hessian_bundle(model, config, theta, s, beta=beta).h_s
        for beta in (DEFAULT_SHIFT, np.pi / 3, 1.0)
    ]
    for other in grads[1:]:
        assert np.allclose(grads[0], other, atol=1e-9)
    for other in hessians[1:]:
        assert np.allclose(hessians[0], other, atol=1e-9)


def test_cost_extrapolation_is_exact():
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(8, 8))
    mat = mat / np.linalg.norm(mat, 2)
    model = build_cost_model(mat)
    config = AnsatzConfig(n=3, d=1)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 0.6)
        delta = rng.uniform(0.0, 1.0 - s)
        predicted = cost_extrapolate(model, config, theta, s, delta)
        direct = cost(model, config, theta, s + delta)
        assert abs(predicted - direct) < 1e-12


def test_hessian_extrapolation_is_exact():
    rng = np.random.default_rng(37)
    mat = rng.normal(size=(4, 4))
    mat = mat / np.linalg.norm(mat, 2)
    model = build_cost_model(mat)
    config = AnsatzConfig(n=2, d=1)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 0.5)
        delta = rng.uniform(0.0, 1.0 - s)
        bundle = hessian_bundle(model, config, theta, s)
        predicted = hessian_extrapolate(bundle, delta)
        direct = hessian_bundle(model, config, theta, s + delta).h_s
        assert np.abs(predicted - direct).max() < 1e-10


def test_bundle_consistency():
    rng = np.random.default_rng(41)
    mat = rng.normal(size=(4, 4))
    mat = mat / np.linalg.norm(mat, 2)
    model = build_cost_model(mat)
    config = AnsatzConfig(n=2, d=1)
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    s = 0.4
    bundle = hessian_bundle(model, config, theta, s)
    at_zero = hessian_bundle(model, config, theta, 0.0)
    k_a, k_b, k_c = at_zero.k_a, at_zero.k_b, at_zero.h_s
    assert np.allclose(bundle.k_a, k_a, atol=1e-12)
    assert np.allclose(bundle.k_b, k_b, atol=1e-12)
    assert np.allclose(bundle.h_s, s * s * k_a + s * k_b + k_c, atol=1e-12)
    # shift-rule Hessians come out exactly symmetric by construction
    assert np.array_equal(bundle.h_s, bundle.h_s.T)


def normalized_case(seed: int, n: int):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(2 ** n, 2 ** n))
    config = AnsatzConfig(n=n, d=2)
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    return build_cost_model(mat / np.linalg.norm(mat, 2)), config, theta


@pytest.mark.parametrize("n", [1, 3])
def test_batched_derivatives_match_loop_reference(n):
    model, config, theta = normalized_case(50 + n, n)
    s, beta = 0.6, 0.7
    grad, h_s, k_a, k_b = loop_shift_rule(model, config, theta, s, beta)
    assert np.allclose(cost_gradient(model, config, theta, s, beta), grad, rtol=0, atol=BATCH_TOL)
    value, fused_grad = cost_and_gradient(model, config, theta, s, beta)
    ea, eb, ec = loop_terms(model, config, theta)
    assert abs(value - (s * s * ea + s * eb + ec)) <= BATCH_TOL
    assert np.allclose(fused_grad, grad, rtol=0, atol=BATCH_TOL)
    bundle = hessian_bundle(model, config, theta, s, beta)
    for got, want in ((bundle.h_s, h_s), (bundle.k_a, k_a), (bundle.k_b, k_b)):
        assert np.allclose(got, want, rtol=0, atol=BATCH_TOL)


def test_chunked_bundle_matches_loop_reference(monkeypatch):
    # a cap of 16 states splits the 163-point bundle into 11 batches
    model, config, theta = normalized_case(61, 3)
    cost_module = importlib.import_module("avqls.cost")  # avqls.cost is also a function
    monkeypatch.setattr(cost_module, "_MAX_BATCH_AMPLITUDES", 16 * config.dim)
    _, h_s, k_a, k_b = loop_shift_rule(model, config, theta, 0.3, DEFAULT_SHIFT)
    bundle = hessian_bundle(model, config, theta, 0.3)
    for got, want in ((bundle.h_s, h_s), (bundle.k_a, k_a), (bundle.k_b, k_b)):
        assert np.allclose(got, want, rtol=0, atol=BATCH_TOL)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("beta", [DEFAULT_SHIFT, -0.7])
def test_cached_offsets_give_the_explicit_points(monkeypatch, beta):
    model, config, theta = normalized_case(70, 2)
    theta[0], theta[2] = -0.0, 0.0
    n_p = config.n_params
    cost_module = importlib.import_module("avqls.cost")  # avqls.cost is also a function
    seen = []
    real_terms_at = cost_module._terms_at

    def recording_terms_at(model, config, points):
        seen.append(points)
        return real_terms_at(model, config, points)

    monkeypatch.setattr(cost_module, "_terms_at", recording_terms_at)
    cost_gradient(model, config, theta, 0.4, beta)
    cost_and_gradient(model, config, theta, 0.4, beta)
    hessian_bundle(model, config, theta, 0.4, beta)
    eye = np.eye(n_p)
    iu, ju = np.triu_indices(n_p, k=1)
    pair_sum, pair_diff = eye[iu] + eye[ju], eye[iu] - eye[ju]
    gradient = np.concatenate([theta + beta * eye, theta - beta * eye])
    objective = np.concatenate([theta[None], gradient])
    bundle = theta + beta * np.concatenate(
        [np.zeros((1, n_p)), 2.0 * eye, -2.0 * eye, pair_sum, pair_diff, -pair_diff, -pair_sum]
    )
    assert len(seen) == 3
    for got, want in zip(seen, (gradient, objective, bundle)):
        assert bitwise_equal(got, want)
    tables = cost_module._objective_offsets(n_p, beta), cost_module._hessian_offsets(n_p, beta)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_invalid_inputs_rejected():
    model = build_cost_model(np.eye(4))
    config = AnsatzConfig(n=2, d=1)
    theta = np.zeros(config.n_params)
    with pytest.raises(ValueError, match="0, 1"):
        cost(model, config, theta, 1.5)
    with pytest.raises(ValueError, match="shift"):
        cost_gradient(model, config, theta, 0.5, beta=np.pi)
    with pytest.raises(ValueError):
        cost(model, AnsatzConfig(n=3, d=1), np.zeros(6), 0.5)
    with pytest.raises(ValueError):
        build_cost_model(np.zeros((2, 3)))
