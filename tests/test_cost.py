import types
from dataclasses import replace

import numpy as np
import pytest

import avqls
import avqls.cost as cost_module
import avqls.verify as verify
from avqls import (
    AnsatzConfig,
    ProblemConfig,
    apply_ansatz,
    heat_system,
    prepare,
)
from avqls.cost import (
    HessianBundle,
    assemble_hamiltonian,
    bind_objective,
    build_cost_model,
    cost,
    cost_gradient,
    hessian_bundle,
    hessian_extrapolate,
)

from conftest import clear_start_states, loop_shift_rule, loop_terms

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
    cases = []
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = rng.uniform(0.0, 1.0)
        cases.append((model, config, theta, s))
    # np.allclose(grad, fd, rtol=1e-5, atol=1e-8) on every case
    assert verify.gradient_defect(cases, h=1e-5, rtol=1e-5) <= 1e-8


def test_gradient_defect_fails_on_nan_gradient(monkeypatch):
    config = AnsatzConfig(n=2, d=1)
    model = build_cost_model(np.diag([0.5, 0.7, 0.9, 1.0]))
    cases = [(model, config, np.full(config.n_params, 0.3), 0.8)]
    assert verify.gradient_defect(cases) < 1e-7
    monkeypatch.setattr(verify, "cost_gradient", lambda *a, **k: np.full(config.n_params, np.nan))
    assert verify.gradient_defect(cases) == np.inf
    assert verify.gradient_defect(cases, rtol=1e-5) == np.inf


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
        psi = apply_ansatz(config, theta)
        dense = psi @ assemble_hamiltonian(model, s + delta) @ psi
        assert abs(cost(model, config, theta, s + delta) - dense) < 1e-12


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
    # the package shifts by pi/2; the reference at another angle is exact too
    s = 0.6
    grad, h_s, k_a, k_b = loop_shift_rule(model, config, theta, s, 0.7)
    assert np.allclose(cost_gradient(model, config, theta, s), grad, rtol=0, atol=BATCH_TOL)
    value, fused_grad = bind_objective(model, config, theta, s)(theta)
    ea, eb, ec = loop_terms(model, config, theta)
    assert abs(value - (s * s * ea + s * eb + ec)) <= BATCH_TOL
    assert np.allclose(fused_grad, grad, rtol=0, atol=BATCH_TOL)
    bundle = hessian_bundle(model, config, theta, s)
    for got, want in ((bundle.h_s, h_s), (bundle.k_a, k_a), (bundle.k_b, k_b)):
        assert np.allclose(got, want, rtol=0, atol=BATCH_TOL)
        assert np.array_equal(got, got.T)


def test_large_bundle_block_matches_loop_reference():
    # 1 + 16 + 120 = 137 states of 256 amplitudes, a block above the
    # workspace the ansatz keeps
    model, _, _ = normalized_case(61, 8)
    config = AnsatzConfig(n=8, d=1)
    theta = np.random.default_rng(63).uniform(-np.pi, np.pi, config.n_params)
    assert len(cost_module._bundle_offsets(config.n_params)) * config.dim > 2 ** 15
    _, h_s, k_a, k_b = loop_shift_rule(model, config, theta, 0.3, np.pi / 2)
    bundle = hessian_bundle(model, config, theta, 0.3)
    for got, want in ((bundle.h_s, h_s), (bundle.k_a, k_a), (bundle.k_b, k_b)):
        assert np.allclose(got, want, rtol=0, atol=BATCH_TOL)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_bundle_equals_the_device_rule_it_is_charged_for(monkeypatch, n, d):
    # infinite unless circuit_evals is exactly the rule's circuit count
    model, _, _ = normalized_case(80 + n, n)
    config = AnsatzConfig(n=n, d=d)
    theta = np.random.default_rng(90 + n).uniform(-np.pi, np.pi, config.n_params)
    cases = [(model, config, theta, 0.35)]
    assert verify.hessian_rule_defect(cases) < 1e-12
    monkeypatch.setattr(verify, "cost", lambda *a, **k: np.nan)
    assert verify.hessian_rule_defect(cases) == np.inf


def test_rule_defect_is_infinite_when_the_bundle_charges_one_circuit_more(monkeypatch):
    # the battery's case: the rule runs exactly circuit_evals circuits, so a
    # bundle that charges one more is a count mismatch
    assert verify._hessian_rule() < 1e-12
    charged = HessianBundle.circuit_evals.fget
    monkeypatch.setattr(HessianBundle, "circuit_evals", property(lambda b: charged(b) + 1))
    assert verify._hessian_rule() == np.inf


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 2)])
def test_start_is_read_from_entries_of_the_hamiltonian(monkeypatch, n, d):
    # why a run charges no circuits at theta = 0; infinite on a NaN bundle
    model, _, _ = normalized_case(100 + n, n)
    cases = [(model, AnsatzConfig(n=n, d=d), s) for s in (0.0, 0.25, 0.6, 1.0)]
    assert verify.start_rule_defect(cases) < 1e-12

    def nan_bundle(*args):
        bundle = hessian_bundle(*args)
        return replace(bundle, h_s=np.full_like(bundle.h_s, np.nan))

    monkeypatch.setattr(verify, "hessian_bundle", nan_bundle)
    assert verify.start_rule_defect(cases) == np.inf


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def explicit_points(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objective's points, and the bundle's theta, singles and pairs, one by one."""
    n_p = len(theta)
    eye = np.eye(n_p)
    shift = np.pi / 2
    objective = np.concatenate([theta[None], theta + shift * eye, theta - shift * eye])

    def shifted(*indices):
        point = theta.copy()
        for i in indices:
            point[i] = theta[i] + np.pi
        return point

    singles = np.array([theta] + [shifted(i) for i in range(n_p)])
    pairs = np.array([shifted(i, j) for i, j in zip(*np.triu_indices(n_p, k=1))])
    return objective, np.vstack([singles, pairs.reshape(-1, n_p)])


def recorded_apply(monkeypatch) -> list:
    """Points of every apply_ansatz call the cost layer makes from now on."""
    seen = []
    real_apply = cost_module.apply_ansatz

    def recording_apply(config, points):
        seen.append(points)
        return real_apply(config, points)

    monkeypatch.setattr(cost_module, "apply_ansatz", recording_apply)
    return seen


# the functions that make the objective's offsets table and the bundle's
BLOCKS = (cost_module._objective_offsets, cost_module._bundle_offsets)


def test_cached_offsets_give_the_explicit_points(monkeypatch):
    # theta mixes +0.0, -0.0 and nonzero entries, so the zeros' sign bits count
    model, config, theta = normalized_case(70, 2)
    theta[0], theta[2] = -0.0, 0.0
    objective, bundle = explicit_points(theta)
    for offsets, want in zip(BLOCKS, (objective, bundle)):
        table = offsets(config.n_params)
        assert bitwise_equal(theta + table, want)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
    seen = recorded_apply(monkeypatch)
    cost_gradient(model, config, theta, 0.4)
    bind_objective(model, config, theta, 0.4)(theta)
    hessian_bundle(model, config, theta, 0.4)
    assert len(seen) == 3
    # cost_gradient reads the objective's points
    for got, want in zip(seen, (objective, objective, bundle)):
        assert bitwise_equal(got, want)


def without_start_cache(patch) -> None:
    """Simulate the theta = 0 states at every reading instead of caching them."""
    patch.setattr(cost_module, "_start_states", cost_module._start_states.__wrapped__)


@pytest.mark.parametrize("n,d", [(1, 0), (2, 1), (3, 2), (5, 2), (8, 2)])
def test_start_states_are_what_apply_ansatz_returns(n, d):
    config = AnsatzConfig(n=n, d=d)
    zero = np.zeros(config.n_params)
    clear_start_states()
    cached = [cost_module._start_states(config, block) for block in BLOCKS]
    for states, points in zip(cached, explicit_points(zero)):
        assert bitwise_equal(states, apply_ansatz(config, points))
        assert not states.flags.writeable
    # filled once: later reads return the same arrays
    assert cost_module._start_states(config, BLOCKS[0]) is cached[0]
    assert cost_module._start_states(config, BLOCKS[1]) is cached[1]


def start_results(model, config, s):
    zero = np.zeros(config.n_params)
    value, grad = bind_objective(model, config, zero, s)(zero)
    bundle = hessian_bundle(model, config, zero, s)
    return [np.float64(value), grad, bundle.h_s, bundle.k_a, bundle.k_b]


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
def test_start_path_gives_the_simulated_results(monkeypatch, n, d):
    # every reading at theta = 0 is bitwise the same whether its states are
    # simulated, simulated to fill the cache, or read from the filled cache
    model, _, _ = normalized_case(110 + n, n)
    config = AnsatzConfig(n=n, d=d)
    for s in (0.0, 0.6, 1.0):
        with monkeypatch.context() as patch:
            without_start_cache(patch)
            simulated = start_results(model, config, s)
        clear_start_states()
        filled = start_results(model, config, s)
        seen = recorded_apply(monkeypatch)
        warm = start_results(model, config, s)
        monkeypatch.undo()
        assert seen == []
        for got in (filled, warm):
            assert all(bitwise_equal(a, b) for a, b in zip(got, simulated))


def test_negative_zero_is_simulated(monkeypatch):
    model, config, _ = normalized_case(120, 3)
    zero = np.zeros(config.n_params)
    start_results(model, config, 0.5)  # fills the cache for this shape
    seen = recorded_apply(monkeypatch)
    start_results(model, config, 0.5)
    assert seen == []
    # -0.0 is not the cached start: cos(-0/2) = 1 but sin(-0/2) = -0.0
    signed = zero.copy()
    signed[4] = -0.0
    bind_objective(model, config, signed, 0.5)(signed)
    hessian_bundle(model, config, signed, 0.5)
    assert len(seen) == 2
    for got, want in zip(seen, explicit_points(signed)):
        assert bitwise_equal(got, want)


def composed_objective(model, config, theta, s):
    """(C_s, its gradient) composed step by step: the explicit points,
    apply_ansatz, _terms_of_states, _shift_rule and _in_s."""
    points = explicit_points(theta)[0]
    terms = cost_module._terms_of_states(model, apply_ansatz(config, points))
    gradient = cost_module._in_s(cost_module._shift_rule(terms[1:]), s)
    return float(cost_module._in_s(terms[0], s)), gradient


def test_bound_objective_is_the_composition_bitwise(monkeypatch):
    # a random theta is simulated, +0.0 is read from the start cache once it
    # is filled, and a -0.0 entry is simulated
    model, config, theta = normalized_case(130, 3)
    n_p, s = config.n_params, 0.55
    zero, signed = np.zeros(n_p), np.zeros(n_p)
    signed[3] = -0.0
    clear_start_states()
    objective = bind_objective(model, config, theta, s)
    seen = recorded_apply(monkeypatch)
    for point, calls in ((theta, 1), (zero, 1), (zero, 0), (signed, 1), (theta + 0.25, 1)):
        seen.clear()
        value, grad = objective(point)
        assert [len(points) for points in seen] == [2 * n_p + 1] * calls
        want = composed_objective(model, config, point, s)
        # an objective bound at the point itself, read once
        for got in ((value, grad), bind_objective(model, config, point, s)(point)):
            assert type(got[0]) is float
            assert bitwise_equal(np.float64(got[0]), np.float64(want[0]))
            assert bitwise_equal(got[1], want[1])


def two_block_bundle(model, config, theta, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_s, K_a, K_b) from psi with the chi_i and the chi_ij simulated and
    projected as two blocks, each reduced to its forms."""
    n_p = config.n_params
    points = explicit_points(theta)[1]
    first = cost_module._projected(model, apply_ansatz(config, points[:n_p + 1]))
    pairs = cost_module._projected(model, apply_ansatz(config, points[n_p + 1:]))
    gram = cost_module._forms(first, first)
    hess3 = 0.5 * gram[:, 1:, 1:]
    diag = np.arange(n_p)
    hess3[:, diag, diag] -= 0.5 * gram[:, :1, 0]
    iu, ju = np.triu_indices(n_p, k=1)
    hess3[:, iu, ju] += 0.5 * cost_module._forms(pairs, first[:, :1])[..., 0]
    hess3[:, ju, iu] = hess3[:, iu, ju]
    k_a, k_b, h_c = hess3
    return s * s * k_a + s * k_b + h_c, k_a, k_b


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (5, 2), (8, 2), (1, 1), (2, 0)])
def test_one_block_bundle_is_the_two_block_composition(n, d):
    # bitwise from n_p = 3 on; at n_p = 2 the pairs are one row, which BLAS
    # may multiply by another path, so the two agree to round-off there
    model, _, _ = normalized_case(140 + n, n)
    config = AnsatzConfig(n=n, d=d)
    theta = np.random.default_rng(150 + n + d).uniform(-np.pi, np.pi, config.n_params)
    bundle = hessian_bundle(model, config, theta, 0.37)
    want = two_block_bundle(model, config, theta, 0.37)
    for got, expected in zip((bundle.h_s, bundle.k_a, bundle.k_b), want):
        if config.n_params >= 3:
            assert bitwise_equal(got, expected)
        else:
            assert np.allclose(got, expected, rtol=0, atol=1e-15)


def test_a_bundle_simulates_one_block(monkeypatch):
    # one call away from theta = 0; none at +0.0 once the start cache is warm
    model, config, theta = normalized_case(160, 3)
    seen = recorded_apply(monkeypatch)
    hessian_bundle(model, config, theta, 0.4)
    assert [len(points) for points in seen] == [1 + 9 + 36]
    zero = np.zeros(config.n_params)
    clear_start_states()
    hessian_bundle(model, config, zero, 0.4)  # fills the cache
    seen.clear()
    hessian_bundle(model, config, zero, 0.4)
    assert seen == []


def test_start_cache_holds_the_blocks_of_several_shapes():
    # hessian runs alternating two shapes simulate each shape's two start
    # blocks, the objective's and the bundle's, once
    configs = [
        avqls.config_from_dict({"solver": {"n": n, "d": 2, "T": 50, "schedule": "hessian"}})
        for n in (4, 5)
    ]
    clear_start_states()
    for k in range(8):
        avqls.runner.run_single(configs[k % 2])
    info = cost_module._start_states.cache_info()
    assert (info.misses, info.hits) == (4, 12)


def test_binding_checks_its_inputs_when_made(monkeypatch):
    model = build_cost_model(np.eye(4))
    config = AnsatzConfig(n=2, d=1)
    theta = np.zeros(config.n_params)
    seen = recorded_apply(monkeypatch)
    with pytest.raises(ValueError, match=r"adiabatic parameter must lie in \[0, 1\], got 1.5"):
        bind_objective(model, config, theta, 1.5)
    with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(3,\)"):
        bind_objective(model, config, np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="model dimension 8 does not match ansatz dimension 4"):
        bind_objective(build_cost_model(np.eye(8)), config, theta, 0.5)
    with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(2, 4\)"):
        bind_objective(model, config, np.zeros((2, 4)), 0.5)
    assert seen == []


def test_invalid_inputs_rejected():
    model = build_cost_model(np.eye(4))
    config = AnsatzConfig(n=2, d=1)
    theta = np.zeros(config.n_params)
    with pytest.raises(ValueError, match="0, 1"):
        cost(model, config, theta, 1.5)
    with pytest.raises(ValueError):
        cost(model, AnsatzConfig(n=3, d=1), np.zeros(6), 0.5)
    with pytest.raises(ValueError):
        build_cost_model(np.zeros((2, 3)))


def test_package_attribute_cost_is_the_module():
    # the package exports no function of the same name to shadow it
    assert isinstance(avqls.cost, types.ModuleType)
