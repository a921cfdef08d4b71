import numpy as np
import pytest
import scipy.optimize

from avqls import (
    AnsatzConfig,
    ConductivityProfile,
    OptimizerOptions,
    SourceSpec,
    StepKind,
    classical_solve,
    heat_system,
    infidelity,
    minimize_cost,
    prepare,
    propose_step,
    recover_solution,
    solve_adiabatic,
)
from avqls.cost import HessianBundle


def make_bundle(h_s, k_a, k_b, s):
    n = h_s.shape[0]
    return HessianBundle(
        h_s=np.asarray(h_s, dtype=float),
        k_a=np.asarray(k_a, dtype=float),
        k_b=np.asarray(k_b, dtype=float),
        grad=np.zeros(n),
        s=s,
    )


def test_propose_step_jump_to_one():
    # constant positive-definite Hessian: safe all the way to s = 1
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, z, s=0.2)
    decision = propose_step(bundle, 0.2, 0.05)
    assert decision.kind is StepKind.JUMP_TO_ONE
    assert decision.delta_s == pytest.approx(0.8)
    assert decision.lambda_min_at_end == pytest.approx(1.0)


def test_propose_step_fallback_on_indefinite_start():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.diag([-1.0, 1.0]), z, z, s=0.3)
    decision = propose_step(bundle, 0.3, 0.05)
    assert decision.kind is StepKind.FALLBACK_SCHEDULE
    assert decision.delta_s == pytest.approx(0.05)


def test_propose_step_hessian_root_linear():
    # lambda_min falls linearly: 1 - 2 ds, crossing near ds = 0.5
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, -2.0 * np.eye(2), s=0.0)
    decision = propose_step(bundle, 0.0, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(0.5, abs=1e-5)
    # the returned step never overshoots into the indefinite region
    assert 1.0 - 2.0 * decision.delta_s >= -1e-8


def test_propose_step_hessian_root_quadratic():
    # lambda_min(ds) = 1 - 4 ds^2 at s = 0, crossing at ds = 0.5
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), -4.0 * np.eye(2), z, s=0.0)
    decision = propose_step(bundle, 0.0, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(0.5, abs=1e-5)


def test_propose_step_floors_at_schedule_increment():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, -2.0 * np.eye(2), s=0.0)
    decision = propose_step(bundle, 0.0, 0.7)
    assert decision.kind is StepKind.MINIMUM_STEP
    assert decision.delta_s == pytest.approx(0.7)


def test_propose_step_min_step_clipped_to_remaining():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.diag([-1.0, 1.0]), z, z, s=0.9)
    decision = propose_step(bundle, 0.9, 0.5)
    assert decision.kind is StepKind.FALLBACK_SCHEDULE
    assert decision.delta_s == pytest.approx(0.1)


def test_propose_step_validation():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, z, s=1.0)
    with pytest.raises(ValueError, match="no room"):
        propose_step(bundle, 1.0, 0.1)
    bundle = make_bundle(np.eye(2), z, z, s=0.5)
    with pytest.raises(ValueError, match="positive"):
        propose_step(bundle, 0.5, 0.0)


def test_minimize_cost_quadratic():
    target = np.array([1.0, -2.0, 3.0])

    def f(x):
        return float(np.sum((x - target) ** 2))

    def g(x):
        return 2.0 * (x - target)

    res = minimize_cost(lambda x: (f(x), g(x)), np.zeros(3))
    assert res.converged
    assert np.allclose(res.theta, target, atol=1e-6)
    assert res.cost < 1e-12
    assert res.nfev >= 1 and res.iterations >= 1


def test_minimize_cost_rosenbrock():
    res = minimize_cost(
        lambda x: (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)),
        np.array([-1.2, 1.0]),
        OptimizerOptions(gtol=1e-10, max_iter=1000),
    )
    assert res.converged
    assert np.allclose(res.theta, [1.0, 1.0], atol=1e-5)


def test_minimize_cost_respects_bounds():
    def f(x):
        return float((x[0] - 10.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 10.0)])

    res = minimize_cost(lambda x: (f(x), g(x)), np.zeros(1), OptimizerOptions(bounded=True))
    assert res.theta[0] == pytest.approx(2.0 * np.pi)


def test_minimize_cost_iteration_cap():
    res = minimize_cost(
        lambda x: (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)),
        np.array([-1.2, 1.0]),
        OptimizerOptions(max_iter=2),
    )
    assert res.iterations <= 2
    assert not res.converged


def identity_system():
    return prepare(np.eye(2), np.array([1.0, 0.0]))


def test_solve_adiabatic_identity_jumps_immediately():
    system = identity_system()
    config = AnsatzConfig(n=1, d=1)
    theta, trace = solve_adiabatic(system, config, T=10, mode="hessian")
    assert trace.t == 1
    assert trace.steps[0].kind is StepKind.JUMP_TO_ONE
    assert trace.steps[0].s == 1.0
    assert trace.final_cost < 1e-10
    assert np.allclose(theta, 0.0, atol=1e-6)


def test_solve_adiabatic_mode_validation():
    system = identity_system()
    with pytest.raises(ValueError, match="mode"):
        solve_adiabatic(system, AnsatzConfig(n=1, d=1), mode="euler")
    with pytest.raises(ValueError, match="qubits"):
        solve_adiabatic(system, AnsatzConfig(n=2, d=1))


def heat_2q():
    prof = ConductivityProfile(kind="constant")
    a, b, _ = heat_system(prof, SourceSpec(kind="point"), 2)
    return a, b, prepare(a, b)


def test_solve_adiabatic_fixed_walks_full_grid():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    theta, trace = solve_adiabatic(system, config, T=5, mode="fixed")
    assert trace.t == 5
    assert all(rec.kind is StepKind.FALLBACK_SCHEDULE for rec in trace.steps)
    grid = [rec.s for rec in trace.steps]
    assert grid == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_solve_adiabatic_dynamic_walks_schedule():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    theta, trace = solve_adiabatic(system, config, T=5, mode="dynamic")
    assert trace.t == 5
    s_vals = [rec.s for rec in trace.steps]
    assert s_vals[-1] == 1.0
    assert all(s2 > s1 for s1, s2 in zip(s_vals, s_vals[1:]))
    # the condition-number schedule clusters stops near s = 1
    assert s_vals[0] > 0.2


def test_solve_adiabatic_solves_small_heat_problem():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    theta, trace = solve_adiabatic(system, config, T=20, mode="hessian")
    assert trace.t <= 20
    assert trace.steps[-1].s == 1.0
    state = recover_solution(system, _final_state(system, config, theta))
    assert infidelity(state, classical_solve(a, b)) < 1e-6
    for rec in trace.steps:
        assert rec.circuit_evals > 0
        assert rec.delta_s > 0


def test_solve_adiabatic_is_deterministic():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    theta1, trace1 = solve_adiabatic(system, config, T=8, mode="hessian")
    theta2, trace2 = solve_adiabatic(system, config, T=8, mode="hessian")
    assert np.array_equal(theta1, theta2)
    assert [r.s for r in trace1.steps] == [r.s for r in trace2.steps]
    assert [r.cost for r in trace1.steps] == [r.cost for r in trace2.steps]
    assert [r.nfev for r in trace1.steps] == [r.nfev for r in trace2.steps]


def _final_state(system, config, theta):
    from avqls import apply_ansatz

    return apply_ansatz(config, theta)
