import importlib

import numpy as np
import pytest
import scipy.optimize

from avqls import (
    AnsatzConfig,
    ProblemConfig,
    SolverConfig,
    StepKind,
    classical_solve,
    config_from_dict,
    heat_system,
    infidelity,
    minimize_cost,
    prepare,
    propose_step,
    recover_solution,
    run_single,
    solve_adiabatic,
)
from avqls.cost import HessianBundle, build_cost_model, cost_gradient, hessian_extrapolate

cost_module = importlib.import_module("avqls.cost")  # avqls.cost is also a function
controller_module = importlib.import_module("avqls.controller")


def make_bundle(h_s, k_a, k_b, s):
    return HessianBundle(
        h_s=np.asarray(h_s, dtype=float),
        k_a=np.asarray(k_a, dtype=float),
        k_b=np.asarray(k_b, dtype=float),
        s=s,
    )


def test_propose_step_jump_to_one():
    # constant positive-definite Hessian: safe all the way to s = 1
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, z, s=0.2)
    decision = propose_step(bundle, 0.05)
    assert decision.kind is StepKind.JUMP_TO_ONE
    assert decision.delta_s == pytest.approx(0.8)
    assert decision.lambda_min_at_end == pytest.approx(1.0)


def test_propose_step_fallback_on_indefinite_start():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.diag([-1.0, 1.0]), z, z, s=0.3)
    decision = propose_step(bundle, 0.05)
    assert decision.kind is StepKind.FALLBACK_SCHEDULE
    assert decision.delta_s == pytest.approx(0.05)


def test_propose_step_hessian_root_linear():
    # lambda_min falls linearly: 1 - 2 ds, crossing near ds = 0.5
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, -2.0 * np.eye(2), s=0.0)
    decision = propose_step(bundle, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(0.5, abs=1e-5)
    # the returned step never overshoots into the indefinite region
    assert 1.0 - 2.0 * decision.delta_s >= -1e-8


def test_propose_step_hessian_root_quadratic():
    # lambda_min(ds) = 1 - 4 ds^2 at s = 0, crossing at ds = 0.5
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), -4.0 * np.eye(2), z, s=0.0)
    decision = propose_step(bundle, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(0.5, abs=1e-5)


def test_propose_step_floors_at_schedule_increment():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, -2.0 * np.eye(2), s=0.0)
    decision = propose_step(bundle, 0.7)
    assert decision.kind is StepKind.MINIMUM_STEP
    assert decision.delta_s == pytest.approx(0.7)


def test_propose_step_min_step_clipped_to_remaining():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.diag([-1.0, 1.0]), z, z, s=0.9)
    decision = propose_step(bundle, 0.5)
    assert decision.kind is StepKind.FALLBACK_SCHEDULE
    assert decision.delta_s == pytest.approx(0.1)


def test_propose_step_validation():
    z = np.zeros((2, 2))
    bundle = make_bundle(np.eye(2), z, z, s=1.0)
    with pytest.raises(ValueError, match="no room"):
        propose_step(bundle, 0.1)
    bundle = make_bundle(np.eye(2), z, z, s=0.5)
    with pytest.raises(ValueError, match="positive"):
        propose_step(bundle, 0.0)


def test_propose_step_stops_before_interior_indefinite_region():
    # lambda_min = (1 - 4 ds)(1 - 2 ds): indefinite on (0.25, 0.5) only,
    # so the Hessian extrapolated to s = 1 alone would allow a jump
    bundle = make_bundle(np.eye(2), np.diag([8.0, 0.0]), np.diag([-6.0, 0.0]), s=0.0)
    decision = propose_step(bundle, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(0.25, abs=1e-6)


def test_propose_step_finds_narrow_dip():
    # lambda_min = (ds - c)^2 - w^2 is negative only on (c - w, c + w),
    # well inside a 1/32 grid cell; the second axis crosses at ds = 2/3
    c, w = 0.109375, 0.005
    bundle = make_bundle(
        np.diag([c * c - w * w, 1.0]), np.diag([1.0, 0.0]), np.diag([-2.0 * c, -1.5]), s=0.0
    )
    decision = propose_step(bundle, 0.01)
    assert decision.kind is StepKind.HESSIAN_STEP
    assert decision.delta_s == pytest.approx(c - w, abs=1e-5)


def random_symmetric(rng, n, rank):
    basis = rng.normal(size=(n, rank))
    return basis @ np.diag(rng.normal(size=rank)) @ basis.T


def test_propose_step_is_psd_up_to_the_step():
    rng = np.random.default_rng(7)
    eps = controller_module._EPS_PSD
    kinds = set()
    for trial in range(60):
        n = int(rng.integers(1, 7))
        rank = n - 1 if trial % 3 == 0 else n  # every third K_a is singular
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h_s = q @ np.diag(rng.uniform(0.1, 1.0, n)) @ q.T
        s = float(rng.uniform(0.0, 0.9))
        bundle = make_bundle(
            h_s, random_symmetric(rng, n, rank), 2.0 * random_symmetric(rng, n, n), s
        )
        decision = propose_step(bundle, 1e-9)
        kinds.add(decision.kind)
        assert decision.kind in (StepKind.HESSIAN_STEP, StepKind.JUMP_TO_ONE)
        ds_star = decision.delta_s
        grid = np.linspace(0.0, ds_star, 1001)[1:]
        stack = np.array([hessian_extrapolate(bundle, ds) for ds in grid])
        assert np.linalg.eigvalsh(stack)[:, 0].min() + eps >= 0.0
        if decision.kind is StepKind.HESSIAN_STEP:
            # a crossing: no PSD margin is left at the step
            assert np.linalg.eigvalsh(hessian_extrapolate(bundle, ds_star))[0] + eps < 1e-10
    assert kinds == {StepKind.HESSIAN_STEP, StepKind.JUMP_TO_ONE}


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


def test_minimize_cost_rosenbrock(monkeypatch):
    monkeypatch.setattr(controller_module, "_MAX_ITER", 1000)
    res = minimize_cost(
        lambda x: (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)),
        np.array([-1.2, 1.0]),
        SolverConfig(gtol=1e-10),
    )
    assert res.converged
    assert np.allclose(res.theta, [1.0, 1.0], atol=1e-5)


def test_minimize_cost_iteration_cap(monkeypatch):
    monkeypatch.setattr(controller_module, "_MAX_ITER", 2)
    res = minimize_cost(
        lambda x: (scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)),
        np.array([-1.2, 1.0]),
    )
    assert res.iterations <= 2
    assert not res.converged


def ill_conditioned_quadratic(floor):
    # condition number 1e4 in a rotated basis, minimum value `floor`; the
    # Hessian is exact, and `calls` counts the evaluations
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    hessian = q @ np.diag(np.logspace(0.0, -4.0, 6)) @ q.T
    target = rng.normal(size=6)
    calls = []

    def fun(x):
        calls.append(x)
        r = x - target
        return floor + 0.5 * float(r @ hessian @ r), hessian @ r

    return fun, hessian, target, calls


def test_minimize_cost_preconditions_with_a_positive_definite_hessian():
    fun, hessian, target, calls = ill_conditioned_quadratic(1.0)
    plain = minimize_cost(fun, np.zeros(6), SolverConfig(gtol=1e-12))
    calls.clear()
    whitened = minimize_cost(fun, np.zeros(6), SolverConfig(gtol=1e-12), hessian)
    assert len(calls) == whitened.nfev
    assert plain.converged and whitened.converged
    assert whitened.nfev < plain.nfev
    assert np.allclose(whitened.theta, target, atol=1e-6)
    assert np.allclose(plain.theta, target, atol=1e-6)
    # the result is the theta, cost and theta-gradient fun returned there
    cost, grad = fun(whitened.theta)
    assert whitened.cost == cost
    assert np.array_equal(whitened.grad, grad)


def assert_same_result(res, plain):
    assert np.array_equal(res.theta, plain.theta)
    assert np.array_equal(res.grad, plain.grad)
    assert (res.cost, res.iterations, res.nfev, res.njev, res.converged, res.message) == (
        plain.cost, plain.iterations, plain.nfev, plain.njev, plain.converged, plain.message
    )


def test_minimize_cost_ignores_a_hessian_that_is_not_positive_definite():
    # eigh returns a diagonal matrix's eigenvalues exactly, so the first case
    # sits on the boundary lambda_min == _EPS_PSD. The cost has no slope along
    # e1 at the start, so even a metric that whitened e1 by that eigenvalue
    # would pass the model test; only the eigenvalue test keeps theta.
    weights = np.logspace(0.0, -4.0, 6)
    target = np.array([0.0, 1.0, -2.0, 3.0, -1.0, 2.0])

    def fun(x):
        r = x - target
        return 100.0 + 0.5 * float(weights @ r**2), weights * r

    solver = SolverConfig()
    plain = minimize_cost(fun, np.zeros(6), solver)
    for floor in (controller_module._EPS_PSD, 0.0, -1.0):
        hessian = np.diag([floor, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert_same_result(minimize_cost(fun, np.zeros(6), solver, hessian), plain)


def test_minimize_cost_ignores_a_model_whose_minimum_is_below_zero():
    # exact Hessian, but the quadratic model's minimum, -1, is below the
    # floor of a nonnegative cost; the start is read once and counted once
    fun, hessian, _, calls = ill_conditioned_quadratic(-1.0)
    plain = minimize_cost(fun, np.zeros(6), SolverConfig(gtol=1e-12))
    calls.clear()
    res = minimize_cost(fun, np.zeros(6), SolverConfig(gtol=1e-12), hessian)
    assert_same_result(res, plain)
    assert len(calls) == res.nfev


def identity_system():
    return prepare(np.eye(2), np.array([1.0, 0.0]))


def test_solve_adiabatic_identity_jumps_immediately():
    system = identity_system()
    config = AnsatzConfig(n=1, d=1)
    trace = solve_adiabatic(system, config, SolverConfig(T=10, schedule="hessian"))
    assert trace.t == 1
    assert trace.steps[0].kind is StepKind.JUMP_TO_ONE
    assert trace.steps[0].s == 1.0
    assert trace.final_cost < 1e-10
    assert np.allclose(trace.theta_star, 0.0, atol=1e-6)


def test_solve_adiabatic_mode_validation():
    system = identity_system()
    with pytest.raises(ValueError, match=r"^solver\.schedule: expected one of"):
        solve_adiabatic(system, AnsatzConfig(n=1, d=1), SolverConfig(schedule="euler"))
    with pytest.raises(ValueError, match="qubits"):
        solve_adiabatic(system, AnsatzConfig(n=2, d=1))


def heat_2q():
    a, b = heat_system(ProblemConfig(conductivity="constant", source="point"), 2)
    return a, b, prepare(a, b)


def test_solve_adiabatic_fixed_walks_full_grid():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    trace = solve_adiabatic(system, config, SolverConfig(T=5, schedule="fixed"))
    assert trace.t == 5
    assert all(rec.kind is StepKind.FALLBACK_SCHEDULE for rec in trace.steps)
    grid = [rec.s for rec in trace.steps]
    assert grid == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_solve_adiabatic_dynamic_walks_schedule():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    trace = solve_adiabatic(system, config, SolverConfig(T=5, schedule="dynamic"))
    assert trace.t == 5
    s_vals = [rec.s for rec in trace.steps]
    assert s_vals[-1] == 1.0
    assert all(s2 > s1 for s1, s2 in zip(s_vals, s_vals[1:]))
    # the condition-number schedule clusters stops near s = 1
    assert s_vals[0] > 0.2


def test_solve_adiabatic_solves_small_heat_problem():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    trace = solve_adiabatic(system, config, SolverConfig(T=20, schedule="hessian"))
    assert trace.t <= 20
    assert trace.steps[-1].s == 1.0
    state = recover_solution(system, _final_state(system, config, trace.theta_star))
    assert infidelity(state, classical_solve(a, b)) < 1e-6
    assert all(rec.delta_s > 0 for rec in trace.steps)


@pytest.mark.parametrize(
    "solver, seed, max_iter",
    [
        ({"schedule": "fixed"}, 0, None),
        ({"schedule": "dynamic"}, 0, None),
        # seed 0's one step runs on theta (its quadratic model dips below 0);
        # seed 1's second step runs whitened
        ({"schedule": "hessian"}, 0, None),
        ({"schedule": "hessian"}, 1, None),
        ({"schedule": "hessian", "d": 2}, 0, 1),
    ],
    ids=["fixed", "dynamic", "hessian", "hessian-whitened", "hessian-max-iter-1"],
)
def test_steps_charge_measured_circuits_and_report_the_last_gradient(
    monkeypatch, solver, seed, max_iter
):
    # each step charges the bundle's device circuits (its derivative states
    # are fewer), none for a bundle at theta = 0 and only the pair circuits
    # of a later one, whose other circuits the previous optimum's evaluation
    # already read (verify.hessian_rule_defect); and one circuit per L-BFGS
    # cost evaluation and 2 n_p per gradient after the first, which is at
    # the warm start: theta = 0 or a point the previous step evaluated.
    # grad_norm is read from the gradient L-BFGS-B returned at the step's
    # optimum, not measured again
    state_rows, bundle_rows, bundles, hessians, results = [], [], [], [], []
    bundle_thetas, solve_calls = [], []
    real_apply = cost_module.apply_ansatz
    real_bundle = controller_module.hessian_bundle
    real_minimize = controller_module.minimize_cost

    def recording_apply(config, points):
        state_rows.append(len(points))
        return real_apply(config, points)

    def recording_bundle(*args, **kwargs):
        first = len(state_rows)
        bundle = real_bundle(*args, **kwargs)
        bundle_rows.append(sum(state_rows[first:]))
        bundles.append(bundle)
        bundle_thetas.append(args[2])
        return bundle

    def recording_minimize(fun, theta0, solver, hessian=None):
        calls = []

        def counted(theta):
            calls.append(theta)
            return fun(theta)

        hessians.append(hessian)
        solve_calls.append(calls)
        results.append(real_minimize(counted, theta0, solver, hessian))
        # every objective call is one the tally charges
        assert len(calls) == results[-1].nfev
        return results[-1]

    monkeypatch.setattr(cost_module, "apply_ansatz", recording_apply)
    monkeypatch.setattr(controller_module, "hessian_bundle", recording_bundle)
    monkeypatch.setattr(controller_module, "minimize_cost", recording_minimize)
    if max_iter is not None:
        monkeypatch.setattr(controller_module, "_MAX_ITER", max_iter)
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 3, "d": 1, "T": 10, **solver},
        "seed": seed,
    }
    config = config_from_dict(raw)
    result = run_single(config)
    steps = result.trace.steps
    ansatz = AnsatzConfig(n=3, d=config.solver.d)
    n_p = ansatz.n_params
    assert len(results) == len(steps)
    pairs = n_p * (n_p - 1) // 2
    if config.solver.schedule == "hessian":
        assert bundle_rows == [1 + n_p + pairs] * len(steps)
        assert [b.circuit_evals for b in bundles] == [1 + n_p + 3 * pairs] * len(steps)
        # each solve is handed the Hessian of its own cost at its warm start
        for bundle, hessian, rec in zip(bundles, hessians, steps):
            assert np.array_equal(hessian, hessian_extrapolate(bundle, rec.delta_s))
        # only the first bundle is at theta = 0
        assert not bundle_thetas[0].any()
        assert all(theta.any() for theta in bundle_thetas[1:])
    else:
        assert bundle_rows == bundles == []
        assert hessians == [None] * len(steps)
    model = build_cost_model(result.system)
    for k, (rec, res) in enumerate(zip(steps, results)):
        # a later bundle's centre and single shifts are the previous optimum's readings
        bundle = bundles[k].circuit_evals - 1 - n_p if k > 0 and bundles else 0
        assert rec.circuit_evals == bundle + (res.nfev - 1) + (res.njev - 1) * 2 * n_p
        # the uncharged first evaluation: theta = 0, or the previous
        # optimum, which the previous step evaluated
        first = solve_calls[k][0]
        if k == 0:
            assert not first.any()
        else:
            warm = results[k - 1].theta
            assert np.array_equal(first, warm)
            assert any(np.array_equal(warm, theta) for theta in solve_calls[k - 1])
        remeasured = np.abs(cost_gradient(model, ansatz, res.theta, rec.s)).max()
        assert rec.grad_norm == remeasured


def test_one_fixed_solve_charges_every_evaluation_but_the_first():
    # T = 1 is one L-BFGS solve at s = 1 from theta = 0, where the first
    # evaluation reads entries of H(1); each later one is 1 + 2 n_p circuits
    raw = {
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 3, "d": 2, "T": 1, "schedule": "fixed"},
    }
    trace = run_single(config_from_dict(raw)).trace
    (step,) = trace.steps
    n_p = AnsatzConfig(n=3, d=2).n_params
    assert step.nfev > 1
    assert trace.circuit_evals == step.circuit_evals == (step.nfev - 1) * (1 + 2 * n_p)


def test_solve_adiabatic_is_deterministic():
    a, b, system = heat_2q()
    config = AnsatzConfig(n=2, d=1)
    trace1 = solve_adiabatic(system, config, SolverConfig(T=8, schedule="hessian"))
    trace2 = solve_adiabatic(system, config, SolverConfig(T=8, schedule="hessian"))
    assert np.array_equal(trace1.theta_star, trace2.theta_star)
    assert [r.s for r in trace1.steps] == [r.s for r in trace2.steps]
    assert [r.cost for r in trace1.steps] == [r.cost for r in trace2.steps]
    assert [r.nfev for r in trace1.steps] == [r.nfev for r in trace2.steps]


def test_run_single_passes_every_solver_setting(monkeypatch):
    # each setting changes this run where the default does not, so a setting
    # dropped between the config and the solver fails here; the iteration
    # cap and the PSD slack are constants the solver reads where it runs
    calls = []
    minimize = scipy.optimize.minimize

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)

    def run(**solver):
        calls.clear()
        raw = {
            "problem": {"conductivity": "noisy_constant"},
            "solver": {"n": 3, "d": 2, "T": 20, **solver},
        }
        return run_single(config_from_dict(raw)).trace

    default = run()
    assert default.t == 20
    assert default.steps[0].kind is not StepKind.JUMP_TO_ONE
    assert max(rec.iterations for rec in default.steps) > 1
    assert len(calls) == 20
    for call in calls:
        assert "bounds" not in call
        assert call["options"]["ftol"] == 1e-14
        assert call["options"]["maxiter"] == 500

    assert all(rec.iterations == 0 for rec in run(gtol=1e3).steps)
    fixed = run(schedule="fixed", T=3)
    assert fixed.t == 3
    assert all(rec.kind is StepKind.FALLBACK_SCHEDULE for rec in fixed.steps)
    monkeypatch.setattr(controller_module, "_EPS_PSD", 1e3)
    jumped = run()
    assert jumped.t == 1
    assert jumped.steps[0].kind is StepKind.JUMP_TO_ONE


def _final_state(system, config, theta):
    from avqls import apply_ansatz

    return apply_ansatz(config, theta)
