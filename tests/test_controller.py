import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import avqls.controller as controller_module
import avqls.cost as cost_module
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

from conftest import clear_start_states, load_tool


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


def pencil_crossing(bundle, remaining):
    """First crossing from the generalized eigenvalues ds of the companion pencil
    [[0, I], [-H_eps, -K_1]] z = ds [[I, 0], [0, K_a]] z, without back-off."""
    n = bundle.n_params
    eye, zero = np.eye(n), np.zeros((n, n))
    k_1 = 2.0 * bundle.s * bundle.k_a + bundle.k_b
    left = np.block([[zero, eye], [-(bundle.h_s + controller_module._EPS_PSD * eye), -k_1]])
    right = np.block([[eye, zero], [zero, bundle.k_a]])
    ds = scipy.linalg.eigvals(left, right)
    ds = ds.real[np.isfinite(ds) & (ds.imag == 0.0)]
    roots = ds[(ds > 0.0) & (ds <= remaining)]
    return float(roots.min()) if roots.size else None


PANEL_SHAPES = [(3, 1), (4, 2), (5, 2), (6, 2), (7, 2)]


@functools.cache
def path_bundles(n, d):
    """Each bundle whose first crossing propose_step seeks on two hessian
    runs (noisy_constant sigma=0.2, point source, T=50, seeds 0 and 1)."""
    raw = {
        "problem": {"conductivity": "noisy_constant", "sigma": 0.2, "source": "point"},
        "solver": {"n": n, "d": d, "T": 50, "schedule": "hessian"},
    }
    seen = []
    real = controller_module.propose_step

    def record(bundle, delta_s_min):
        seen.append(bundle)
        return real(bundle, delta_s_min)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller_module, "propose_step", record)
        for seed in (0, 1):
            run_single(config_from_dict(raw), seed=seed)
    eps = controller_module._EPS_PSD
    return [b for b in seen if np.linalg.eigvalsh(b.h_s)[0] >= -eps]


@pytest.mark.parametrize("n, d", PANEL_SHAPES)
def test_first_psd_crossing_is_the_pencil_root(n, d):
    crossings = 0
    for bundle in path_bundles(n, d):
        remaining = 1.0 - bundle.s
        got = controller_module._first_psd_crossing(bundle, remaining)
        ref = pencil_crossing(bundle, remaining)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert abs(got - ref) <= 1e-9 * ref
            crossings += 1
    assert crossings > 0


@pytest.mark.parametrize("n, d", PANEL_SHAPES)
def test_first_psd_crossing_is_where_the_extrapolated_hessian_stops_being_psd(n, d):
    eps = controller_module._EPS_PSD
    crossings = 0
    for bundle in path_bundles(n, d):
        root = controller_module._first_psd_crossing(bundle, 1.0 - bundle.s)
        if root is None:
            continue
        crossings += 1
        assert np.linalg.eigvalsh(hessian_extrapolate(bundle, root))[0] + eps >= 0.0
        past = root * (1.0 + 1e-9)
        assert np.linalg.eigvalsh(hessian_extrapolate(bundle, past))[0] + eps < 0.0
    assert crossings > 0


@pytest.mark.parametrize("k_b", [-1.0, 1.0], ids=["falling", "rising"])
def test_propose_step_takes_the_minimum_step_when_h_s_is_at_the_psd_edge(k_b):
    # lambda_min(H_s) = -_EPS_PSD exactly, so H_s + _EPS_PSD I is singular and
    # M(0) has no PSD margin left: the crossing is ds = 0. That is exact when
    # K_b lowers the zero eigenvalue, and safe when it raises it.
    eps = controller_module._EPS_PSD
    z = np.zeros((2, 2))
    bundle = make_bundle(np.diag([-eps, 1.0]), z, k_b * np.eye(2), s=0.25)
    assert controller_module._first_psd_crossing(bundle, 0.75) == 0.0
    decision = propose_step(bundle, 0.05)
    assert decision.kind is StepKind.MINIMUM_STEP
    assert decision.delta_s == 0.05
    assert decision.lambda_min_start == -eps


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


def rosenbrock(x):
    return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)


N3_D2 = AnsatzConfig(n=3, d=2)


@functools.cache
def n3_model():
    return build_cost_model(prepare(*heat_system(ProblemConfig(conductivity="noisy_constant"), 3)))


def cost_at_n3_d2(x):
    return cost_module.bind_objective(n3_model(), N3_D2, x, 0.75)(x)


@pytest.mark.parametrize(
    "fun, x0, gtol, max_iter",
    [
        (rosenbrock, np.array([-1.2, 1.0]), 1e-8, 500),
        (rosenbrock, np.array([0.3, -0.8, 1.7]), 1e-10, 500),
        (rosenbrock, np.array([-1.2, 1.0]), 1e-8, 2),
        (ill_conditioned_quadratic(1.0)[0], np.zeros(6), 1e-12, 500),
        # a gradient that is not the cost's: the line search fails, and both
        # return the last accepted x and gradient; scipy's cost is the last one
        # it read, a rejected trial point's, and minimize_cost's the one at x
        (lambda x: (float(x @ x), 0.001 * x + 1.0), np.ones(3), 1e-8, 500),
        (cost_at_n3_d2, np.full(N3_D2.n_params, 0.1), 1e-8, 500),
    ],
    ids=["rosenbrock", "rosenbrock-3d", "iteration-cap", "ill-conditioned", "abnormal", "cost"],
)
def test_minimize_cost_is_scipys_lbfgsb(monkeypatch, fun, x0, gtol, max_iter):
    # minimize_cost drives scipy's private setulb from its own loop; this
    # guards that loop against a scipy whose wrapper or routine has moved.
    # Each message is one of controller._TASKS, or the lookup would raise
    monkeypatch.setattr(controller_module, "_MAX_ITER", max_iter)
    res = minimize_cost(fun, x0, SolverConfig(gtol=gtol))
    ref = scipy.optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "ftol": 1e-14, "maxiter": max_iter},
    )
    assert np.array_equal(res.theta, ref.x)
    assert np.array_equal(res.grad, ref.jac)
    assert res.cost == fun(res.theta)[0]
    assert (res.iterations, res.nfev) == (ref.nit, ref.nfev)
    assert res.message.encode() == ref.message.encode()
    assert res.converged is bool(ref.success)
    if max_iter == 2:
        assert res.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"


def test_task_messages_are_scipys():
    from scipy.optimize._lbfgsb_py import status_messages, task_messages

    for (task, code), message in controller_module._TASKS.items():
        assert message == f"{status_messages[task]}: {task_messages[code]}"


def assert_same_result(res, plain):
    assert np.array_equal(res.theta, plain.theta)
    assert np.array_equal(res.grad, plain.grad)
    assert (res.cost, res.iterations, res.nfev, res.converged, res.message) == (
        plain.cost, plain.iterations, plain.nfev, plain.converged, plain.message
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


def test_the_psd_slack_is_1e_8():
    # The slack is written out here, so a change to _EPS_PSD fails a test
    # that states it. Just above the slack, minimize_cost whitens: the cost
    # is its own quadratic model with no slope along e1, so the model test
    # passes and the Newton step ends the solve at its second evaluation.
    # Just inside it, the solve is the plain one. propose_step falls back to
    # the schedule only when lambda_min(H_s) is below minus the slack.
    target = np.array([0.0, 1.0, -2.0, 3.0, -1.0, 2.0])
    z = np.zeros((2, 2))
    for lam, whitens, kind in (
        (2e-8, True, StepKind.FALLBACK_SCHEDULE),
        (5e-9, False, StepKind.JUMP_TO_ONE),
    ):
        weights = np.array([lam, 2.0, 3.0, 4.0, 5.0, 6.0])

        def fun(x):
            r = x - target
            return 100.0 + 0.5 * float(weights @ r**2), weights * r

        plain = minimize_cost(fun, np.zeros(6))
        res = minimize_cost(fun, np.zeros(6), SolverConfig(), np.diag(weights))
        if whitens:
            assert (res.converged, res.nfev) == (True, 2) and plain.nfev > 2
        else:
            assert_same_result(res, plain)
        assert propose_step(make_bundle(np.diag([-lam, 1.0]), z, z, s=0.3), 0.05).kind is kind


def test_minimize_cost_takes_the_newton_step_first():
    # the whitened solve's first trial point is the quadratic model's
    # minimizer, so on its own model it reads the start and then the minimum
    fun, hessian, target, calls = ill_conditioned_quadratic(1.0)
    res = minimize_cost(fun, np.zeros(6), SolverConfig(), hessian)
    assert len(calls) == res.nfev == 2
    assert res.converged
    assert np.allclose(res.theta, target, atol=1e-10)


def test_minimize_cost_stops_at_the_first_point_whose_theta_gradient_meets_gtol():
    # a quartic term makes the start's Hessian a metric, not the model; the
    # whitened solve stops on max |grad_theta C| <= gtol, as a plain one does,
    # at the first accepted point that meets it
    quadratic, hessian, target, _ = ill_conditioned_quadratic(1.0)
    grad_norms = []

    def fun(x):
        value, grad = quadratic(x)
        r = x - target
        grad = grad + r**3
        grad_norms.append(float(np.abs(grad).max()))
        return value + 0.25 * float(np.sum(r**4)), grad

    hessian_at_start = hessian + np.diag(3.0 * target**2)
    for gtol in (1e-6, 1e-8):
        grad_norms.clear()
        res = minimize_cost(fun, np.zeros(6), SolverConfig(gtol=gtol), hessian_at_start)
        assert res.converged
        assert np.abs(res.grad).max() <= gtol
        assert len(grad_norms) == res.nfev
        assert min(grad_norms[:-1]) > gtol


def test_minimize_cost_does_not_whiten_at_a_converged_start():
    # the start is off the minimum along the flattest direction only: its
    # theta-gradient meets gtol while the whitened one, 100x larger, does not,
    # so the solve stops there before any step, whitened or not
    fun, hessian, target, _ = ill_conditioned_quadratic(1.0)
    start = target + 5e-5 * np.linalg.eigh(hessian)[1][:, 0]
    plain = minimize_cost(fun, start)
    assert (plain.converged, plain.iterations, plain.nfev) == (True, 0, 1)
    assert_same_result(minimize_cost(fun, start, SolverConfig(), hessian), plain)


@pytest.mark.parametrize("whitened", [False, True], ids=["plain", "whitened"])
def test_minimize_cost_meets_gtol_ahead_of_the_iteration_cap(monkeypatch, whitened):
    # gtol is tested at each accepted point before the _MAX_ITER cap, so a
    # solve capped at the iteration where it first meets gtol still converges
    fun, hessian, _, _ = ill_conditioned_quadratic(1.0)
    hessian = hessian if whitened else None
    free = minimize_cost(fun, np.zeros(6), SolverConfig(), hessian)
    assert free.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    monkeypatch.setattr(controller_module, "_MAX_ITER", free.iterations)
    assert_same_result(minimize_cost(fun, np.zeros(6), SolverConfig(), hessian), free)
    assert free.converged


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


def test_solve_adiabatic_refuses_a_schedule_that_does_not_advance(monkeypatch):
    # with a zero increment s never moves: the 8th solve exceeds T + 5 = 7 steps and raises
    system = prepare(np.diag([2.0, 1.0, 0.5, 0.25]), np.array([1.0, 1.0, 0.0, 0.0]))
    solves = []

    def recording_minimize(*args):
        solves.append(args)
        return minimize_cost(*args)

    monkeypatch.setattr(controller_module, "next_increment", lambda grid, s: 0.0)
    monkeypatch.setattr(controller_module, "minimize_cost", recording_minimize)
    with pytest.raises(RuntimeError, match=r"^sweep exceeded 7 steps; schedule is not advancing$"):
        solve_adiabatic(system, AnsatzConfig(n=2, d=2), SolverConfig(T=2, schedule="fixed"))
    assert len(solves) == 8


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
    # optimum, not measured again. The emulator simulates a shape's theta = 0
    # states once per process, so only a run of a new shape simulates its
    # first bundle's rows
    clear_start_states()
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
        assert rec.circuit_evals == bundle + (res.nfev - 1) * (1 + 2 * n_p)
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
    # a second run of the shape reads its theta = 0 bundle from the cached states
    bundle_rows.clear()
    again = run_single(config).trace
    assert again.circuit_evals == result.trace.circuit_evals
    if config.solver.schedule == "hessian":
        assert bundle_rows == [0] + [1 + n_p + pairs] * (len(steps) - 1)
    else:
        assert bundle_rows == []


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
    # cap and the PSD slack are constants the solver reads where it runs.
    # Each solve's first setulb call (task START) records its inputs
    starts = []
    setulb = controller_module.setulb

    def recording(m, x, low, up, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
        if task[0] == 0:
            starts.append((m, nbd.copy(), factr, pgtol, rest[-2]))
        return setulb(m, x, low, up, nbd, f, g, factr, pgtol, wa, iwa, task, *rest)

    monkeypatch.setattr(controller_module, "setulb", recording)

    def run(**solver):
        starts.clear()
        raw = {
            "problem": {"conductivity": "noisy_constant"},
            "solver": {"n": 3, "d": 2, "T": 20, **solver},
        }
        return run_single(config_from_dict(raw)).trace

    default = run()
    assert default.t == 20
    assert default.steps[0].kind is not StepKind.JUMP_TO_ONE
    assert max(rec.iterations for rec in default.steps) > 1
    assert len(starts) == 20
    assert controller_module._MAX_ITER == 500
    for m, nbd, factr, pgtol, maxls in starts:
        assert not nbd.any()  # unbounded
        assert factr == 1e-14 / np.finfo(float).eps
        assert (m, maxls) == (10, 20)
        assert pgtol == 0.0  # the loop tests gtol on grad C(theta) itself

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


def test_gate_margins_scales_every_objective_evaluation(monkeypatch):
    # tools/gate_margins.py perturbs the acceptance gate's criteria through
    # this hook; one that missed the objective would print the baseline as
    # a perturbed line
    gate_margins = load_tool("gate_margins")
    config = config_from_dict({
        "problem": {"conductivity": "noisy_constant"},
        "solver": {"n": 3, "d": 1, "T": 10, "schedule": "hessian"},
    })
    with gate_margins.scaled_objective(1.0 + 2.0**-52) as tally:
        result = run_single(config)
    nfev = sum(step.nfev for step in result.trace.steps)
    assert nfev > len(result.trace.steps)
    assert tally["evaluations"] == nfev
    with pytest.raises(RuntimeError, match="no objective evaluation"):
        with gate_margins.scaled_objective(2.0):
            pass
    # a checkout without the binding is named, not run unperturbed
    monkeypatch.delattr("avqls.controller.bind_objective")
    with pytest.raises(AttributeError, match="bind_objective"):
        with gate_margins.scaled_objective(2.0):
            pass
