"""End-to-end acceptance gate.

One test per release criterion, each printing a single pass line with the
measured numbers. Run with `pytest -v tests/test_acceptance.py` to get one
verdict line per criterion; the slowest cases are the full-budget solver
runs (a few minutes in total).
"""

import json

import numpy as np
import pytest

from avqls import (
    AnsatzConfig,
    ProblemConfig,
    condition_number,
    config_from_dict,
    discretize_heat,
    heat_system,
    hessian_bundle,
    householder,
    prepare,
    run_single,
    s_of_v,
)
from avqls.cost import assemble_hamiltonian, build_cost_model, cost, cost_gradient
from avqls.runner import dump_trace, trace_payload
from avqls.verify import (
    extrapolation_defect,
    gradient_defect,
    ground_state_defect,
    householder_defect,
    schedule_endpoint_defect,
)

from conftest import fd_hessian, loop_shift_rule, random_system_matrix


def report(num, name, detail):
    print(f"criterion {num:>2} ({name}): PASS  {detail}")


def constant_heat(n_qubits):
    a, b = heat_system(ProblemConfig(conductivity="constant", source="point"), n_qubits)
    return a, b, prepare(a, b)


def test_criterion_01_schedule_exactness():
    worst = schedule_endpoint_defect((1.0, 10.0, 100.0, 1000.0), 50)
    assert worst < 1e-10
    mid = s_of_v(0.0, 1.0)
    assert abs(mid - 0.5) < 1e-12
    report(1, "schedule exactness", f"endpoint_dev={worst:.2e} s(0;1)={mid}")


def test_criterion_02_spectrum_and_conditioning():
    worst = 0.0
    kappas = {}
    for n in range(1, 7):
        mat, _ = discretize_heat(ProblemConfig(conductivity="constant"), n)
        n_sites = 2 ** n
        dz = 1.0 / n_sites
        eigs = np.sort(np.linalg.eigvalsh(-(dz * dz) * mat))
        k = np.arange(1, n_sites + 1)
        target = np.sort(4.0 * np.sin(np.pi * k / (2.0 * (n_sites + 1))) ** 2)
        worst = max(worst, float(np.abs(eigs - target).max()))
        kappas[n] = condition_number(mat)
    assert worst < 1e-9
    ratios = [kappas[n] / kappas[n - 1] for n in (5, 6)]
    for ratio in ratios:
        assert abs(ratio / 4.0 - 1.0) <= 0.10
    report(
        2,
        "spectrum and conditioning",
        f"eig_dev={worst:.2e} growth_ratios={[round(r, 3) for r in ratios]}",
    )


def test_criterion_03_parameter_shift_correctness():
    rng = np.random.default_rng(11)
    systems = {n: constant_heat(n)[2] for n in range(1, 5)}
    models = {n: build_cost_model(sys_) for n, sys_ in systems.items()}
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(0, 3))
        config = AnsatzConfig(n=n, d=d)
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = float(rng.uniform(0.0, 1.0))
        cases.append((models[n], config, theta, s))
    # np.allclose(grad, fd, rtol=1e-5, atol=1e-7) on every case
    worst_g = gradient_defect(cases, h=1e-5, rtol=1e-5)
    assert worst_g <= 1e-7
    worst_h = worst_beta = 0.0
    for model, config, theta, s in cases:
        hess = hessian_bundle(model, config, theta, s).h_s
        fdh = fd_hessian(lambda th: cost(model, config, th, s), theta, h=1e-4)
        worst_h = max(worst_h, float(np.abs(hess - fdh).max()))
        assert np.allclose(hess, fdh, atol=1e-4)

        # the package shifts by pi/2; the reference shift rule is exact at any beta
        grad = cost_gradient(model, config, theta, s)
        for beta in (np.pi / 3, 1.0):
            ref_g, ref_h, _, _ = loop_shift_rule(model, config, theta, s, beta)
            worst_beta = max(
                worst_beta,
                float(np.abs(grad - ref_g).max()),
                float(np.abs(hess - ref_h).max()),
            )
    assert worst_beta < 1e-9
    report(
        3,
        "parameter-shift correctness",
        f"grad_excess={worst_g:.2e} hess_abs={worst_h:.2e} beta_dev={worst_beta:.2e}",
    )


def test_criterion_04_exact_extrapolation():
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, 3))
        config = AnsatzConfig(n=n, d=d)
        _, _, system = constant_heat(n)
        model = build_cost_model(system)
        theta = rng.uniform(-np.pi, np.pi, config.n_params)
        s = float(rng.uniform(0.0, 1.0))
        ds = float(rng.uniform(0.0, 1.0 - s))
        cases.append((model, config, theta, s, ds))
    # the cost and the Hessian (Frobenius norm) share the bound
    worst = extrapolation_defect(cases)
    assert worst < 1e-9
    report(4, "exact extrapolation", f"cost_or_hess_frob_dev={worst:.2e}")


def test_criterion_05_ground_state_identity():
    rng = np.random.default_rng(31)
    kinds = ("pd", "nd", "indef")
    s_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    systems = []
    for i in range(20):
        n_sites = int(2 ** rng.integers(1, 5))
        a = random_system_matrix(rng, n_sites, kinds[i % 3])
        b = rng.normal(size=n_sites)
        systems.append(prepare(a, b))
    worst_res = ground_state_defect(systems, s_values)
    assert worst_res < 1e-10
    worst_gap = np.inf
    for system in systems:
        model = build_cost_model(system)
        for s in s_values:
            eigs = np.linalg.eigvalsh(assemble_hamiltonian(model, s))
            scale = float(np.abs(eigs).max())
            worst_gap = min(worst_gap, eigs[1] / scale)
            assert eigs[1] > 1e-8 * scale
    report(
        5,
        "ground-state identity",
        f"residual={worst_res:.2e} min_rel_gap={worst_gap:.2e}",
    )


def test_criterion_06_householder_algebra():
    rng = np.random.default_rng(41)
    vectors = []
    worst_kappa = 0.0
    for n_dim in (2, 4, 8, 16, 32, 64):
        b = rng.normal(size=n_dim)
        vectors.append(b)
        s_mat = householder(b)
        a = random_system_matrix(rng, n_dim, "pd")
        before = np.linalg.cond(a)
        after = np.linalg.cond(s_mat @ a @ s_mat.T)
        worst_kappa = max(worst_kappa, abs(after - before) / before)
    worst_alg = householder_defect(vectors)
    assert worst_alg < 1e-12
    assert worst_kappa < 1e-10
    report(
        6,
        "householder algebra",
        f"algebra_dev={worst_alg:.2e} kappa_drift={worst_kappa:.2e}",
    )


def test_criterion_07_small_case_exact_solve():
    values = {}
    for n, d in ((2, 1), (3, 2)):
        cfg = config_from_dict(
            {
                "problem": {"conductivity": "constant", "source": "point"},
                "solver": {"n": n, "d": d, "T": 50, "schedule": "hessian"},
            }
        )
        result = run_single(cfg)
        values[(n, d)] = result.report.infidelity
        assert result.report.infidelity < 1e-4
    detail = " ".join(f"I(n={n},d={d})={v:.2e}" for (n, d), v in values.items())
    report(7, "small-case exact solve", detail)


def test_criterion_08_reference_quality_band():
    cfg = config_from_dict(
        {
            "problem": {"conductivity": "constant", "source": "point"},
            "solver": {"n": 4, "d": 2, "T": 100, "schedule": "dynamic"},
        }
    )
    result = run_single(cfg)
    infid = result.report.infidelity
    acc = result.report.accuracy
    assert infid <= 0.05
    assert acc >= 0.99
    report(8, "reference quality band", f"infidelity={infid:.4f} accuracy={acc:.5f}")


def test_criterion_09_schedule_comparison_trend():
    values = {}
    for mode in ("dynamic", "fixed"):
        cfg = config_from_dict(
            {
                "problem": {"conductivity": "constant", "source": "point"},
                "solver": {"n": 6, "d": 1, "T": 10, "schedule": mode},
            }
        )
        values[mode] = run_single(cfg).report.infidelity
    assert values["dynamic"] < values["fixed"]
    report(
        9,
        "schedule comparison trend",
        f"dynamic={values['dynamic']:.9e} < fixed={values['fixed']:.9e}",
    )


def test_criterion_10_warm_start_efficiency():
    details = []
    for n in (4, 5):
        cfg = config_from_dict(
            {
                "problem": {"conductivity": "noisy_constant", "sigma": 0.2},
                "solver": {"n": n, "d": 2, "T": 50, "schedule": "hessian"},
            }
        )
        ratios = []
        for seed in range(10):
            result = run_single(cfg, seed=seed)
            ratios.append(result.trace.t / result.trace.T)
        ratios = np.array(ratios)
        assert ratios.mean() <= 0.7
        assert ratios.min() <= 0.2
        details.append(f"n={n}: mean={ratios.mean():.3f} min={ratios.min():.3f}")
    report(10, "warm-start efficiency", "  ".join(details))


def test_criterion_11_source_exponent_trend():
    means = {}
    for l in (0.0, 2.0, 5.0):
        cfg = config_from_dict(
            {
                "problem": {
                    "conductivity": "noisy_constant",
                    "sigma": 0.2,
                    "source": "exponential",
                    "l": l,
                },
                "solver": {"n": 5, "d": 2, "T": 50, "schedule": "hessian"},
            }
        )
        infids = [run_single(cfg, seed=seed).report.infidelity for seed in range(10)]
        means[l] = float(np.mean(infids))
    assert means[0.0] <= means[5.0]
    detail = " ".join(f"I(l={l:g})={v:.3f}" for l, v in means.items())
    report(11, "source exponent trend", detail)


def test_criterion_12_deterministic_traces():
    cfg = config_from_dict(
        {
            "problem": {"conductivity": "noisy_linear"},
            "solver": {"n": 3, "d": 1, "T": 10, "schedule": "hessian"},
            "seed": 5,
        }
    )
    first = dump_trace(trace_payload(cfg, run_single(cfg))).encode()
    second = dump_trace(trace_payload(cfg, run_single(cfg))).encode()
    assert first == second
    report(12, "deterministic traces", f"bytes={len(first)} identical=True")


def test_smoke_eight_qubit_run():
    cfg = config_from_dict(
        {
            "problem": {"conductivity": "constant", "source": "point"},
            "solver": {"n": 8, "d": 2, "T": 10, "schedule": "dynamic"},
        }
    )
    result = run_single(cfg)
    payload = json.loads(dump_trace(trace_payload(cfg, result)))
    assert payload["schema"] == "avqls-trace/2"
    assert payload["run"]["t"] == len(payload["steps"]) >= 1
    assert payload["steps"][-1]["s"] == 1.0
    assert 0.0 <= payload["report"]["infidelity"] <= 1.0
    assert np.isfinite(payload["run"]["final_cost"])
    print(
        f"smoke (n=8): PASS  t={payload['run']['t']} "
        f"infidelity={payload['report']['infidelity']:.3f}"
    )
