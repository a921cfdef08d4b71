import json
import math

import numpy as np
import pytest

from avqls import (
    InvalidScheduleError,
    SingularMatrixError,
    condition_number,
    default_sequence,
    emit_schedule,
    next_increment,
    s_of_v,
    uniform_sequence,
    v_bounds,
)


def analytic_s(v: float, kappa: float) -> float:
    """Direct transcription of the closed-form map from v to s."""
    r = np.sqrt((1.0 + kappa**2) / (2.0 * kappa**2))
    num = np.exp(v * r) + 2.0 * kappa**2 - kappa**2 * np.exp(-v * r)
    return num / (2.0 * (1.0 + kappa**2))


def test_condition_number_diagonal():
    assert abs(condition_number(np.diag([1.0, 4.0])) - 4.0) < 1e-12
    assert abs(condition_number(np.eye(3)) - 1.0) < 1e-14


def test_condition_number_orthogonal_invariance():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    mat = q @ np.diag(rng.uniform(0.5, 5.0, 8)) @ q.T
    direct = np.linalg.cond(mat)
    assert abs(condition_number(mat) - direct) / direct < 1e-10


def test_condition_number_rejects_singular():
    with pytest.raises(SingularMatrixError):
        condition_number(np.diag([1.0, 0.0]))


def test_v_bounds_unit_kappa():
    # kappa = 1 gives v = -+ log(1 + sqrt 2) by the closed form
    v_min, v_max = v_bounds(1.0)
    expected = np.log(1.0 + np.sqrt(2.0))
    assert abs(v_max - expected) < 1e-14
    assert abs(v_min + expected) < 1e-14


def test_s_of_v_endpoints_and_midpoint():
    for kappa in (1.0, 3.0, 10.0, 1e3, 1e6):
        v_min, v_max = v_bounds(kappa)
        assert abs(s_of_v(v_min, kappa) - 0.0) < 1e-10
        assert abs(s_of_v(v_max, kappa) - 1.0) < 1e-10
    assert abs(s_of_v(0.0, 1.0) - 0.5) < 1e-14


def test_s_of_v_matches_closed_form():
    rng = np.random.default_rng(7)
    for kappa in (1.0, 2.5, 40.0, 900.0):
        v_min, v_max = v_bounds(kappa)
        for v in rng.uniform(v_min, v_max, 20):
            assert abs(s_of_v(v, kappa) - analytic_s(v, kappa)) < 1e-12


def test_s_of_v_rejects_out_of_range():
    v_min, v_max = v_bounds(2.0)
    with pytest.raises(InvalidScheduleError):
        s_of_v(v_max + 1.0, 2.0)
    with pytest.raises(InvalidScheduleError):
        s_of_v(v_min - 1.0, 2.0)


def test_default_sequence_basics():
    grid = default_sequence(1.0, 2)
    assert np.allclose(grid, [0.0, 0.5, 1.0], atol=1e-14)
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert grid.size == 3


def test_default_sequence_monotone_and_clustered():
    for kappa in (1.0, 10.0, 1e3):
        grid = default_sequence(kappa, 100)
        assert grid.size == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
    # high condition numbers concentrate points near s = 1
    dense = default_sequence(1e3, 100)
    assert np.sum(dense > 0.9) > 50


def test_larger_kappa_pushes_grid_up():
    lo = default_sequence(2.0, 50)
    hi = default_sequence(200.0, 50)
    assert np.all(hi[1:-1] >= lo[1:-1])


def test_uniform_sequence():
    assert np.allclose(uniform_sequence(4), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_schedule_validation():
    with pytest.raises(ValueError):
        default_sequence(0.5, 10)
    with pytest.raises(ValueError):
        default_sequence(math.inf, 10)
    with pytest.raises(ValueError):
        default_sequence(2.0, 0)
    with pytest.raises(ValueError):
        uniform_sequence(0)
    # 2 kappa^2 overflows here, so the v bounds are infinite and s(v) is NaN
    with pytest.raises(InvalidScheduleError, match="not finite"):
        default_sequence(1.3e154, 3)


def test_next_increment_walks_the_grid():
    grid = uniform_sequence(4)
    assert abs(next_increment(grid, 0.0) - 0.25) < 1e-14
    assert abs(next_increment(grid, 0.25) - 0.25) < 1e-14
    # from between grid points, steps to the next strictly larger node
    assert abs(next_increment(grid, 0.3) - 0.2) < 1e-14
    assert abs(next_increment(grid, 0.75) - 0.25) < 1e-14


def test_next_increment_at_the_top():
    # nothing left to step over: the increment collapses to zero
    assert next_increment(uniform_sequence(4), 1.0) == 0.0


def test_payload_round_trip():
    # the JSON schedule reads back as the exact v and s grids
    T = 5
    for kappa in (1.0, 10.0, 1000.0):
        payload = json.loads(emit_schedule(kappa, T, fmt="json"))
        assert payload["kappa"] == kappa
        assert payload["T"] == T
        assert np.array_equal(payload["v"], np.linspace(*v_bounds(kappa), T + 1))
        assert np.array_equal(payload["s"], default_sequence(kappa, T))
