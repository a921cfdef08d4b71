import math

import numpy as np
import pytest

import avqls.verify as verify
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
from avqls.cli import main
from avqls.schedule import S_TOL, check_s


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


def test_kappa_limit_is_where_condition_number_calls_a_matrix_singular():
    with pytest.raises(SingularMatrixError):
        condition_number(np.diag([1.0, 1e-14]))
    assert math.isfinite(condition_number(np.diag([1.0, 1.01e-14])))
    with pytest.raises(InvalidScheduleError, match=r"must be in \[1, 1e\+14\)"):
        v_bounds(1e14)
    assert all(math.isfinite(v) for v in v_bounds(math.nextafter(1e14, 0.0)))


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
    # exactly [v_min, v_max]: one ulp past either bound, or NaN, is refused
    for kappa in (1.0, 2.0, 1e6):
        v_min, v_max = v_bounds(kappa)
        outside = (
            v_max + 1.0,
            v_min - 1.0,
            math.nextafter(v_min, -math.inf),
            math.nextafter(v_max, math.inf),
            math.nan,
        )
        for v in outside:
            with pytest.raises(InvalidScheduleError, match="outside schedule bounds"):
                s_of_v(v, kappa)


def test_s_of_v_clamps_within_1e_8_of_the_unit_interval():
    # s_of_v clamps the closed form into [0, 1]; over [v_min, v_max] the
    # clamp moves it by far less than 1e-8. At kappa = 1e6 a v half of
    # 1e-9 * (v_max - v_min) below v_min would map about 7e-9 below 0, and
    # is refused rather than clamped.
    for kappa in (1.0, 2.0, 1e3, 1e6):
        v_min, v_max = v_bounds(kappa)
        for v in np.linspace(v_min, v_max, 201):
            s = s_of_v(v, kappa)
            assert 0.0 <= s <= 1.0
            assert abs(s - analytic_s(v, kappa)) < 1e-8
    v_min, v_max = v_bounds(1e6)
    v = v_min - 0.5e-9 * (v_max - v_min)
    assert -1e-8 < analytic_s(v, 1e6) < 0.0
    with pytest.raises(InvalidScheduleError, match="outside schedule bounds"):
        s_of_v(v, 1e6)


def test_s_of_v_meets_0_and_1_at_its_bounds_within_4_3e_16():
    # the closed form misses the unit interval at the bounds by round-off
    # alone, so the clamp in s_of_v never hides a real deviation
    for kappa in np.logspace(0.0, 14.0, 4000, endpoint=False):
        v_min, v_max = v_bounds(kappa)
        for v, end in ((v_min, 0.0), (v_max, 1.0)):
            assert abs(analytic_s(v, kappa) - end) <= 4.3e-16
            assert abs(s_of_v(v, kappa) - end) <= 4.3e-16


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
    # kappa at or past the singular limit is refused before any bound is computed
    with pytest.raises(InvalidScheduleError, match=r"must be in \[1, 1e\+14\)"):
        default_sequence(1.3e154, 3)


def test_default_sequence_keeps_a_grid_with_a_repeated_point():
    # at kappa 1e13 over 10000 steps s(v) saturates just below 1, and grid
    # points 9981 and 9982 round to the same double
    grid = default_sequence(1e13, 10000)
    assert grid.size == 10001
    assert grid[0] == 0.0 and grid[-1] == 1.0
    steps = np.diff(grid)
    assert np.all(steps >= 0.0)
    assert np.flatnonzero(steps == 0.0).tolist() == [9981]


def test_cli_schedule_prints_a_grid_with_a_repeated_point(capsys):
    assert main(["schedule", "--kappa", "1e13", "--steps", "10000"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 10002


def test_next_increment_walks_a_saturated_grid_to_1_in_fewer_than_T_steps():
    # the walk steps over the repeated point and every increment within S_TOL
    grid = default_sequence(1e13, 10000)
    s, increments = 0.0, []
    while s < 1.0:
        increments.append(next_increment(grid, s))
        s += increments[-1]
    assert s == 1.0
    assert min(increments[:-1]) > S_TOL
    assert len(increments) < 10000


def test_schedule_endpoint_defect_is_infinite_on_a_repeated_point(monkeypatch):
    # the defect itself tests strict increase, so the saturated grid fails it too
    assert verify.schedule_endpoint_defect((1.0,), 3) == 0.0
    assert verify.schedule_endpoint_defect((1e13,), 10000) == np.inf
    monkeypatch.setattr(verify, "default_sequence", lambda kappa, T: np.array([0.0, 0.5, 0.5, 1.0]))
    assert verify.schedule_endpoint_defect((1.0,), 3) == np.inf


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


def test_s_is_in_range_and_a_grid_point_reached_within_1e_12():
    # the round-off slack on s, written out: 5e-13 is inside it, 5e-12 outside
    for s in (-5e-13, 1.0 + 5e-13):
        check_s(s)
    for s in (-5e-12, 1.0 + 5e-12):
        with pytest.raises(ValueError, match="must lie in"):
            check_s(s)
    grid = uniform_sequence(2)
    assert next_increment(grid, 0.5 - 5e-13) == 1.0 - (0.5 - 5e-13)
    assert next_increment(grid, 0.5 - 5e-12) == 0.5 - (0.5 - 5e-12)


def test_payload_round_trip():
    # the CSV schedule reads back as the exact s grid
    T = 5
    for kappa in (1.0, 10.0, 1000.0):
        rows = [line.split(",") for line in emit_schedule(kappa, T).splitlines()]
        assert rows[0] == ["j", "s"]
        assert [int(j) for j, _ in rows[1:]] == list(range(T + 1))
        s = np.array([float(value) for _, value in rows[1:]])
        assert np.array_equal(s, default_sequence(kappa, T))
