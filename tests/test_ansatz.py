import numpy as np
import pytest

from avqls import AnsatzConfig, apply_ansatz

from conftest import dense_ansatz_state, loop_ansatz_state


def test_zero_angles_fix_first_basis_vector():
    config = AnsatzConfig(n=3, d=2)
    state = apply_ansatz(config, np.zeros(config.n_params))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.array_equal(state, expected)


def test_single_qubit_pi_rotation():
    config = AnsatzConfig(n=1, d=0)
    state = apply_ansatz(config, np.array([np.pi]))
    assert np.allclose(state, [0.0, 1.0], atol=1e-15)


def test_matches_dense_oracle_seed_zero():
    config = AnsatzConfig(n=2, d=1)
    rng = np.random.default_rng(0)
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    state = apply_ansatz(config, theta)
    assert np.allclose(state, dense_ansatz_state(config, theta), atol=1e-12)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 0), (2, 2), (3, 1), (3, 3)])
def test_matches_dense_oracle_small_circuits(n, d):
    config = AnsatzConfig(n=n, d=d)
    rng = np.random.default_rng(10 * n + d)
    for _ in range(5):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, config.n_params)
        fast = apply_ansatz(config, theta)
        dense = dense_ansatz_state(config, theta)
        assert np.allclose(fast, dense, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_batch_rows_equal_loop_engine(n):
    # n=1 has no CNOT ring and n=2 a ring of one CNOT
    config = AnsatzConfig(n=n, d=2)
    rng = np.random.default_rng(100 + n)
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (7, config.n_params))
    batch = apply_ansatz(config, thetas)
    assert batch.shape == (7, config.dim)
    for theta, row in zip(thetas, batch):
        reference = loop_ansatz_state(config, theta)
        assert np.array_equal(row, reference)
        assert np.array_equal(apply_ansatz(config, theta), reference)


def test_norm_preserved():
    rng = np.random.default_rng(42)
    for n in (1, 2, 4, 6, 8):
        config = AnsatzConfig(n=n, d=2)
        for _ in range(3):
            theta = rng.uniform(-10, 10, config.n_params)
            state = apply_ansatz(config, theta)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_four_pi_periodicity():
    config = AnsatzConfig(n=2, d=1)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi, config.n_params)
    base = apply_ansatz(config, theta)
    for i in range(config.n_params):
        shifted = theta.copy()
        shifted[i] += 4 * np.pi
        assert np.allclose(apply_ansatz(config, shifted), base, atol=1e-12)


def test_ring_layout():
    assert AnsatzConfig(n=1, d=1).ring == ()
    assert AnsatzConfig(n=2, d=1).ring == ((0, 1),)
    assert AnsatzConfig(n=4, d=1).ring == ((0, 1), (1, 2), (2, 3), (3, 0))


def test_parameter_count_checked():
    config = AnsatzConfig(n=2, d=1)
    with pytest.raises(ValueError, match="parameters"):
        apply_ansatz(config, np.zeros(3))


def test_batch_parameter_shape_checked():
    config = AnsatzConfig(n=2, d=1)
    with pytest.raises(ValueError, match="parameters"):
        apply_ansatz(config, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="parameters"):
        apply_ansatz(config, np.zeros((2, 2, 4)))


def test_config_validation():
    with pytest.raises(ValueError):
        AnsatzConfig(n=0, d=1)
    with pytest.raises(ValueError):
        AnsatzConfig(n=2, d=-1)

