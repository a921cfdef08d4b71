import sys
import threading

import numpy as np
import pytest

import avqls.cost as cost_module
from avqls import AnsatzConfig, apply_ansatz
from avqls.verify import norm_defect

from conftest import clear_start_states, dense_ansatz_state, loop_ansatz_state, product_loop_state


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


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_rows_equal_loop_engine_bitwise(n):
    # exact +-0 angles give zero amplitudes and +-pi angles near-zero cosines
    rng = np.random.default_rng(300 + n)
    for d in range(4):
        config = AnsatzConfig(n=n, d=d)
        thetas = rng.uniform(-4 * np.pi, 4 * np.pi, (8, config.n_params))
        thetas[1] = 0.0
        thetas[2] = -0.0
        thetas[3] = np.pi
        thetas[4] = -np.pi
        thetas[5, ::2], thetas[5, 1::2] = -0.0, np.pi
        thetas[6, ::2], thetas[6, 1::2] = 0.0, -np.pi
        thetas[7, ::3], thetas[7, 1::3] = -0.0, 0.0
        batch = apply_ansatz(config, thetas)
        for theta, row in zip(thetas, batch):
            assert np.array_equal(row, loop_ansatz_state(config, theta))
            signs = np.signbit(product_loop_state(config, theta))
            assert np.array_equal(np.signbit(row), signs)


def test_norm_preserved():
    rng = np.random.default_rng(42)
    cases = []
    for n in (1, 2, 4, 6, 8):
        config = AnsatzConfig(n=n, d=2)
        for _ in range(3):
            cases.append((config, rng.uniform(-10, 10, config.n_params)))
    assert norm_defect(cases) < 1e-12


def test_norm_defect_fails_on_nan_state():
    config = AnsatzConfig(n=2, d=1)
    bad = np.zeros(config.n_params)
    bad[0] = np.nan
    assert norm_defect([(config, np.zeros(config.n_params)), (config, bad)]) == np.inf


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


def random_batches(config: AnsatzConfig, seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, (*shape, config.n_params))


def test_a_result_is_unchanged_by_later_calls():
    # the layers run in a reused workspace; a result is copied out of it
    config = AnsatzConfig(n=5, d=2)
    first_thetas, *later = random_batches(config, 7, 4, 31)
    first = apply_ansatz(config, first_thetas)
    kept = first.copy()
    for thetas in later:
        assert not np.shares_memory(apply_ansatz(config, thetas), first)
        apply_ansatz(config, thetas[0])
    assert np.array_equal(first, kept)


@pytest.mark.parametrize(
    "n,d,batch", [(1, 0, 3), (3, 0, 5), (1, 2, 4), (3, 2, 1), (5, 2, 31), (8, 2, 200)]
)
def test_results_keep_their_memory_layout(n, d, batch):
    # a batch is the (B, dim) transpose of a C-ordered (dim, B) array, and one
    # state is contiguous: matmul and einsum downstream round by layout. 200
    # states at n=8 exceed the amplitudes whose workspace is kept
    config = AnsatzConfig(n=n, d=d)
    thetas = random_batches(config, n + d, batch)
    states = apply_ansatz(config, thetas)
    assert states.shape == (batch, config.dim)
    assert states.strides == (8, 8 * batch)
    assert states.T.flags.c_contiguous
    assert apply_ansatz(config, thetas[0]).strides == (8,)


def test_cached_start_states_stay_what_apply_ansatz_returns():
    # calls of the cached blocks' batch sizes reuse their workspaces
    config = AnsatzConfig(n=3, d=2)
    zero = np.zeros(config.n_params)
    blocks = (cost_module._objective_offsets, cost_module._bundle_offsets)
    clear_start_states()
    cached = [cost_module._start_states(config, block) for block in blocks]
    for seed, block in enumerate(blocks):
        apply_ansatz(config, random_batches(config, seed, len(block(config.n_params))))
    for states, block in zip(cached, blocks):
        fresh = apply_ansatz(config, zero + block(config.n_params))
        assert np.array_equal(states, fresh)
        assert np.array_equal(np.signbit(states), np.signbit(fresh))


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_empty_batch_gives_no_states(n, d):
    config = AnsatzConfig(n=n, d=d)
    states = apply_ansatz(config, np.zeros((0, config.n_params)))
    assert states.shape == (0, config.dim)


def test_threads_simulating_at_once_get_the_single_thread_results():
    # each thread keeps its own workspace; three threads on a short switch
    # interval interleave within calls
    config = AnsatzConfig(n=8, d=2)
    work = random_batches(config, 11, 3, 200, 9)
    alone = [[apply_ansatz(config, thetas) for thetas in batches] for batches in work]
    results = [None] * len(work)
    start = threading.Barrier(len(work))

    def simulate(i):
        start.wait()
        results[i] = [apply_ansatz(config, thetas) for thetas in work[i]]

    threads = [threading.Thread(target=simulate, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, alone):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
