import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Dataset
from irlsvm.linalg import SingularSystemError, _GramBlocks, solve_spd

from helpers import make_dataset


def _one_block_gram(dataset, weights):
    """Y'WY of the dataset's whole design accumulated as one block."""
    gram = _GramBlocks(np.empty((dataset.q + 1, dataset.n)))
    gram.add(dataset._design, np.asarray(weights, dtype=float))
    return gram.result()


def test_weighted_gram_examples(two_sample):
    assert_array_equal(_one_block_gram(two_sample, np.ones(2)), [[2.0, 0.0], [0.0, 2.0]])
    assert_array_equal(_one_block_gram(two_sample, np.zeros(2)), np.zeros((2, 2)))

    ds = Dataset(features=np.array([[2.0, -1.0]]), labels=np.array([-1.0]))
    row = ds._design[:, 0]
    assert_allclose(_one_block_gram(ds, np.array([0.7])), 0.7 * np.outer(row, row), rtol=1e-15)


def test_weighted_gram_exactly_symmetric():
    ds = make_dataset(seed=8, n=67, q=5)
    rng = np.random.default_rng(8)
    gram = _one_block_gram(ds, rng.uniform(0, 3, ds.n))
    assert_array_equal(gram, gram.T)


def test_weighted_gram_near_the_float_limit_stays_finite():
    # each entry is 1.69e308: a symmetrising sum before halving would overflow
    cols = np.full((2, 1), 1.3e154)
    gram = _GramBlocks(np.empty((2, 1)))
    gram.add(cols, np.ones(1))
    result = gram.result()
    assert np.isfinite(result).all()
    assert_array_equal(result, result.T)


def test_unit_weights_give_plain_gram():
    ds = make_dataset(seed=9, n=31, q=4)
    plain = ds._design @ ds._design.T
    assert_allclose(_one_block_gram(ds, np.ones(ds.n)), plain, rtol=1e-14, atol=0)


def test_weighted_gram_validation(two_sample):
    cols = two_sample._design
    for bad in ([1.0, -1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _GramBlocks(np.empty((2, 2))).add(cols, np.array(bad))


def test_solve_spd_identity_and_diagonal():
    b = np.array([3.0, -4.0])
    sol = solve_spd(np.eye(2), b)
    assert_array_equal(sol.x, b)
    assert not sol.jitter_used

    sol = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert_allclose(sol.x, [1.0, 2.0], rtol=1e-15)


def test_solve_spd_matches_scipy_cho_solve():
    from scipy.linalg import cho_factor, cho_solve  # the reference only; the package needs no scipy

    rng = np.random.default_rng(12)
    for k in range(1, 61):
        m = rng.normal(size=(3 * k, k))
        a = m.T @ m / (3 * k) + np.eye(k)
        b = rng.normal(size=k)
        sol = solve_spd(a, b)
        assert not sol.jitter_used
        expected = cho_solve(cho_factor(a, lower=True), b)
        # a component near 0 is held to 1e-12 of the solution's scale, not of itself
        assert_allclose(sol.x, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_jittered_solve_matches_scipy_cho_solve_of_the_ridged_matrix():
    from scipy.linalg import cho_factor, cho_solve  # the reference only; the package needs no scipy

    rng = np.random.default_rng(13)
    for k in (2, 3, 8, 51):
        m = rng.normal(size=(3 * k, k))
        a = m.T @ m / (3 * k) + np.eye(k)
        zero = rng.integers(k)
        a[zero, :] = a[:, zero] = 0.0  # a zero pivot: the first factorization fails
        b = rng.normal(size=k)
        sol = solve_spd(a, b)
        assert sol.jitter_used and sol.jitter > 0
        expected = cho_solve(cho_factor(a + sol.jitter * np.eye(k), lower=True), b)
        assert_allclose(sol.x, expected, rtol=1e-12, atol=0)


def test_solve_spd_jitter_rescues_singular_system():
    sol = solve_spd(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
    assert sol.jitter_used and sol.jitter > 0
    assert_allclose(sol.x[0], 1.0, rtol=1e-6)
    assert abs(sol.x[1]) <= 1e-3


def test_solve_spd_residual_bound_on_conditioned_instances():
    rng = np.random.default_rng(10)
    for _ in range(25):
        dim = rng.integers(2, 8)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigs = np.exp(rng.uniform(np.log(1e-8), 0.0, dim))
        eigs[0], eigs[-1] = 1e-8, 1.0  # pin the condition number at 1e8
        a = (basis * eigs) @ basis.T
        a = (a + a.T) / 2.0
        x_true = rng.normal(size=dim)
        b = a @ x_true
        x = solve_spd(a, b).x
        assert np.abs(a @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


def test_solve_spd_reports_unrecoverable_singularity():
    # indefinite with zero trace: the jitter scale is zero, so retries cannot help
    with pytest.raises(SingularSystemError, match="pivot"):
        solve_spd(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_solve_spd_overflowing_solution_is_singular_without_a_warning():
    # the factor exists, but x = 1e10 / 1e-300 is beyond float range at every jitter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="pivot"):
            solve_spd(np.array([[1e-300]]), np.array([1e10]))


def test_non_finite_system_is_singular():
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_spd(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_spd(np.eye(2), np.array([np.nan, 1.0]))
