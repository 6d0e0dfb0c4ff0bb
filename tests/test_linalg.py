import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Dataset
from irlsvm.core import _BLOCK_BYTES, _BLOCK_ROWS
from irlsvm.linalg import SingularSystemError, _gram_products, _symmetric, solve_spd

from helpers import make_dataset, traced_peak


def _summed(cols, weights, gram=None):
    """gram (zeros if None) plus the _gram_products of cols weighted by weights, as a pass adds them."""
    gram = np.zeros((cols.shape[0], cols.shape[0])) if gram is None else gram
    for product in _gram_products(cols, weights):
        gram += product
    return gram


def _one_block_gram(dataset, weights):
    """Y'WY of the dataset's whole design accumulated as one block."""
    return _symmetric(_summed(dataset._design, np.asarray(weights, dtype=float)))


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
    result = _symmetric(_summed(cols, np.ones(1)))
    assert np.isfinite(result).all()
    assert_array_equal(result, result.T)


def test_unit_weights_give_plain_gram():
    ds = make_dataset(seed=9, n=31, q=4)
    plain = ds._design @ ds._design.T
    assert_allclose(_one_block_gram(ds, np.ones(ds.n)), plain, rtol=1e-14, atol=0)


def _blockwise_grams(dataset, weights):
    """Y'WY accumulated over the design blocks a pass walks, through each block's _gram_products
    made symmetric by _symmetric, and as each whole block's (block * w) @ block.T, made
    symmetric as _symmetric makes it."""
    gram = np.zeros((dataset.q + 1, dataset.q + 1))
    whole = np.zeros((dataset.q + 1, dataset.q + 1))
    start = 0
    for block in dataset._blocks():
        w = weights[start : start + block.shape[1]]
        _summed(block, w, gram)
        whole += (block * w) @ block.T
        start += block.shape[1]
    whole *= 0.5
    whole += whole.T
    return _symmetric(gram), whole


@pytest.mark.parametrize("q", [1, 2, 15])
def test_gram_blocks_within_the_budget_add_whole_block_products(q):
    # up to q = 15 a block's weighted copy fits in _BLOCK_BYTES, so each block adds one product, bit for bit
    ds = make_dataset(seed=12, n=2 * _BLOCK_ROWS + 77, q=q)
    gram, whole = _blockwise_grams(ds, np.random.default_rng(12).uniform(0, 3, ds.n))
    assert gram.tobytes() == whole.tobytes()


def test_gram_blocks_past_the_budget_add_sub_block_products():
    # at q = 50 a block's weighted copy is made a few thousand columns at a time: the sum of the
    # sub-block products differs from the whole block's in rounding only
    ds = make_dataset(seed=13, n=_BLOCK_ROWS + 77, q=50)
    weights = np.random.default_rng(13).uniform(0, 3, ds.n)
    gram, whole = _blockwise_grams(ds, weights)
    # drawing a block's products holds a part of its weighted copy at a time, within _BLOCK_BYTES,
    # and not the whole block's
    block = next(ds._blocks())
    peak = traced_peak(lambda: sum(_gram_products(block, weights[: block.shape[1]])))
    assert peak < 2 * _BLOCK_BYTES < (ds.q + 1) * _BLOCK_ROWS * 8
    assert_array_equal(gram, gram.T)
    assert_allclose(gram, whole, rtol=1e-13, atol=1e-13 * np.abs(whole).max())


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


def test_solve_spd_jitters_a_pivot_left_by_rounding():
    # the factor exists, but its second pivot is 2^-52 of its diagonal entry: rounding, not rank
    sol = solve_spd(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]), np.array([1.0, 1.0]))
    assert sol.jitter_used and sol.jitter > 0
    # the ridge's solution: along the null direction (1, -1) only rounding over the jitter, ~eps/1e-10
    assert_allclose(sol.x, [0.5, 0.5], rtol=0, atol=1e-5)


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
    with pytest.raises(SingularSystemError, match="smallest eigenvalue"):
        solve_spd(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_solve_spd_overflowing_solution_is_singular_without_a_warning():
    # the factor exists, but x = 1e10 / 1e-300 is beyond float range at every jitter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="smallest eigenvalue"):
            solve_spd(np.array([[1e-300]]), np.array([1e10]))


def test_non_finite_system_is_singular():
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_spd(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_spd(np.eye(2), np.array([np.nan, 1.0]))
