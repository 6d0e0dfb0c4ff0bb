import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Penalty
from irlsvm.penalties import (
    omega_diagonal,
    penalty_majorizer_value,
    penalty_quadratic,
    penalty_value,
    smoothed_penalty_value,
)

EPS = 1e-6
TINY = 1e-300


def test_penalty_value_examples():
    assert penalty_value(Penalty.L2, [1.0, 2.0], 0.5, 0.0) == 2.5
    assert penalty_value(Penalty.L1, [1.0, -2.0], 0.0, 1.0) == 3.0
    assert penalty_value(Penalty.ELASTIC_NET, [1.0, -2.0], 1.0, 1.0) == 8.0


def test_smoothed_penalty_examples():
    assert_allclose(smoothed_penalty_value(Penalty.L1, [0.0, 0.0], 0.0, 1.0, EPS), 2e-3, rtol=1e-12)
    beta = np.array([0.3, -1.2])
    assert smoothed_penalty_value(Penalty.L2, beta, 0.7, 0.0, EPS) == penalty_value(Penalty.L2, beta, 0.7, 0.0)
    # high-precision evaluation of sqrt(9 + 1e-6) + sqrt(16 + 1e-6)
    assert_allclose(smoothed_penalty_value(Penalty.L1, [3.0, 4.0], 0.0, 1.0, EPS), 7.000000291666660, rtol=1e-15)


def test_omega_diagonal_examples():
    assert_allclose(omega_diagonal([0.0], EPS), [0.0, 1000.0], rtol=1e-12)
    assert_allclose(omega_diagonal([3.0], TINY), [0.0, 1.0 / 3.0], rtol=1e-15)
    assert_allclose(omega_diagonal([3.0, -4.0], TINY), [0.0, 1.0 / 3.0, 0.25], rtol=1e-15)


def test_omega_diagonal_bound():
    rng = np.random.default_rng(2)
    diag = omega_diagonal(rng.normal(size=50), EPS)
    assert diag[0] == 0.0
    assert (diag[1:] <= 1.0 / np.sqrt(EPS)).all()
    assert (diag[1:] > 0).all()


def test_penalty_quadratic_examples():
    assert_array_equal(penalty_quadratic(Penalty.L2, [1.0, 2.0], 0.4, 0.9, EPS), [0.0, 0.4, 0.4])
    assert_allclose(penalty_quadratic(Penalty.L1, [0.0], 0.4, 0.2, EPS), [0.0, 100.0], rtol=1e-12)
    # lam plus (mu/2)/|v| in the eps -> 0 limit
    assert_allclose(penalty_quadratic(Penalty.ELASTIC_NET, [3.0], 1.0, 2.0, TINY), [0.0, 1.0 + 1.0 / 3.0], rtol=1e-15)


def test_penalty_quadratic_never_touches_intercept():
    for kind in Penalty:
        assert penalty_quadratic(kind, np.array([1.0, -2.0, 0.5]), 0.3, 0.7, EPS)[0] == 0.0


def test_penalty_majorizer_tangency_and_domination():
    rng = np.random.default_rng(3)
    mu = 0.8
    for _ in range(200):
        v = rng.uniform(-15, 15, 4)
        beta = rng.uniform(-15, 15, 4)
        at_anchor = penalty_majorizer_value(Penalty.L1, v, v, 0.0, mu, EPS)
        assert abs(at_anchor - smoothed_penalty_value(Penalty.L1, v, 0.0, mu, EPS)) <= 1e-12
        above = penalty_majorizer_value(Penalty.L1, beta, v, 0.0, mu, EPS)
        assert above >= smoothed_penalty_value(Penalty.L1, beta, 0.0, mu, EPS) - 1e-12


def test_penalty_majorizer_limit_equality_at_anchor_magnitude():
    # with eps -> 0 and v != 0 the surrogate meets mu*|beta| exactly at beta = +-v
    rng = np.random.default_rng(4)
    v = rng.uniform(0.1, 10, 100) * rng.choice([-1.0, 1.0], 100)
    for sign in (1.0, -1.0):
        val = penalty_majorizer_value(Penalty.L1, sign * v, v, 0.0, 1.0, TINY)
        assert abs(val - penalty_value(Penalty.L1, v, 0.0, 1.0)) <= 1e-12 * max(1.0, float(np.abs(v).sum()))


def test_elastic_majorizer_includes_both_parts():
    beta = np.array([1.0, -2.0])
    v = np.array([0.5, 0.5])
    combined = penalty_majorizer_value(Penalty.ELASTIC_NET, beta, v, 0.3, 0.7, EPS)
    l2_only = penalty_majorizer_value(Penalty.L2, beta, v, 0.3, 0.0, EPS)
    l1_only = penalty_majorizer_value(Penalty.L1, beta, v, 0.0, 0.7, EPS)
    assert_allclose(combined, l2_only + l1_only, rtol=1e-15)


def test_uniform_smoothing_gap_bound():
    rng = np.random.default_rng(5)
    mu, q = 0.9, 6
    for _ in range(500):
        beta = rng.uniform(-20, 20, q)
        gap = smoothed_penalty_value(Penalty.L1, beta, 0.0, mu, EPS) - penalty_value(Penalty.L1, beta, 0.0, mu)
        assert 0.0 < gap <= mu * q * np.sqrt(EPS)
