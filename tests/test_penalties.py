import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Loss, Penalty, RiskSpec
from irlsvm.penalties import _penalty_terms, penalty_majorizer_value

from risk_reference import omega_diagonal, penalty_quadratic, penalty_value, smoothed_penalty_value

EPS = 1e-6
TINY = 1e-300


def _constants(kind, lam, mu):
    """(lam, mu) as RiskSpec normalises them for the penalty kind."""
    spec = RiskSpec(Loss.HINGE, kind, lam=lam, mu=mu, epsilon=EPS)
    return spec.lam, spec.mu


def test_penalty_value_examples():
    assert penalty_value([1.0, 2.0], 0.5, 0.0) == 2.5
    assert penalty_value([1.0, -2.0], 0.0, 1.0) == 3.0
    assert penalty_value([1.0, -2.0], 1.0, 1.0) == 8.0


def test_smoothed_penalty_examples():
    assert_allclose(smoothed_penalty_value([0.0, 0.0], 0.0, 1.0, EPS), 2e-3, rtol=1e-12)
    beta = np.array([0.3, -1.2])
    assert smoothed_penalty_value(beta, 0.7, 0.0, EPS) == penalty_value(beta, 0.7, 0.0)
    # high-precision evaluation of sqrt(9 + 1e-6) + sqrt(16 + 1e-6)
    assert_allclose(smoothed_penalty_value([3.0, 4.0], 0.0, 1.0, EPS), 7.000000291666660, rtol=1e-15)


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
    # the 2-norm kind drops mu, the 1-norm kind lam
    assert_array_equal(penalty_quadratic([1.0, 2.0], *_constants(Penalty.L2, 0.4, 0.9), EPS), [0.0, 0.4, 0.4])
    assert_allclose(penalty_quadratic([0.0], *_constants(Penalty.L1, 0.4, 0.2), EPS), [0.0, 100.0], rtol=1e-12)
    # lam plus (mu/2)/|v| in the eps -> 0 limit
    assert_allclose(penalty_quadratic([3.0], 1.0, 2.0, TINY), [0.0, 1.0 + 1.0 / 3.0], rtol=1e-15)


@pytest.mark.parametrize("kind", list(Penalty), ids=[k.value for k in Penalty])
def test_penalty_terms_match_the_leaf_functions(kind):
    rng = np.random.default_rng(4)
    lam, mu = _constants(kind, 0.3, 0.7)
    for beta in (rng.normal(size=5), np.zeros(3), np.array([1e-4, -2e3])):
        exact, smoothed, diag = _penalty_terms(beta, lam, mu, EPS)
        assert exact == penalty_value(beta, lam, mu)
        assert smoothed == smoothed_penalty_value(beta, lam, mu, EPS)
        assert_allclose(np.broadcast_to(diag, beta.shape), penalty_quadratic(beta, lam, mu, EPS)[1:], rtol=1e-15)


def test_penalty_quadratic_never_touches_intercept():
    for kind in Penalty:
        assert penalty_quadratic(np.array([1.0, -2.0, 0.5]), *_constants(kind, 0.3, 0.7), EPS)[0] == 0.0


def _kind_reference(kind, beta, v, lam, mu, epsilon):
    """The penalty functions as the kind chose their parts before the
    constants alone did: (penalty_value, smoothed_penalty_value,
    penalty_quadratic and penalty_majorizer_value anchored at v, and
    _penalty_terms' diagonal)."""
    exact = smoothed = majorizer = 0.0
    quadratic = np.zeros(v.shape[0] + 1)
    diag = 0.0
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        ridge = lam * float(beta @ beta)
        exact += ridge
        smoothed += ridge
        majorizer += ridge
        quadratic[1:] = lam
        diag = lam
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        root = np.sqrt(beta * beta + epsilon)
        g = np.sqrt(v * v + epsilon)
        exact += mu * float(np.abs(beta).sum())
        smoothed += mu * float(root.sum())
        majorizer += 0.5 * mu * float(((beta * beta + v * v + 2.0 * epsilon) / g).sum())
        quadratic += 0.5 * mu * np.concatenate(([0.0], 1.0 / g))
        diag = diag + 0.5 * mu / root
    return exact, smoothed, quadratic, majorizer, diag


@pytest.mark.parametrize("kind", list(Penalty), ids=[k.value for k in Penalty])
@pytest.mark.parametrize("lam, mu", list(itertools.product((0.0, 0.3), (0.0, 0.7))))
def test_penalty_functions_equal_the_kind_branching_reference(kind, lam, mu):
    lam, mu = _constants(kind, lam, mu)
    rng = np.random.default_rng(6)
    for beta, v in ((rng.normal(size=4), rng.normal(size=4)), (np.zeros(3), np.array([0.0, 1e-4, -2e3]))):
        exact, smoothed, quadratic, majorizer, diag = _kind_reference(kind, beta, v, lam, mu, EPS)
        assert penalty_value(beta, lam, mu) == exact
        assert smoothed_penalty_value(beta, lam, mu, EPS) == smoothed
        assert_array_equal(penalty_quadratic(v, lam, mu, EPS), quadratic)
        assert penalty_majorizer_value(beta, v, lam, mu, EPS) == majorizer
        terms = _penalty_terms(beta, lam, mu, EPS)
        assert terms[:2] == (exact, smoothed)
        assert_array_equal(np.broadcast_to(terms[2], beta.shape), np.broadcast_to(diag, beta.shape))


def test_a_zero_constant_adds_nothing_where_its_part_overflows():
    # sum beta_j^2 overflows and sum |beta_j| does not; the kind-branching elastic net gave 0 * inf = nan
    beta = np.array([1e155, -1e155])
    assert penalty_value(beta, 0.0, 0.7) == 0.7 * 2e155
    # the other way round: the 2-norm part overflows, and so would sqrt(beta_j^2 + eps)
    with np.errstate(over="ignore"):
        assert smoothed_penalty_value(beta, 0.3, 0.0, EPS) == np.inf
        assert _penalty_terms(beta, 0.3, 0.0, EPS) == (np.inf, np.inf, 0.3)


def test_penalty_majorizer_tangency_and_domination():
    rng = np.random.default_rng(3)
    mu = 0.8
    for _ in range(200):
        v = rng.uniform(-15, 15, 4)
        beta = rng.uniform(-15, 15, 4)
        at_anchor = penalty_majorizer_value(v, v, 0.0, mu, EPS)
        assert abs(at_anchor - smoothed_penalty_value(v, 0.0, mu, EPS)) <= 1e-12
        above = penalty_majorizer_value(beta, v, 0.0, mu, EPS)
        assert above >= smoothed_penalty_value(beta, 0.0, mu, EPS) - 1e-12


def test_penalty_majorizer_limit_equality_at_anchor_magnitude():
    # with eps -> 0 and v != 0 the surrogate meets mu*|beta| exactly at beta = +-v
    rng = np.random.default_rng(4)
    v = rng.uniform(0.1, 10, 100) * rng.choice([-1.0, 1.0], 100)
    for sign in (1.0, -1.0):
        val = penalty_majorizer_value(sign * v, v, 0.0, 1.0, TINY)
        assert abs(val - penalty_value(v, 0.0, 1.0)) <= 1e-12 * max(1.0, float(np.abs(v).sum()))


def test_elastic_majorizer_includes_both_parts():
    beta = np.array([1.0, -2.0])
    v = np.array([0.5, 0.5])
    combined = penalty_majorizer_value(beta, v, 0.3, 0.7, EPS)
    l2_only = penalty_majorizer_value(beta, v, 0.3, 0.0, EPS)
    l1_only = penalty_majorizer_value(beta, v, 0.0, 0.7, EPS)
    assert_allclose(combined, l2_only + l1_only, rtol=1e-15)


def test_uniform_smoothing_gap_bound():
    rng = np.random.default_rng(5)
    mu, q = 0.9, 6
    for _ in range(500):
        beta = rng.uniform(-20, 20, q)
        gap = smoothed_penalty_value(beta, 0.0, mu, EPS) - penalty_value(beta, 0.0, mu)
        assert 0.0 < gap <= mu * q * np.sqrt(EPS)
