
import numpy as np
import pytest
from numpy.testing import assert_allclose

from irlsvm import (
    FitOptions,
    Loss,
    ModelParams,
    Penalty,
    RiskSpec,
    fit,
    generate_gaussian_mixture,
    smoothed_risk,
)

from helpers import make_dataset, two_sample_dataset
from oracle import _margin_path, _penalty_path, finite_diff_gradient, reference_minimize
from risk_reference import smoothed_loss_value, smoothed_penalty_value

EPS = 1e-6


def test_ls_l2_reaches_the_analytic_solution():
    spec = RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=1.0)
    theta = reference_minimize(spec, two_sample_dataset())
    assert_allclose(theta.as_vector(), [0.0, 0.5], atol=1e-8)


def test_large_mu_drives_beta_to_zero():
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=1e3)
    theta = reference_minimize(spec, two_sample_dataset())
    assert np.abs(theta.beta).max() <= 1e-3


def test_agreement_with_fit_on_smooth_convex_problem():
    ds = generate_gaussian_mixture(200, seed=30)
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.1)
    result = fit(spec, ds, FitOptions(max_iterations=2000, risk_tolerance=1e-12))
    theta = reference_minimize(spec, ds)
    fit_obj = smoothed_risk(spec, result.theta, ds)
    oracle_obj = smoothed_risk(spec, theta, ds)
    assert abs(oracle_obj - fit_obj) <= 1e-10 * (1.0 + abs(fit_obj))


def test_deterministic():
    ds = make_dataset(seed=32, n=30, q=2)
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    a = reference_minimize(spec, ds)
    b = reference_minimize(spec, ds)
    assert a.alpha == b.alpha and (a.beta == b.beta).all()


@pytest.mark.parametrize("kind", list(Loss), ids=[k.value for k in Loss])
def test_fused_margin_path_matches_leaf_functions(kind):
    rng = np.random.default_rng(34)
    m = rng.uniform(-10, 10, 500)
    path = _margin_path(kind, EPS)
    value, slope = path(m)
    assert_allclose(value, float(np.mean(smoothed_loss_value(kind, m, EPS))), rtol=1e-14)

    def scalar_value(x):
        arr = np.array([x])
        return float(path(arr)[0])

    for x in rng.uniform(-5, 5, 10):
        fd = (scalar_value(x + 1e-6) - scalar_value(x - 1e-6)) / 2e-6
        assert_allclose(float(path(np.array([x]))[1][0]), fd, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("kind", list(Penalty), ids=[k.value for k in Penalty])
def test_fused_penalty_path_matches_leaf_functions(kind):
    rng = np.random.default_rng(35)
    # the kind's normalisation picks the parts: L2 drops mu, L1 drops lam
    spec = RiskSpec(Loss.HINGE, kind, lam=0.4, mu=0.7, epsilon=EPS)
    path = _penalty_path(spec.lam, spec.mu, EPS)
    for _ in range(50):
        beta = rng.uniform(-5, 5, 3)
        value, grad = path(beta)
        assert_allclose(value, smoothed_penalty_value(beta, spec.lam, spec.mu, EPS), rtol=1e-14)
        fd = finite_diff_gradient(lambda b: path(b)[0], beta, h=1e-7)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)


def test_finite_diff_gradient_on_quadratic():
    grad = finite_diff_gradient(lambda v: float(v @ v), np.array([1.0, 1.0]))
    assert_allclose(grad, [2.0, 2.0], rtol=1e-8)


def test_finite_diff_gradient_on_constant():
    grad = finite_diff_gradient(lambda v: 4.2, np.array([0.3, -0.7, 1.1]))
    assert_allclose(grad, np.zeros(3), atol=1e-10)


def test_finite_diff_matches_analytic_gradient_of_smoothed_risk():
    ds = make_dataset(seed=36, n=30, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=0.3, epsilon=EPS)
    rng = np.random.default_rng(36)
    theta_vec = rng.normal(size=4)

    def objective(vec):
        return smoothed_risk(spec, ModelParams.from_vector(vec), ds)

    # analytic gradient, written out independently of the library internals
    alpha, beta = theta_vec[0], theta_vec[1:]
    m = ds.labels * (alpha + ds.features @ beta)
    u = 1.0 - m
    dloss = -0.5 * (u / np.sqrt(u * u + EPS) + 1.0)
    grad_alpha = float(np.mean(dloss * ds.labels))
    grad_beta = (ds.features * (dloss * ds.labels)[:, None]).mean(axis=0) + spec.mu * beta / np.sqrt(beta * beta + EPS)
    analytic = np.concatenate(([grad_alpha], grad_beta))

    numeric = finite_diff_gradient(objective, theta_vec)
    assert_allclose(numeric, analytic, rtol=1e-4)
