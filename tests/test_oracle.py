import numpy as np
import pytest
from numpy.testing import assert_allclose

from irlsvm import (
    FitOptions,
    Loss,
    ModelParams,
    Monitor,
    OracleOptions,
    Penalty,
    RiskSpec,
    finite_diff_gradient,
    fit,
    generate_gaussian_mixture,
    monitored_risk,
    smoothed_risk,
    subgradient_minimize,
)
from irlsvm.losses import loss_value, smoothed_loss_value
from irlsvm.oracle import _margin_path, _penalty_path
from irlsvm.penalties import penalty_value, smoothed_penalty_value

from helpers import make_dataset, two_sample_dataset

EPS = 1e-6


def test_ls_l2_reaches_the_analytic_solution():
    spec = RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=1.0)
    theta = subgradient_minimize(spec, two_sample_dataset(), OracleOptions(iterations=200_000))
    assert_allclose(theta.as_vector(), [0.0, 0.5], atol=1e-4)


def test_large_mu_drives_beta_to_zero():
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=1e3)
    theta = subgradient_minimize(spec, two_sample_dataset(), OracleOptions(iterations=50_000, initial_step=0.2))
    assert np.abs(theta.beta).max() <= 1e-3


def test_agreement_with_fit_on_smooth_convex_problem():
    ds = generate_gaussian_mixture(200, seed=30)
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.1)
    result = fit(spec, ds, FitOptions(max_iterations=2000, risk_tolerance=1e-12))
    theta = subgradient_minimize(spec, ds, OracleOptions(iterations=200_000, initial_step=0.5))
    fit_obj = monitored_risk(spec, result.theta, ds)
    oracle_obj = monitored_risk(spec, theta, ds)
    assert abs(oracle_obj - fit_obj) <= 1e-6 * (1.0 + abs(fit_obj))


def test_best_so_far_objective_is_nonincreasing_in_iterations():
    ds = make_dataset(seed=31, n=40, q=2)
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=0.3)
    values = []
    for iterations in (200, 2_000, 20_000):
        theta = subgradient_minimize(spec, ds, OracleOptions(iterations=iterations))
        values.append(smoothed_risk(spec, theta, ds))
    assert values[1] <= values[0] + 1e-15
    assert values[2] <= values[1] + 1e-15


def test_deterministic_given_options():
    ds = make_dataset(seed=32, n=30, q=2)
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    a = subgradient_minimize(spec, ds, OracleOptions(iterations=3_000))
    b = subgradient_minimize(spec, ds, OracleOptions(iterations=3_000))
    assert a.alpha == b.alpha and (a.beta == b.beta).all()


def test_objective_override_selects_exact_risk():
    ds = make_dataset(seed=33, n=50, q=2)
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L1, mu=0.2)
    smoothed = subgradient_minimize(spec, ds, OracleOptions(iterations=5_000))
    exact = subgradient_minimize(spec, ds, OracleOptions(iterations=5_000, objective=Monitor.EXACT))
    # distinct objectives produce distinct minimizers
    assert not np.allclose(smoothed.as_vector(), exact.as_vector(), atol=0)


@pytest.mark.parametrize("kind", list(Loss), ids=[k.value for k in Loss])
@pytest.mark.parametrize("smoothed", [False, True], ids=["exact", "smoothed"])
def test_fused_margin_path_matches_leaf_functions(kind, smoothed):
    rng = np.random.default_rng(34)
    m = rng.uniform(-10, 10, 500)
    path = _margin_path(kind, smoothed, EPS)
    value, slope = path(m)
    reference = smoothed_loss_value(kind, m, EPS) if smoothed else loss_value(kind, m)
    assert_allclose(value, float(np.mean(reference)), rtol=1e-14)

    def scalar_value(x):
        arr = np.array([x])
        return float(path(arr)[0])

    for x in rng.uniform(-5, 5, 10):
        if kind is Loss.HINGE and not smoothed and abs(x - 1.0) < 1e-3:
            continue  # kink: one-sided derivative
        fd = (scalar_value(x + 1e-6) - scalar_value(x - 1e-6)) / 2e-6
        assert_allclose(float(path(np.array([x]))[1][0]), fd, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("kind", list(Penalty), ids=[k.value for k in Penalty])
@pytest.mark.parametrize("smoothed", [False, True], ids=["exact", "smoothed"])
def test_fused_penalty_path_matches_leaf_functions(kind, smoothed):
    rng = np.random.default_rng(35)
    lam, mu = 0.4, 0.7
    path = _penalty_path(kind, lam, mu, smoothed, EPS)
    for _ in range(50):
        beta = rng.uniform(-5, 5, 3)
        value, grad = path(beta)
        reference = (
            smoothed_penalty_value(kind, beta, lam, mu, EPS) if smoothed else penalty_value(kind, beta, lam, mu)
        )
        assert_allclose(value, reference, rtol=1e-14)
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


def test_oracle_options_validation():
    with pytest.raises(ValueError):
        OracleOptions(iterations=0)
    with pytest.raises(ValueError):
        OracleOptions(initial_step=0.0)
