"""Property tests over random small datasets, degenerate ones included: fit
stays finite and descends, the surrogate touches the risk at each update's
anchor and the update does not raise it (check's gates, plain and
extrapolating fits), and fit agrees with the reference minimizer on
well-posed problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlsvm import (
    Dataset,
    FitError,
    FitOptions,
    Init,
    Loss,
    Penalty,
    RiskSpec,
    fit,
    smoothed_risk,
)
from irlsvm.engine import ANCHOR_SLACK, DESCENT_SLACK, SURROGATE_SLACK, _violations

from helpers import ALL_COMBOS
from oracle import reference_minimize

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def datasets(draw, max_exponent=150, degenerate=True):
    """Up to 12 samples and 5 features, scaled by 10^k for k in
    [-3, max_exponent]. With degenerate, a sample may hold one class only,
    duplicate a column or carry a constant one, and q > n is drawn too."""
    n = draw(st.integers(1 if degenerate else 6, 12))
    q = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(n, q)) * 10.0 ** draw(st.integers(-3, max_exponent))
    labels = rng.choice([-1.0, 1.0], size=n)
    if degenerate:
        if q > 1 and draw(st.booleans()):
            features[:, 1] = features[:, 0]
        if draw(st.booleans()):
            features[:, -1] = features[0, -1]
        if draw(st.booleans()):
            labels[:] = labels[0]
    else:
        labels[0], labels[-1] = -1.0, 1.0
    return Dataset(features=features, labels=labels)


def specs(min_constant=0.0):
    """Any of the 12 combinations, with lambda and mu in [min_constant, 2]."""
    constants = st.floats(min_constant, 2.0)
    combos = st.sampled_from(ALL_COMBOS)
    return st.builds(lambda combo, lam, mu: RiskSpec(*combo, lam=lam, mu=mu), combos, constants, constants)


def _fit_or_none(spec, data, options):
    """fit's result, or None when it stops with FitError, the documented
    failure (exit 4 on the command line)."""
    try:
        return fit(spec, data, options)
    except FitError:
        return None


def _gap_to_reference(spec, data):
    """Relative smoothed-risk excess of fit (tolerance 1e-12) over the reference minimizer."""
    result = fit(spec, data, FitOptions(max_iterations=5000, risk_tolerance=1e-12))
    fit_risk = smoothed_risk(spec, result.theta, data)
    return (fit_risk - smoothed_risk(spec, reference_minimize(spec, data), data)) / (1.0 + abs(fit_risk))


@PROPERTY_SETTINGS
@given(datasets(), specs(), st.sampled_from([Init.ZERO, Init.WARM_START_LS_L2]))
def test_fit_stays_finite_and_descends(data, spec, init):
    result = _fit_or_none(spec, data, FitOptions(max_iterations=20, risk_tolerance=0.0, init=init))
    if result is None:
        return
    assert np.isfinite(result.theta_trajectory).all()
    assert np.isfinite(result.exact_risk_trajectory).all()
    track = result.smoothed_risk_trajectory  # the monitored risk
    assert np.isfinite(track).all()
    if result.jittered_solves == 0:
        assert (np.diff(track) <= DESCENT_SLACK * (1.0 + np.abs(track[:-1]))).all()


@PROPERTY_SETTINGS
@given(datasets(), specs(), st.sampled_from([0.0, 1e-8]))
def test_surrogate_touches_risk_and_update_lowers_it(data, spec, tolerance):
    # tolerance 1e-8 (the default) takes updates from extrapolated anchors too
    result = _fit_or_none(spec, data, FitOptions(max_iterations=10, risk_tolerance=tolerance, init=Init.ZERO))
    if result is None:
        return
    descent, anchor, surrogate = _violations(spec, result, data)
    assert anchor <= ANCHOR_SLACK
    # a jittered solve voids the descent guarantee
    if result.jittered_solves == 0:
        assert descent <= DESCENT_SLACK
        assert surrogate <= SURROGATE_SLACK


@PROPERTY_SETTINGS
@given(datasets(max_exponent=1, degenerate=False), specs(min_constant=0.05))
def test_fit_agrees_with_reference_on_well_posed_data(data, spec):
    gap = _gap_to_reference(spec, data)
    assert gap >= -1e-8
    # the hinge's two-sided agreement fails on flat directions (see below)
    if spec.loss is not Loss.HINGE:
        assert gap <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="along a flat direction of the exact hinge risk the smoothed risk has O(epsilon) curvature,"
    " so fit moves at a rate of 1 - O(epsilon) and its risk-change stop fires far from the minimizer",
)
def test_hinge_fit_reaches_the_smoothed_minimizer_along_a_flat_direction():
    # mu holds beta near 0; any alpha in (-1, 1) then minimizes the exact
    # risk, and the smoothed risk is lowest at alpha = 0
    data = Dataset(features=np.array([[2.0], [1.0], [-1.0], [0.5]]), labels=np.array([1.0, 1.0, -1.0, -1.0]))
    assert _gap_to_reference(RiskSpec(Loss.HINGE, Penalty.L1, mu=10.0), data) <= 1e-8
