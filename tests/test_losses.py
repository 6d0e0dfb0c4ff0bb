import numpy as np
import pytest
from numpy.testing import assert_allclose

from irlsvm import Loss
from irlsvm.losses import _block_terms, _logistic_pi, loss_value, majorizer_value

from risk_reference import smoothed_loss_value

EPS = 1e-6
TINY = 1e-300  # stands in for the eps -> 0 limit


def _update_terms(kind, m, epsilon=EPS):
    """The block rule's scratch row holding the hinge's gamma, its weights and
    its rhs weights for an update at margins m."""
    m = np.asarray(m, dtype=float)
    scratch = np.empty((3,) + m.shape)
    _loss, _smoothed, weights, rhs_weights = _block_terms(kind, m, epsilon, scratch, True)
    return scratch[1], weights, rhs_weights


def _hinge_reweighting(m, epsilon):
    """gamma, weights and targets of the hinge update at margins m; the block
    rule weights the right side by w r = w + 1/4, which gives the targets r."""
    gamma, weights, rhs_weights = _update_terms(Loss.HINGE, m, epsilon)
    assert rhs_weights is weights
    return gamma, weights, (rhs_weights + 0.25) / weights


def _targets(kind, m):
    """Targets of an unweighted (W = I) update at margins m: the block rule's
    rhs weights plus the part of Y'r that _rhs_offset adds once per pass,
    1'Y (r = 1) for least squares and Y'Y theta (r = m) for the logistic."""
    m = np.asarray(m, dtype=float)
    _gamma, weights, rhs_weights = _update_terms(kind, m)
    assert weights is None
    if kind is Loss.LEAST_SQUARES:
        assert rhs_weights is None
        return np.ones_like(m)
    return m + rhs_weights if kind is Loss.LOGISTIC else rhs_weights


def _pi(m):
    m = np.asarray(m, dtype=float)
    return _logistic_pi(m, np.empty_like(m))


def test_loss_value_examples():
    assert loss_value(Loss.HINGE, 1.0) == 0.0
    assert loss_value(Loss.HINGE, -1.0) == 2.0
    assert_allclose(loss_value(Loss.LOGISTIC, 0.0), np.log(2.0), rtol=1e-15)
    assert loss_value(Loss.SQUARED_HINGE, -1.0) == 4.0
    assert loss_value(Loss.LEAST_SQUARES, 3.0) == 4.0


def test_loss_value_vectorized_matches_scalar():
    m = np.linspace(-5, 5, 41)
    for kind in Loss:
        values = loss_value(kind, m)
        assert_allclose(values, [loss_value(kind, float(x)) for x in m], rtol=1e-15)


def test_logistic_loss_is_overflow_safe():
    assert loss_value(Loss.LOGISTIC, -1000.0) == 1000.0
    assert loss_value(Loss.LOGISTIC, 1000.0) == 0.0
    assert np.isfinite(loss_value(Loss.LOGISTIC, np.array([-750.0, 750.0]))).all()


def test_smoothed_loss_examples():
    assert_allclose(smoothed_loss_value(Loss.HINGE, 1.0, EPS), 5e-4, rtol=1e-12)
    # high-precision evaluation of (sqrt(4 + 1e-6) + 2)/2
    assert_allclose(smoothed_loss_value(Loss.HINGE, -1.0, EPS), 2.000000124999992187500976562, rtol=1e-15)
    assert smoothed_loss_value(Loss.LEAST_SQUARES, 0.0, EPS) == 1.0


def test_smoothing_identity_for_absolute_value_free_losses():
    m = np.linspace(-4, 4, 17)
    for kind in (Loss.LEAST_SQUARES, Loss.SQUARED_HINGE, Loss.LOGISTIC):
        assert_allclose(smoothed_loss_value(kind, m, EPS), loss_value(kind, m), rtol=0, atol=0)


def test_smoothing_gap_bound():
    rng = np.random.default_rng(0)
    m = rng.uniform(-30, 30, 10_000)
    gap = smoothed_loss_value(Loss.HINGE, m, EPS) - loss_value(Loss.HINGE, m)
    assert (gap > 0).all()
    assert (gap <= np.sqrt(EPS) / 2 + 1e-15).all()


def test_hinge_reweighting_examples():
    gamma, weights, targets = _hinge_reweighting([0.0], EPS)
    assert_allclose(gamma[0], 1.000000499999875, rtol=1e-15)
    assert_allclose(weights[0], 0.24999987500009375, rtol=1e-15)
    assert_allclose(targets[0], 2.000000499999875, rtol=1e-15)

    gamma, weights, targets = _hinge_reweighting([1.0], EPS)
    assert_allclose(gamma[0], 1e-3, rtol=1e-12)
    assert_allclose(weights[0], 250.0, rtol=1e-12)
    assert_allclose(targets[0], 1.001, rtol=1e-12)

    gamma, weights, targets = _hinge_reweighting([2.0], TINY)
    assert_allclose([gamma[0], weights[0], targets[0]], [1.0, 0.25, 2.0], rtol=1e-15)


def test_hinge_reweighting_weight_identity():
    rng = np.random.default_rng(1)
    gamma, weights, _ = _hinge_reweighting(rng.uniform(-10, 10, 1000), EPS)
    assert (gamma >= np.sqrt(EPS)).all()
    assert_allclose(weights * 4.0 * gamma, 1.0, rtol=1e-15)


def test_squared_hinge_targets():
    assert list(_targets(Loss.SQUARED_HINGE, [2.0, 0.5, 1.0])) == [2.0, 1.0, 1.0]
    # targets are m beyond the margin (upsilon = 1) and 1 on the active branch, ties included
    m = np.linspace(-3, 3, 13)
    upsilon = (m > 1.0).astype(float)
    assert_allclose(_targets(Loss.SQUARED_HINGE, m), (1.0 - upsilon) + upsilon * m, rtol=0, atol=0)
    assert list(_targets(Loss.LEAST_SQUARES, [2.0, -1.0])) == [1.0, 1.0]


def test_logistic_pi_and_targets():
    m = np.array([0.0, np.log(3.0), -np.log(3.0)])
    assert_allclose(_pi(m), [0.5, 0.25, 0.75], rtol=1e-14)
    assert_allclose(_targets(Loss.LOGISTIC, m), m + 4.0 * np.array([0.5, 0.25, 0.75]), rtol=1e-14)
    big = _pi(np.array([-800.0, 800.0]))
    assert (big > 0).all() and (big < 1).all()


def test_majorizer_examples():
    # tangency at the anchor in the eps -> 0 limit
    assert_allclose(majorizer_value(Loss.HINGE, -1.0, -1.0, TINY), 2.0, rtol=1e-15)
    # active branch of the squared hinge is the loss itself
    assert majorizer_value(Loss.SQUARED_HINGE, 1.0, -1.0, EPS) == 0.0
    # high-precision values: log 2 - 1/2 + 1/8 vs log(1 + e^-1)
    assert_allclose(majorizer_value(Loss.LOGISTIC, 1.0, 0.0, EPS), 0.3181471805599453, rtol=1e-15)
    assert_allclose(loss_value(Loss.LOGISTIC, 1.0), 0.3132616875182228, rtol=1e-15)


def _reference(kind, m):
    if kind is Loss.HINGE:
        return smoothed_loss_value(kind, m, EPS)
    return loss_value(kind, m)


@pytest.mark.parametrize("kind", list(Loss), ids=[k.value for k in Loss])
def test_majorizer_tangency(kind):
    rng = np.random.default_rng(42)
    m = rng.uniform(-20, 22, 20_000)
    assert np.abs(majorizer_value(kind, m, m, EPS) - _reference(kind, m)).max() <= 1e-12


@pytest.mark.parametrize("kind", list(Loss), ids=[k.value for k in Loss])
def test_majorizer_domination(kind):
    rng = np.random.default_rng(43)
    m = rng.uniform(-20, 22, 20_000)
    m_ref = rng.uniform(-20, 22, 20_000)
    deficit = _reference(kind, m) - majorizer_value(kind, m, m_ref, EPS)
    assert deficit.max() <= 1e-12


def test_hinge_majorizer_limit_matches_plain_hinge():
    rng = np.random.default_rng(44)
    m = rng.uniform(-20, 22, 5_000)
    assert np.abs(majorizer_value(Loss.HINGE, m, m, TINY) - loss_value(Loss.HINGE, m)).max() <= 1e-12


def test_logistic_curvature_bound():
    m = np.linspace(-50, 50, 10_001)
    pi = _pi(m)
    assert (pi * (1.0 - pi) <= 0.25).all()


@pytest.mark.parametrize("kind", list(Loss), ids=[k.value for k in Loss])
def test_loss_is_convex_in_margin(kind):
    rng = np.random.default_rng(45)
    m1 = rng.uniform(-15, 15, 5_000)
    m2 = rng.uniform(-15, 15, 5_000)
    mid = loss_value(kind, (m1 + m2) / 2.0)
    assert (mid <= (loss_value(kind, m1) + loss_value(kind, m2)) / 2.0 + 1e-12).all()


@pytest.mark.parametrize("wrap", [float, np.array, None], ids=["scalar", "0-d", "array"])
def test_logistic_loss_matches_logaddexp(wrap):
    m = np.linspace(-800.0, 800.0, 160_001)
    if wrap is None:
        got = loss_value(Loss.LOGISTIC, m)
    else:
        m = m[::97]
        values = [loss_value(Loss.LOGISTIC, wrap(x)) for x in m]
        assert all(type(v) is float for v in values)
        got = np.array(values)
    ref = np.logaddexp(0.0, -m)
    assert (np.abs(got - ref) <= 1e-15 * (1.0 + np.abs(ref))).all()
