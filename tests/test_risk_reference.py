"""Argument checks of the leaf functions in risk_reference.py: they reject
the constants and smoothing values that RiskSpec rejects."""

import numpy as np
import pytest

from irlsvm import Loss

from risk_reference import omega_diagonal, penalty_quadratic, penalty_value, smoothed_loss_value, smoothed_penalty_value

EPS = 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_penalty_leaves_reject_out_of_range_constants(bad):
    beta = np.array([0.5, -1.0])
    with pytest.raises(ValueError, match="penalty constants"):
        penalty_value(beta, bad, 0.1)
    with pytest.raises(ValueError, match="penalty constants"):
        smoothed_penalty_value(beta, 0.1, bad, EPS)
    with pytest.raises(ValueError, match="penalty constants"):
        penalty_quadratic(beta, bad, 0.1, EPS)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_smoothed_leaves_reject_out_of_range_epsilon(bad):
    beta = np.array([0.5, -1.0])
    with pytest.raises(ValueError, match="epsilon"):
        smoothed_loss_value(Loss.HINGE, 0.5, bad)
    with pytest.raises(ValueError, match="epsilon"):
        smoothed_penalty_value(beta, 0.1, 0.1, epsilon=bad)
    with pytest.raises(ValueError, match="epsilon"):
        omega_diagonal([1.0], bad)
    with pytest.raises(ValueError, match="epsilon"):
        penalty_quadratic(beta, 0.1, 0.1, bad)
