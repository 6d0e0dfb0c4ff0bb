"""Margin losses, scalar majorizers, and the per-iteration terms (smoothed
losses included) each loss feeds into the reweighted normal equations.

Every public function accepts scalars or numpy arrays of margins and is
pure. The loss, smoothing and sigmoid formulas live in private functions
that fill a given array; the public functions apply them to whole margin
vectors, and _block_terms to one row block of the engine's pass at a time,
in the order its update's algebra needs them.
"""

from __future__ import annotations

import numpy as np

from .core import Loss


def _loss_into(kind: Loss, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-sample loss at margins m, written into out."""
    if kind is Loss.HINGE:
        np.subtract(1.0, m, out=out)
        np.maximum(out, 0.0, out=out)
    elif kind is Loss.LEAST_SQUARES:
        np.subtract(1.0, m, out=out)
        np.square(out, out=out)
    elif kind is Loss.SQUARED_HINGE:
        np.subtract(1.0, m, out=out)
        np.maximum(out, 0.0, out=out)
        np.square(out, out=out)
    else:  # Loss.LOGISTIC
        # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), without overflow
        # for large |m|
        np.abs(m, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= np.minimum(m, 0.0)
    return out


def _hinge_gamma(u: np.ndarray, epsilon: float, out: np.ndarray) -> np.ndarray:
    """gamma = sqrt(u^2 + eps), the smoothed |u| at u = 1 - m, written into out."""
    np.multiply(u, u, out=out)
    out += epsilon
    return np.sqrt(out, out=out)


_UNIT_OPEN = (np.finfo(float).tiny, 1.0 - 2.0**-53)


def _logistic_pi(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sigmoid pi = 1/(1 + exp(m)), kept strictly inside (0, 1), written into out."""
    # past m ~ 709 exp overflows to inf and pi to 0, which the clip lifts
    with np.errstate(over="ignore"):
        np.exp(m, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return np.clip(out, *_UNIT_OPEN, out=out)


def _penalty_scale(kind: Loss) -> float:
    """Factor of n on the penalty diagonals in the normal equations: the
    logistic surrogate carries a 1/(8n) quadratic coefficient, so clearing
    it scales them by 8n; the other losses' by n."""
    return 8.0 if kind is Loss.LOGISTIC else 1.0


def _block_terms(kind: Loss, m: np.ndarray, epsilon: float, scratch, update: bool):
    """One row block's share of a pass at its margins m: (sum of the exact
    losses, sum of the smoothed losses, weights, rhs weights).

    The update's normal equations (Y'WY + diagonal) theta = Y'W r gain
    Y_b' diag(weights) Y_b on the left (Y_b'Y_b when weights is None) and
    rhs_weights' Y_b on the right (nothing when None); _rhs_offset is the
    part of the right side no block contributes. Each loss's rule follows
    the algebra of its weights w and targets r:
    - hinge: w = 1/(4 gamma) and r = gamma + 1, so W r = w + 1/4: the
      right side is w'Y + 1'Y/4;
    - least squares: W = I and r = 1: the right side is 1'Y;
    - squared hinge: W = I and r = max(m, 1);
    - logistic: W = I and r = m + 4 pi (the curvature bound is 1/4): the
      right side is Y'Y theta + 4 pi'Y.
    With update False, weights and rhs weights are None. scratch holds three
    arrays of m's shape, which the results occupy.
    """
    values, gamma, work = scratch
    if kind is Loss.HINGE:
        u = np.subtract(1.0, m, out=values)
        _hinge_gamma(u, epsilon, gamma)
        # the smoothed hinge is (gamma + u)/2: max(0, u) = (|u| + u)/2 with |u| smoothed to gamma
        smoothed_sum = 0.5 * float(np.add(gamma, u, out=work).sum())
        loss_sum = float(np.maximum(u, 0.0, out=u).sum())
        if not update:
            return loss_sum, smoothed_sum, None, None
        weights = np.divide(0.25, gamma, out=work)
        return loss_sum, smoothed_sum, weights, weights
    loss_sum = float(_loss_into(kind, m, values).sum())
    if not update or kind is Loss.LEAST_SQUARES:
        return loss_sum, loss_sum, None, None
    if kind is Loss.SQUARED_HINGE:
        return loss_sum, loss_sum, None, np.maximum(m, 1.0, out=work)
    pi = _logistic_pi(m, work)
    pi *= 4.0
    return loss_sum, loss_sum, None, pi


def _rhs_offset(kind: Loss, dataset, vec) -> np.ndarray | None:
    """The part of the update's right side that no row block contributes
    (see _block_terms) for the surrogate anchored at vec, or None."""
    if kind is Loss.HINGE:
        return 0.25 * dataset._column_sums
    if kind is Loss.LEAST_SQUARES:
        return dataset._column_sums
    if kind is Loss.LOGISTIC:
        # an overflow shows as a non-finite right side, which solve_spd rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return dataset._gram @ vec
    return None


def loss_value(kind: Loss, m):
    """Per-sample loss as a function of the margin m."""
    m = np.asarray(m, dtype=float)
    out = _loss_into(kind, m, np.empty_like(m))  # a 0-d out stays 0-d
    return out if out.ndim else float(out)


def majorizer_value(kind: Loss, m, m_ref, epsilon: float):
    """Value at margin m of the quadratic surrogate anchored at m_ref.

    The surrogate touches the loss at m = m_ref and dominates it everywhere
    (for the hinge, both statements hold against the smoothed loss with the
    same epsilon; as epsilon -> 0 they hold against the plain hinge).
    """
    m = np.asarray(m, dtype=float)
    m_ref = np.asarray(m_ref, dtype=float)
    # in place from u = 1 - m, so the only temporaries are of m's and m_ref's shapes
    out = np.subtract(1.0, m, out=np.empty(np.broadcast_shapes(m.shape, m_ref.shape)))
    if kind is Loss.HINGE:
        gamma = np.subtract(1.0, m_ref, out=np.empty_like(m_ref))
        _hinge_gamma(gamma, epsilon, gamma)
        # ((u + gamma)^2 + eps) / (4 gamma): the anchor constant eps/(4 gamma)
        # makes the surrogate exactly tangent to the smoothed hinge
        out += gamma
        np.square(out, out=out)
        out += epsilon
        gamma *= 4.0
        out /= gamma
    elif kind is Loss.LEAST_SQUARES:
        np.square(out, out=out)
    elif kind is Loss.SQUARED_HINGE:
        # u^2 where v = 1 - m_ref >= 0, else (u - v)^2
        out -= np.minimum(1.0 - m_ref, 0.0)
        np.square(out, out=out)
    else:  # Loss.LOGISTIC
        # curvature bound 1/4 on the logistic second derivative
        d = np.subtract(m, m_ref, out=out)
        curvature = d * d
        curvature /= 8.0
        np.multiply(d, _logistic_pi(m_ref, np.empty_like(m_ref)), out=out)
        np.subtract(loss_value(Loss.LOGISTIC, m_ref), out, out=out)
        out += curvature
    return out if out.ndim else float(out)
