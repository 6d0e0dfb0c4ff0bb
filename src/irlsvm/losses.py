"""Margin losses, scalar majorizers, and the per-iteration terms (smoothed
losses included) each loss feeds into the reweighted normal equations.

Every public function accepts scalars or numpy arrays of margins and is
pure. The loss, smoothing and sigmoid formulas live in private functions,
each of which allocates the array it fills (0-d for 0-d margins) and works
in place on it; the public functions apply them to whole margin vectors,
and _block_terms to one row block of the engine's pass at a time, in the
order its update's algebra needs them; _normal_equations turns a pass's
block sums into its update's system, in the engine pass's error state (see
engine); only _logistic_pi sets one, for the overflow its sigmoid intends.
"""

from __future__ import annotations

import numpy as np

from .core import Loss


def _loss(kind: Loss, m: np.ndarray) -> np.ndarray:
    """Per-sample loss at margins m."""
    out = np.empty_like(m)
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


def _hinge_gamma(u: np.ndarray, epsilon: float) -> np.ndarray:
    """gamma = sqrt(u^2 + eps), the smoothed |u| at u = 1 - m."""
    out = np.multiply(u, u, out=np.empty_like(u))
    out += epsilon
    return np.sqrt(out, out=out)


_UNIT_OPEN = (np.finfo(float).tiny, 1.0 - 2.0**-53)


def _logistic_pi(m: np.ndarray) -> np.ndarray:
    """Sigmoid pi = 1/(1 + exp(m)), kept strictly inside (0, 1)."""
    # past m ~ 709 exp overflows, as intended, and pi goes to 0, which the clip lifts; also outside the engine
    with np.errstate(over="ignore"):
        out = np.exp(m, out=np.empty_like(m))
    out += 1.0
    np.divide(1.0, out, out=out)
    return np.clip(out, *_UNIT_OPEN, out=out)


def _block_terms(kind: Loss, m: np.ndarray, epsilon: float, update: bool):
    """One row block's share of a pass at its margins m: (sum of the exact
    losses, sum of the smoothed losses, weights, rhs weights).

    The update's normal equations (Y'WY + diagonal) theta = Y'W r gain
    Y_b' diag(weights) Y_b on the left (Y_b'Y_b when weights is None) and
    rhs_weights' Y_b on the right (nothing when None); _normal_equations
    completes the system once per pass. Each loss's rule follows the
    algebra of its weights w and targets r:
    - hinge: w = 1/(4 gamma) and r = gamma + 1, so W r = w + 1/4: the
      right side is w'Y + 1'Y/4;
    - least squares: W = I and r = 1: the right side is 1'Y;
    - squared hinge: W = I and r = max(m, 1);
    - logistic: W = I and r = m + 4 pi (the curvature bound is 1/4): the
      right side is Y'Y theta + 4 pi'Y.
    With update False, weights and rhs weights are None. m is left as it
    is; the weights are arrays of m's shape that this call allocates.
    """
    if kind is Loss.HINGE:
        u = 1.0 - m
        gamma = _hinge_gamma(u, epsilon)
        weights = 0.25 / gamma if update else None
        # the smoothed hinge is (gamma + u)/2: max(0, u) = (|u| + u)/2 with |u| smoothed to gamma
        smoothed_sum = 0.5 * float(np.add(gamma, u, out=gamma).sum())
        loss_sum = float(np.maximum(u, 0.0, out=u).sum())
        return loss_sum, smoothed_sum, weights, weights
    loss_sum = float(_loss(kind, m).sum())
    if not update or kind is Loss.LEAST_SQUARES:
        return loss_sum, loss_sum, None, None
    if kind is Loss.SQUARED_HINGE:
        return loss_sum, loss_sum, None, np.maximum(m, 1.0)
    pi = _logistic_pi(m)
    pi *= 4.0
    return loss_sum, loss_sum, None, pi


def _normal_equations(kind: Loss, dataset, vec, gram, rhs, diag) -> tuple[np.ndarray, np.ndarray]:
    """The update's normal equations (matrix, right side) at vec from a pass's
    block sums (see _block_terms): the weighted Gram gram (summed from
    linalg._gram_products' products and made symmetric by linalg._symmetric, in
    place), or the cached Y'Y when gram is None (unit weights), plus the penalty
    diagonal diag times n, or 8n to clear the logistic surrogate's 1/(8n); and
    rhs plus, in place, the part of the right side that no block adds."""
    if kind is Loss.HINGE:
        rhs += 0.25 * dataset._column_sums
    elif kind is Loss.LEAST_SQUARES:
        rhs += dataset._column_sums
    elif kind is Loss.LOGISTIC:
        rhs += dataset._gram @ vec
    a = dataset._gram.copy() if gram is None else gram
    k = a.shape[0]
    scale = 8.0 if kind is Loss.LOGISTIC else 1.0
    # the diagonal entries of beta, through a strided view of the C-ordered matrix
    a.reshape(-1)[k + 1 :: k + 1] += scale * dataset.n * diag
    return a, rhs


def loss_value(kind: Loss, m):
    """Per-sample loss as a function of the margin m."""
    m = np.asarray(m, dtype=float)
    out = _loss(kind, m)
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
        gamma = _hinge_gamma(1.0 - m_ref, epsilon)
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
        np.multiply(d, _logistic_pi(m_ref), out=out)
        np.subtract(loss_value(Loss.LOGISTIC, m_ref), out, out=out)
        out += curvature
    return out if out.ndim else float(out)
