"""Margin losses, their smoothed variants, scalar majorizers, and the
per-iteration terms each loss feeds into the reweighted normal equations.

Every function accepts scalars or numpy arrays of margins and is pure;
loss_terms takes a margin vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Loss


@dataclass(frozen=True)
class HingeState:
    """Reweighting state of the hinge loss at the current iterate.

    gamma_i = sqrt((1 - m_i)^2 + eps) bounds denominators away from zero;
    weights_i = 1/(4 gamma_i); targets_i = gamma_i + 1.
    """

    gamma: np.ndarray
    weights: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class SquaredHingeState:
    """Branch indicators and targets of the squared-hinge update.

    upsilon_i is 1 when sample i is strictly beyond the margin (1 - m_i < 0),
    else 0; targets_i is 1 on the active branch and m_i on the inactive one.
    """

    upsilon: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class LogisticState:
    """Sigmoid weights pi_i = 1/(1 + exp(m_i)) and the current margins."""

    pi: np.ndarray
    targets: np.ndarray


def loss_value(kind: Loss, m):
    """Per-sample loss as a function of the margin m."""
    m = np.asarray(m, dtype=float)
    if kind is Loss.HINGE:
        out = np.maximum(0.0, 1.0 - m)
    elif kind is Loss.LEAST_SQUARES:
        out = (1.0 - m) ** 2
    elif kind is Loss.SQUARED_HINGE:
        out = np.maximum(0.0, 1.0 - m) ** 2
    elif kind is Loss.LOGISTIC:
        # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), without overflow
        # for large |m|; out= keeps one temporary alive (a 0-d out stays 0-d)
        out = np.abs(m, out=np.empty_like(m))
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= np.minimum(m, 0.0)
    else:
        raise ValueError(f"unknown loss {kind}")
    return out if out.ndim else float(out)


def smoothed_loss_value(kind: Loss, m, epsilon: float):
    """Loss with every absolute value replaced by sqrt(u^2 + epsilon).

    Only the hinge contains an absolute value (max(0,u) = |u|/2 + u/2); the
    other losses are returned unchanged.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if kind is not Loss.HINGE:
        return loss_value(kind, m)
    m = np.asarray(m, dtype=float)
    u = 1.0 - m
    out = 0.5 * (np.sqrt(u * u + epsilon) + u)
    return out if out.ndim else float(out)


def average_loss(kind: Loss, margins) -> float:
    """Arithmetic mean of loss_value over the sample."""
    margins = np.asarray(margins, dtype=float)
    if margins.size == 0:
        raise ValueError("empty margin vector")
    return float(np.mean(loss_value(kind, margins)))


def hinge_state(margins, epsilon: float) -> HingeState:
    """Weights and targets of the hinge reweighting at the given margins."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    m = np.asarray(margins, dtype=float)
    u = 1.0 - m
    gamma = np.sqrt(u * u + epsilon)
    return HingeState(gamma=gamma, weights=0.25 / gamma, targets=gamma + 1.0)


def squared_hinge_state(margins) -> SquaredHingeState:
    """Branch split of the squared-hinge update; the tie 1 - m = 0 takes the
    active (upsilon = 0) branch."""
    m = np.asarray(margins, dtype=float)
    upsilon = (m > 1.0).astype(float)
    return SquaredHingeState(upsilon=upsilon, targets=np.maximum(m, 1.0))


_UNIT_OPEN = (np.finfo(float).tiny, 1.0 - 2.0**-53)


def logistic_state(margins) -> LogisticState:
    """Sigmoid weights of the logistic update; pi computed overflow-safely."""
    m = np.asarray(margins, dtype=float)
    # the sigmoid saturates to exact 0/1 past |m| ~ 745; keep pi strictly interior
    pi = np.negative(m, out=np.empty_like(m))
    expit(pi, out=pi)
    np.clip(pi, *_UNIT_OPEN, out=pi)
    return LogisticState(pi=pi, targets=m)


@dataclass(frozen=True)
class LossTerms:
    """What one iterate takes from the loss at its margins, each computed once.

    values and smoothed are the per-sample exact and smoothed losses; they
    are one array for a loss without an absolute value, and None when only
    the update was asked for. The surrogate's normal equations are
    Y'WY theta = Y'W targets plus penalty_scale times the penalty diagonals,
    with W = diag(weights), or W = I when weights is None.
    """

    values: np.ndarray | None
    smoothed: np.ndarray | None
    weights: np.ndarray | None
    targets: np.ndarray
    penalty_scale: float


def loss_terms(kind: Loss, margins: np.ndarray, epsilon: float, with_values: bool = True) -> LossTerms:
    """Reweighting terms at a margin vector, and with_values the exact and
    smoothed loss values there too."""
    m = np.asarray(margins, dtype=float)
    n = float(m.shape[0])
    values = loss_value(kind, m) if with_values else None
    if kind is Loss.HINGE:
        state = hinge_state(m, epsilon)
        # (gamma + 1 - m)/2 = (sqrt(u^2 + eps) + u)/2 with u = 1 - m
        smoothed = 0.5 * (state.targets - m) if with_values else None
        return LossTerms(values, smoothed, state.weights, state.targets, n)
    if kind is Loss.LEAST_SQUARES:
        return LossTerms(values, values, None, np.ones_like(m), n)
    if kind is Loss.SQUARED_HINGE:
        return LossTerms(values, values, None, squared_hinge_state(m).targets, n)
    # the logistic surrogate carries a 1/(8n) quadratic coefficient, so
    # clearing it scales the penalty diagonals by 8n instead of n
    targets = 4.0 * logistic_state(m).pi
    targets += m
    return LossTerms(values, values, None, targets, 8.0 * n)


def majorizer_value(kind: Loss, m, m_ref, epsilon: float):
    """Value at margin m of the quadratic surrogate anchored at m_ref.

    The surrogate touches the loss at m = m_ref and dominates it everywhere
    (for the hinge, both statements hold against the smoothed loss with the
    same epsilon; as epsilon -> 0 they hold against the plain hinge).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    m = np.asarray(m, dtype=float)
    m_ref = np.asarray(m_ref, dtype=float)
    u = 1.0 - m
    v = 1.0 - m_ref
    if kind is Loss.HINGE:
        gamma = np.sqrt(v * v + epsilon)
        # ((u + gamma)^2 + eps) / (4 gamma): the anchor constant eps/(4 gamma)
        # makes the surrogate exactly tangent to the smoothed hinge
        out = ((u + gamma) ** 2 + epsilon) / (4.0 * gamma)
    elif kind is Loss.LEAST_SQUARES:
        out = u * u
    elif kind is Loss.SQUARED_HINGE:
        out = np.where(v >= 0.0, u * u, (u - v) ** 2)
    elif kind is Loss.LOGISTIC:
        # curvature bound 1/4 on the logistic second derivative
        d = m - m_ref
        out = loss_value(Loss.LOGISTIC, m_ref) - expit(-m_ref) * d + d * d / 8.0
    else:
        raise ValueError(f"unknown loss {kind}")
    return out if out.ndim else float(out)
