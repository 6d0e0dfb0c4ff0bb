"""Shared domain types: datasets, hyperplane parameters, risk
specifications, and fit results.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads. The operations here are pure functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Loss(Enum):
    """Per-sample loss, always a function of the margin m = y*(alpha + beta.t)."""

    HINGE = "hinge"
    LEAST_SQUARES = "least-squares"
    SQUARED_HINGE = "squared-hinge"
    LOGISTIC = "logistic"


class Penalty(Enum):
    """Penalty on the normal vector beta; the intercept is never penalized."""

    L2 = "l2"
    L1 = "l1"
    ELASTIC_NET = "elastic"


class TerminationReason(Enum):
    MAX_ITERATIONS = "max-iterations"
    RISK_TOLERANCE = "risk-tolerance"
    CLOSED_FORM = "closed-form"


DEFAULT_EPSILON = 1e-6

# Rows per block of a walk over the design or its features: few enough that a block's temporaries
# stay in cache, many enough that the Python loop over blocks costs little (at n = 10^6, q = 2 a
# block is 1/61 of the design and its weighted copy in the engine's Gram accumulation 384 KiB).
_BLOCK_ROWS = 1 << 14

def _check_finite_rows(values: np.ndarray, first: int = 0, what: str = "feature") -> None:
    """Raise ValueError naming the first row, counted from first, that holds a non-finite
    value (what it holds); the row scan runs only once a whole-matrix check has failed."""
    if np.isfinite(values).all():
        return
    bad = np.nonzero(~np.isfinite(values).all(axis=1))[0]
    raise ValueError(f"non-finite {what} in row {first + bad[0]}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class Dataset:
    """A labeled sample: feature rows t_i (n x q) and labels y_i in {-1, +1}.

    Features are used as-is; any transformation happens upstream. The sample
    is stored once, as the engine's design: a read-only (q+1) x n C-ordered
    array whose column i is y_i (1, t_i), so that its transpose is the
    n x (q+1) matrix Y of the normal equations and its margins are
    Y theta. labels is a view of its first row; features is computed from
    it on each access, exactly, as y_i (y_i t_i) = t_i. The unit Gram Y'Y
    and the column sums 1'Y are computed once and cached.
    """

    def __init__(self, features, labels):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=float).ravel()
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n, q = features.shape
        if n < 1 or q < 1:
            raise ValueError(f"need n >= 1 samples and q >= 1 features, got n={n}, q={q}")
        if labels.shape[0] != n:
            raise ValueError(f"{n} feature rows but {labels.shape[0]} labels")
        rows = (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))
        self._fill(n, q, ((labels[block], features[block]) for block in rows))

    @classmethod
    def _filled(cls, n: int, q: int, blocks) -> Dataset:
        """A dataset filled by _fill alone: the generator's and CSV loader's way in, with no whole feature matrix."""
        return cls.__new__(cls)._fill(n, q, blocks)

    def _fill(self, n: int, q: int, blocks) -> Dataset:
        """Check and store n samples of q features, given as (labels, feature rows) blocks in sample
        order, each transposed into the design while it is in cache. A non-finite feature is
        reported before a bad label, each by its row in the sample."""
        design = np.empty((q + 1, n))
        stop, bad_label = 0, ""
        for labels, features in blocks:
            start, stop = stop, stop + labels.shape[0]
            _check_finite_rows(features, start)
            off = np.flatnonzero(np.abs(labels) != 1.0)
            if off.size:  # raised once every feature is checked; a product with it could overflow
                bad_label = bad_label or f"label in row {start + off[0]} is {labels[off[0]]}, must be -1 or +1"
                continue
            design[0, start:stop] = labels
            np.multiply(features.T, labels, out=design[1:, start:stop])
        if bad_label:
            raise ValueError(bad_label)
        design.flags.writeable = False
        object.__setattr__(self, "_design", design)
        return self

    def _blocks(self):
        """The design's (q+1) x b column blocks of _BLOCK_ROWS samples (fewer in the last), in order."""
        return (self._design[:, start : start + _BLOCK_ROWS] for start in range(0, self.n, _BLOCK_ROWS))

    def __setattr__(self, name, value=None):
        raise AttributeError("Dataset is immutable")

    __delattr__ = __setattr__

    @property
    def features(self) -> np.ndarray:
        """The n x q feature matrix, a new read-only C-ordered array."""
        features = np.multiply(self._design[1:].T, self._design[0, :, None], order="C")
        features.flags.writeable = False
        return features

    @property
    def labels(self) -> np.ndarray:
        return self._design[0]

    @property
    def n(self) -> int:
        return self._design.shape[1]

    @property
    def q(self) -> int:
        return self._design.shape[0] - 1

    @cached_property
    def _gram(self) -> np.ndarray:
        """Unit-weight Gram matrix Y'Y, cached (it is iteration-independent);
        exactly symmetric. An overflow shows as a non-finite entry, which
        solve_spd rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._design @ self._design.T
        g.flags.writeable = False
        return g

    @cached_property
    def _column_sums(self) -> np.ndarray:
        """Column sums 1'Y, cached like the Gram; an overflow shows as a
        non-finite entry, which solve_spd rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = self._design.sum(axis=1)
        s.flags.writeable = False
        return s


@dataclass(frozen=True)
class ModelParams:
    """Hyperplane parameters: intercept alpha and normal vector beta."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).ravel()
        if not np.isfinite(self.alpha) or not np.isfinite(beta).all():
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", _readonly(beta))

    @property
    def q(self) -> int:
        return self.beta.shape[0]

    def as_vector(self) -> np.ndarray:
        """Stacked (alpha, beta) vector of length q+1."""
        return np.concatenate(([self.alpha], self.beta))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "ModelParams":
        vec = np.asarray(vec, dtype=float).ravel()
        return cls(alpha=float(vec[0]), beta=vec[1:])

    @classmethod
    def zeros(cls, q: int) -> "ModelParams":
        return cls(alpha=0.0, beta=np.zeros(q))


def _constant(name: str, value, positive: bool = False) -> float:
    """value as a float if it is a real number, not a bool, that is finite and >= 0 (> 0 if
    positive): the rule of the risk constants and the risk tolerance. Else a ValueError naming it."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (value > 0 if positive else value >= 0) and value < math.inf):
        raise ValueError(f"{name} must be {'>' if positive else '>='} 0 and finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RiskSpec:
    """One of the 12 loss x penalty risk combinations plus its constants.

    lam scales the 2-norm penalty, mu the 1-norm penalty, epsilon the
    smoothing constant. For Penalty.L2 the mu field is forced to 0, for
    Penalty.L1 lam is forced to 0, so the stored values always describe the
    risk actually minimized.
    """

    loss: Loss
    penalty: Penalty
    lam: float = 0.0
    mu: float = 0.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not isinstance(self.loss, Loss):
            raise ValueError(f"loss must be a Loss, got {self.loss!r}")
        if not isinstance(self.penalty, Penalty):
            raise ValueError(f"penalty must be a Penalty, got {self.penalty!r}")
        lam = _constant("lambda", self.lam)
        mu = _constant("mu", self.mu)
        if self.penalty is Penalty.L2:
            mu = 0.0
        elif self.penalty is Penalty.L1:
            lam = 0.0
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "epsilon", _constant("epsilon", self.epsilon, positive=True))


class Monitor(Enum):
    EXACT = "exact"
    SMOOTHED = "smoothed"


def monitor_kind(spec: RiskSpec) -> Monitor:
    """Which risk the descent guarantee (and the stopping rule) applies to."""
    if spec.loss is Loss.HINGE or spec.penalty in (Penalty.L1, Penalty.ELASTIC_NET):
        return Monitor.SMOOTHED
    return Monitor.EXACT


@dataclass(frozen=True)
class FitResult:
    """Output of a fit: final parameters plus the iterates and both risk
    trajectories.

    Trajectories have one entry per recorded iterate including the initial
    point, so their length is iterations_run + 1; theta_trajectory holds
    those iterates as (alpha, beta) rows, the initial point in row 0 and
    theta in the last row. Every later iterate is the image of one update,
    the minimizer of the surrogate anchored at row t of anchor_trajectory
    (iterations_run rows): the iterate before it, or the extrapolated point
    of an accelerated fit (engine.fit). jittered_solves counts the updates
    whose system needed a ridge jitter to factor: such an update no longer
    minimizes its surrogate, so the descent guarantee does not cover it.
    """

    theta: ModelParams
    theta_trajectory: np.ndarray
    anchor_trajectory: np.ndarray
    exact_risk_trajectory: np.ndarray
    smoothed_risk_trajectory: np.ndarray
    iterations_run: int
    termination_reason: TerminationReason
    jittered_solves: int = 0

    def __post_init__(self):
        for name in ("theta_trajectory", "anchor_trajectory", "exact_risk_trajectory", "smoothed_risk_trajectory"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if len(self.exact_risk_trajectory) != self.iterations_run + 1:
            raise ValueError("trajectory length must be iterations_run + 1")
        if len(self.smoothed_risk_trajectory) != len(self.exact_risk_trajectory):
            raise ValueError("trajectories must have identical length")
        if self.theta_trajectory.shape != (self.iterations_run + 1, self.theta.q + 1):
            raise ValueError("theta_trajectory must be (iterations_run + 1) x (q + 1)")
        if self.anchor_trajectory.shape != (self.iterations_run, self.theta.q + 1):
            raise ValueError("anchor_trajectory must be iterations_run x (q + 1)")
        if self.theta.as_vector().tobytes() != self.theta_trajectory[-1].tobytes():
            raise ValueError("theta must be the last row of theta_trajectory")


def predict(theta: ModelParams, features: np.ndarray) -> int:
    """Predicted label sign(alpha + beta.t) for one feature vector, by
    predict_batch's rule: a decision value of exactly 0 returns +1."""
    return int(predict_batch(theta, np.reshape(features, (1, -1)))[0])


def predict_batch(theta: ModelParams, features: np.ndarray) -> np.ndarray:
    """Vector of predicted labels for an n x q feature matrix; a non-finite
    feature or decision value raises ValueError naming its (0-based) row."""
    return _predictions(theta, np.atleast_2d(np.asarray(features, dtype=float)))


def _predictions(theta: ModelParams, t: np.ndarray, first: int = 0) -> np.ndarray:
    """predict_batch for the rows of the matrix t, counted from first in its errors."""
    if t.shape[1] != theta.q:
        raise ValueError(f"expected {theta.q} features, got {t.shape[1]}")
    _check_finite_rows(t, first)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as a non-finite value
        scores = theta.alpha + t @ theta.beta
    _check_finite_rows(scores[:, None], first, "decision value")
    return np.where(scores >= 0, 1.0, -1.0)
