"""Shared domain types: datasets, design matrices, hyperplane parameters,
risk specifications, and fit results.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads. The operations here are pure functions.
"""

from __future__ import annotations

import math
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

# Rows per block of a blocked pass over the design: few enough that a block's
# temporaries stay in cache, many enough that the Python loop over blocks
# costs little (at n = 10^6, q = 2 a block is 1/61 of the design and its
# weighted copy in the Gram accumulation 384 KiB).
_BLOCK_ROWS = 1 << 14


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of _BLOCK_ROWS (the last one fewer) covering n rows."""
    return [slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]


def _check_finite_rows(features: np.ndarray) -> None:
    """Raise ValueError naming the first (0-based) row that holds a non-finite
    feature; the row scan runs only once a whole-matrix check has failed."""
    if np.isfinite(features).all():
        return
    bad = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    raise ValueError(f"non-finite feature in row {bad[0]}")


def _readonly(a: np.ndarray, order: str = "K") -> np.ndarray:
    a = np.array(a, dtype=float, order=order)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """A labeled sample: feature rows t_i (n x q) and labels y_i in {-1, +1}.

    Features are used as-is; any transformation happens upstream.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n, q = features.shape
        if n < 1 or q < 1:
            raise ValueError(f"need n >= 1 samples and q >= 1 features, got n={n}, q={q}")
        if labels.shape[0] != n:
            raise ValueError(f"{n} feature rows but {labels.shape[0]} labels")
        _check_finite_rows(features)
        off = np.nonzero((labels != 1.0) & (labels != -1.0))[0]
        if off.size:
            raise ValueError(f"label in row {off[0]} is {labels[off[0]]}, must be -1 or +1")
        object.__setattr__(self, "features", _readonly(features))
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]


@dataclass
class DesignMatrix:
    """n x (q+1) matrix with rows y_i * (1, t_i); margins are rows @ theta.

    rows is stored column-major, so each block of rows is q+1 contiguous
    column pieces. A read-only column-major float array is kept as given;
    any other is copied.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.flags.writeable or not rows.flags.f_contiguous:
            rows = _readonly(rows, order="F")
        self.rows = rows

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def q(self) -> int:
        return self.rows.shape[1] - 1

    @cached_property
    def gram(self) -> np.ndarray:
        """Unit-weight Gram matrix Y'Y, cached (it is iteration-independent);
        exactly symmetric. An overflow shows as a non-finite entry, which
        solve_spd rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.rows.T @ self.rows
        g.flags.writeable = False
        return g

    @cached_property
    def column_sums(self) -> np.ndarray:
        """Column sums 1'Y, cached like gram; an overflow shows as a non-finite
        entry, which solve_spd rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = self.rows.sum(axis=0)
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
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be >= 0 and finite")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be >= 0 and finite")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be > 0 and finite")
        lam, mu = float(self.lam), float(self.mu)
        if self.penalty is Penalty.L2:
            mu = 0.0
        elif self.penalty is Penalty.L1:
            lam = 0.0
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "epsilon", float(self.epsilon))


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
    theta in the last row. jittered_solves counts the updates whose system
    needed a ridge jitter to factor: such an update no longer minimizes its
    surrogate, so the descent guarantee does not cover it.
    """

    theta: ModelParams
    theta_trajectory: np.ndarray
    exact_risk_trajectory: np.ndarray
    smoothed_risk_trajectory: np.ndarray
    iterations_run: int
    converged: bool
    termination_reason: TerminationReason
    jittered_solves: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta_trajectory", _readonly(self.theta_trajectory))
        object.__setattr__(self, "exact_risk_trajectory", _readonly(self.exact_risk_trajectory))
        object.__setattr__(self, "smoothed_risk_trajectory", _readonly(self.smoothed_risk_trajectory))
        if len(self.exact_risk_trajectory) != self.iterations_run + 1:
            raise ValueError("trajectory length must be iterations_run + 1")
        if len(self.smoothed_risk_trajectory) != len(self.exact_risk_trajectory):
            raise ValueError("trajectories must have identical length")
        if self.theta_trajectory.shape != (self.iterations_run + 1, self.theta.q + 1):
            raise ValueError("theta_trajectory must be (iterations_run + 1) x (q + 1)")


def build_design_matrix(dataset: Dataset) -> DesignMatrix:
    """Assemble the n x (q+1) matrix with rows y_i * (1, t_i).

    The features need no finiteness check here: Dataset enforced it and its
    arrays are read-only.
    """
    cols = np.empty((dataset.q + 1, dataset.n))
    cols[0] = dataset.labels
    np.multiply(dataset.features.T, dataset.labels, out=cols[1:])
    cols.flags.writeable = False
    return DesignMatrix(rows=cols.T)


def _margin_blocks(data: DesignMatrix | Dataset, theta: ModelParams, out: np.ndarray):
    """Walk data in row blocks, yielding each block's slice and its margins,
    written into the first entries of out (at least min(n, _BLOCK_ROWS) long).

    data is a design matrix, or a dataset, whose margins
    y_i * (alpha + beta.t_i) need no design built.
    """
    if theta.q != data.q:
        raise ValueError(f"theta has {theta.q} features but data has {data.q}")
    vec = theta.as_vector()
    for block in _row_blocks(data.n):
        m = out[: block.stop - block.start]
        if isinstance(data, DesignMatrix):
            np.matmul(data.rows[block], vec, out=m)
        else:
            np.matmul(data.features[block], theta.beta, out=m)
            m += theta.alpha
            m *= data.labels[block]
        yield block, m


def predict(theta: ModelParams, features: np.ndarray) -> int:
    """Predicted label sign(alpha + beta.t) for one feature vector.

    A decision value of exactly 0 returns +1 (fixed tie convention).
    """
    t = np.asarray(features, dtype=float).ravel()
    if t.shape[0] != theta.q:
        raise ValueError(f"expected {theta.q} features, got {t.shape[0]}")
    if not np.isfinite(t).all():
        raise ValueError("non-finite feature")
    return 1 if theta.alpha + theta.beta @ t >= 0 else -1


def predict_batch(theta: ModelParams, features: np.ndarray) -> np.ndarray:
    """Vector of predicted labels for an n x q feature matrix; a non-finite
    feature raises ValueError naming its (0-based) row."""
    t = np.atleast_2d(np.asarray(features, dtype=float))
    if t.shape[1] != theta.q:
        raise ValueError(f"expected {theta.q} features, got {t.shape[1]}")
    _check_finite_rows(t)
    scores = theta.alpha + t @ theta.beta
    return np.where(scores >= 0, 1.0, -1.0)
