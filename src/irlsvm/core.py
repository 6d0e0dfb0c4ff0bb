"""Shared domain types: datasets, hyperplane parameters, risk
specifications, and fit results; and the one way the package runs work in a
second process (_forked), which data_io's split read and engine's pass worker
take.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads. The operations here are pure functions, run in
their caller's numpy error state (see engine) but for prediction, which sets its own.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import signal
import warnings
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
# Bytes of each block-sized buffer whose rows hold q or q + 1 values (a weighted Gram block, a parsed
# CSV block, feature rows rebuilt from the design): a whole block up to q = 15, fewer rows beyond, so
# that the working memory does not grow with q. On 2 vCPUs a q = 50 hinge pass was no slower at 2 MiB
# than with whole blocks (6.4 MiB), and slower at 1 MiB and at 384 KiB.
_BLOCK_BYTES = 1 << 21


def _rows_within(width: int) -> int:
    """The rows of a buffer of width doubles a row: _BLOCK_ROWS, or fewer to fit in _BLOCK_BYTES (at least 1)."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * width)))


def _second_cpu() -> bool:
    """Whether a forked child can gain: fork exists and a second CPU is usable, so that the child
    runs beside this process rather than in turns with it."""
    if not hasattr(os, "fork"):
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) > 1


@contextlib.contextmanager
def _forked(work, *args):
    """A block yielding (receive, send), the parent's ends of two pipes to a forked child that runs
    work(*args, receive, send) with its own ends and then ends, whether work returns or raises: the
    parent reads on receive what the child writes to its send, and writes to send what the child
    reads on its receive. A fork that fails (no process to spare) gives the pipes of a child that
    ended at once, so that the caller's path for a failed child is its serial fallback: receive
    reads their end, and a write to send raises BrokenPipeError. When the block ends, both ends
    are closed (a child still writing meets a broken pipe), and the child is killed, if it still
    runs, and reaped."""
    child_receive, send = os.pipe()
    receive, child_send = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork in a process with threads (BLAS's): a child runs numpy on its own pipes
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            os.close(receive)  # so that the child's pipes end when the parent's ends close
            os.close(send)
            work(*args, child_receive, child_send)
        finally:
            os._exit(0)
    os.close(child_receive)
    os.close(child_send)
    try:
        yield receive, send
    finally:
        os.close(send)
        os.close(receive)
        if pid:
            os.kill(pid, signal.SIGKILL)  # a child that has sent its work is ending anyway
            os.waitpid(pid, 0)


def _received(fd: int, array: np.ndarray) -> bool:
    """Fill array with the bytes read from the pipe fd; False if the pipe ends first."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        if not (size := os.readv(fd, [view])):
            return False
        view = view[size:]
    return True


def _sent(fd: int, *arrays: np.ndarray) -> None:
    """Write the bytes of each array to the pipe fd, whole and in order."""
    for array in arrays:
        view = memoryview(array.reshape(-1).view(np.uint8))
        while view:
            view = view[os.write(fd, view) :]


def _check_finite_rows(values: np.ndarray, first: int = 0, what: str = "feature") -> None:
    """Raise ValueError naming the first row, counted from first, that holds a non-finite
    value (what it holds); the row scan runs only once a whole-matrix check has failed."""
    if np.isfinite(values).all():
        return
    bad = np.nonzero(~np.isfinite(values).all(axis=1))[0]
    raise ValueError(f"non-finite {what} in row {first + bad[0]}")


def _feature_rows(block: np.ndarray) -> np.ndarray:
    """The feature rows t_i of design columns y_i (1, t_i), exactly (y_i (y_i t_i) = t_i), row-major."""
    return np.multiply(block[1:].T, block[0, :, None], order="C")


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
        step = _rows_within(q)  # _fill's finiteness check makes a mask of each block
        rows = (slice(start, start + step) for start in range(0, n, step))
        self._fill(n, q, ((labels[block], features[block]) for block in rows))

    @classmethod
    def _filled(cls, n: int, q: int, blocks) -> Dataset:
        """A dataset filled by _fill alone: the generator's and CSV loader's way in, with no whole feature matrix."""
        return cls.__new__(cls)._fill(n, q, blocks)

    def _fill(self, n: int, q: int, blocks) -> Dataset:
        """Check and store at most n samples of q features, given as (labels, feature rows) blocks in
        sample order, each transposed into the design while it is in cache; if fewer come, the
        design is copied down to them once. A non-finite feature is reported before a bad label,
        each by its row in the sample."""
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
        if stop < n:
            design = design[:, :stop].copy()
        design.flags.writeable = False
        object.__setattr__(self, "_design", design)
        return self

    def _blocks(self, rows: int = _BLOCK_ROWS):
        """The design's (q+1) x b column blocks of rows samples (fewer in the last), in order."""
        return (self._design[:, start : start + rows] for start in range(0, self.n, rows))

    def _feature_blocks(self):
        """The samples as (labels, feature rows) blocks, each of at most _BLOCK_BYTES of feature
        rows, rebuilt from a design block as features rebuilds them: the blocks _fill takes."""
        return ((block[0], _feature_rows(block)) for block in self._blocks(_rows_within(self.q)))

    def __setattr__(self, name, value=None):
        raise AttributeError("Dataset is immutable")

    __delattr__ = __setattr__

    @property
    def features(self) -> np.ndarray:
        """The n x q feature matrix, a new read-only C-ordered array."""
        features = _feature_rows(self._design)
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
        exactly symmetric."""
        g = self._design @ self._design.T
        g.flags.writeable = False
        return g

    @cached_property
    def _column_sums(self) -> np.ndarray:
        """Column sums 1'Y, cached like the Gram."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # predict's own: an overflow is a non-finite value
        scores = theta.alpha + t @ theta.beta
    _check_finite_rows(scores[:, None], first, "decision value")
    return np.where(scores >= 0, 1.0, -1.0)
