"""Blocked weighted Gram accumulation and symmetric positive-definite solves.

Every update in the engine solves a system of the form
(Y'WY + diagonal) theta = Y'W r; this module owns that plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ridge fallback for singular systems: delta = JITTER_SCALE * mean(diag),
# multiplied by JITTER_GROWTH after each of JITTER_RETRIES failed retries.
JITTER_SCALE = 1e-10
JITTER_RETRIES = 3
JITTER_GROWTH = 10.0


class SingularSystemError(RuntimeError):
    """Raised when a system stays numerically singular after jitter retries."""


@dataclass(frozen=True)
class SymmetricSystem:
    """A symmetric (q+1)x(q+1) matrix with its right-hand side."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SpdSolution:
    x: np.ndarray
    jitter_used: bool
    jitter: float


class _GramBlocks:
    """Y'WY accumulated one row block at a time through one reused weighted
    copy of a block; each block's weights are checked as they come."""

    def __init__(self, k: int, block_rows: int):
        self.gram = np.zeros((k, k))
        self._work = np.empty((k, block_rows))

    def add(self, cols: np.ndarray, weights: np.ndarray) -> None:
        """Add the block whose (q+1) x b columns are cols, weighted by weights."""
        # min >= 0 is False when any weight is NaN
        if not (weights.min() >= 0.0 and np.isfinite(weights.max())):
            raise ValueError("weights must be finite and nonnegative")
        # an overflow shows as a non-finite Gram, which solve_spd rejects
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = np.multiply(cols, weights, out=self._work[:, : weights.shape[0]])
            self.gram += weighted @ cols.T

    def result(self) -> np.ndarray:
        """The sum so far, made exactly symmetric by mirroring one triangle."""
        lower = np.tril_indices(self.gram.shape[0], -1)
        self.gram[lower] = self.gram.T[lower]
        return self.gram


def _cholesky_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (L L') x = b: forward substitution on L, then back substitution
    on L'."""
    k = b.shape[0]
    y = np.empty(k)
    for i in range(k):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.empty(k)
    for i in reversed(range(k)):
        x[i] = (y[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x


def solve_spd(system: SymmetricSystem) -> SpdSolution:
    """Solve A x = b by Cholesky factorization, with a ridge-jitter fallback.

    If the factorization fails (A singular or numerically indefinite), a
    diagonal delta*I is added with delta = JITTER_SCALE * trace(A)/(q+1),
    retrying with delta growing tenfold, before giving up. A non-finite A or
    b, e.g. from an overflowing Gram matrix, fails at once.
    """
    a = np.asarray(system.matrix, dtype=float)
    b = np.asarray(system.rhs, dtype=float).ravel()
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("matrix and rhs dimensions disagree")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SingularSystemError("system matrix or right-hand side is not finite")

    delta = JITTER_SCALE * np.trace(a) / a.shape[0]
    jitter = 0.0
    for attempt in range(JITTER_RETRIES + 1):
        try:
            lower = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]) if jitter else a)
        except np.linalg.LinAlgError:
            pass
        else:
            # a solution that overflows is retried with more jitter, like a failed factorization
            with np.errstate(over="ignore", invalid="ignore"):
                x = _cholesky_solve(lower, b)
            if np.isfinite(x).all():
                return SpdSolution(x=x, jitter_used=jitter > 0, jitter=jitter)
        jitter = delta * JITTER_GROWTH**attempt
    smallest = float(np.linalg.eigvalsh(a)[0])
    raise SingularSystemError(
        f"system is singular after {JITTER_RETRIES} jitter retries (smallest pivot {smallest:.3e})"
    )
