"""Blocked weighted Gram accumulation and symmetric positive-definite solves.

Every update in the engine solves a system of the form
(Y'WY + diagonal) theta = Y'W r; this module owns that plumbing. A solve
factors the matrix with numpy's Cholesky and substitutes forward and back on
the factor with two whole-array LAPACK solves, so its Python cost does not
grow with the number of features, and the package needs no scipy.
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
class SpdSolution:
    x: np.ndarray
    jitter_used: bool
    jitter: float


class _GramBlocks:
    """Y'WY accumulated one row block at a time through one reused weighted
    copy of a block, in work (k x at least the block's rows, which the
    caller may reuse across Grams); each block's weights are checked as
    they come."""

    def __init__(self, work: np.ndarray):
        self.gram = np.zeros((work.shape[0], work.shape[0]))
        self._work = work

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
        """The sum so far, made exactly symmetric as the mean of it and its
        transpose (floating-point addition commutes), halved first so that
        the sum cannot overflow."""
        self.gram *= 0.5
        # +inf against -inf gives NaN, which solve_spd rejects
        with np.errstate(invalid="ignore"):
            self.gram += self.gram.T
        return self.gram


def _forward_substitution(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with L y = b for a lower-triangular L, by one LAPACK solve.

    Reversing the rows and columns turns L into an upper triangle, whose LU
    factorization is the triangle itself (no pivot, zero multipliers), so the
    solve is a plain substitution, as the solve with L' for the second half
    of a Cholesky solve is.
    """
    return np.linalg.solve(lower[::-1, ::-1], b[::-1])[::-1]


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> SpdSolution:
    """Solve A x = b, for the symmetric matrix A and the right-hand side b, by
    Cholesky factorization A = L L' and the two triangular solves on L and
    L', with a ridge-jitter fallback.

    If the factorization fails (A singular or numerically indefinite), a
    diagonal delta*I is added with delta = JITTER_SCALE * trace(A)/(q+1),
    retrying with delta growing tenfold, before giving up. A non-finite A or
    b, e.g. from an overflowing Gram matrix, fails at once.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float).ravel()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SingularSystemError("system matrix or right-hand side is not finite")

    jitter = 0.0
    for attempt in range(JITTER_RETRIES + 1):
        # a solution that overflows is retried with more jitter, like a failed factorization
        try:
            lower = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]) if jitter else a)
            x = np.linalg.solve(lower.T, _forward_substitution(lower, b))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(x).all():
                return SpdSolution(x=x, jitter_used=jitter > 0, jitter=jitter)
        jitter = JITTER_SCALE * np.trace(a) / a.shape[0] * JITTER_GROWTH**attempt
    smallest = float(np.linalg.eigvalsh(a)[0])
    raise SingularSystemError(
        f"system is singular after {JITTER_RETRIES} jitter retries (smallest pivot {smallest:.3e})"
    )
