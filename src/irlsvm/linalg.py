"""Blocked weighted Gram accumulation and symmetric positive-definite solves.

Every update in the engine solves a system of the form
(Y'WY + diagonal) theta = Y'W r; this module owns that plumbing. A solve
factors the matrix with numpy's Cholesky and substitutes forward and back on
the factor with two whole-array LAPACK solves, so its Python cost does not
grow with the number of features, and the package needs no scipy. It sets no
numpy error state (see engine): a non-finite system is solve_spd's error. It
holds no buffer between calls: each call allocates the arrays it fills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _rows_within

# Ridge fallback for singular systems: delta = JITTER_SCALE * mean(diag),
# multiplied by JITTER_GROWTH after each of JITTER_RETRIES failed retries.
JITTER_SCALE = 1e-10
JITTER_RETRIES = 3
JITTER_GROWTH = 10.0
# A Cholesky pivot L_ii^2 below PIVOT_FLOOR * A_ii is what rounding leaves of a zero pivot: the
# system is numerically singular, and its solution would drift along the null direction.
PIVOT_FLOOR = 1e-14


class SingularSystemError(RuntimeError):
    """Raised when a system stays numerically singular after jitter retries."""


@dataclass(frozen=True)
class SpdSolution:
    x: np.ndarray
    jitter_used: bool
    jitter: float


def _gram_products(cols: np.ndarray, weights: np.ndarray):
    """The k x k products whose sum is the (q+1) x b block cols' share of Y'WY, weighted by weights,
    made as they are taken through a weighted copy of at most core._rows_within(k) columns that
    this call allocates: a block of at most that many columns makes one product. The weights are
    not checked: the hinge's, 1/(4 gamma) with gamma > 0, are never negative or infinite, and a NaN
    one makes a NaN product, as an overflow makes a non-finite one."""
    k, b = cols.shape
    step = min(_rows_within(k), b)
    work = np.empty((k, step))
    for start in range(0, b, step):
        part = cols[:, start : start + step]
        weighted = np.multiply(part, weights[start : start + step], out=work[:, : part.shape[1]])
        yield weighted @ part.T


def _symmetric(gram: np.ndarray) -> np.ndarray:
    """gram, a sum of _gram_products products, made exactly symmetric in place as the mean of it and
    its transpose (floating-point addition commutes), halved first so that the sum cannot overflow."""
    gram *= 0.5
    gram += gram.T
    return gram


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

    If the factorization fails (A singular or numerically indefinite) or
    leaves a pivot at rounding level (PIVOT_FLOOR), a diagonal delta*I is
    added with delta = JITTER_SCALE * trace(A)/(q+1),
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
            ridged = a + jitter * np.eye(a.shape[0]) if jitter else a
            lower = np.linalg.cholesky(ridged)
            # compared as L_ii against sqrt(PIVOT_FLOOR * A_ii), which cannot overflow
            if (lower.diagonal() < np.sqrt(PIVOT_FLOOR * ridged.diagonal())).any():
                raise np.linalg.LinAlgError("numerically zero pivot")
            x = np.linalg.solve(lower.T, _forward_substitution(lower, b))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(x).all():
                return SpdSolution(x=x, jitter_used=jitter > 0, jitter=jitter)
        jitter = JITTER_SCALE * np.trace(a) / a.shape[0] * JITTER_GROWTH**attempt
    smallest = float(np.linalg.eigvalsh(a)[0])
    raise SingularSystemError(
        f"system is singular after {JITTER_RETRIES} jitter retries (smallest eigenvalue {smallest:.3e})"
    )
