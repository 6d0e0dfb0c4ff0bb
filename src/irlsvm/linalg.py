"""Weighted Gram assembly and symmetric positive-definite solves.

Every update in the engine solves a system of the form
(Y'WY + diagonal) theta = Y'W r; this module owns that plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import DesignMatrix


class SingularSystemError(RuntimeError):
    """Raised when a system stays numerically singular after jitter retries."""


@dataclass(frozen=True)
class SymmetricSystem:
    """A symmetric (q+1)x(q+1) matrix with its right-hand side."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class JitterPolicy:
    """Ridge fallback for singular systems: delta = base_scale * mean(diag),
    multiplied by growth after each failed retry."""

    base_scale: float = 1e-10
    retries: int = 3
    growth: float = 10.0


DEFAULT_JITTER = JitterPolicy()


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
        weighted = np.multiply(cols, weights, out=self._work[:, : weights.shape[0]])
        self.gram += weighted @ cols.T

    def result(self) -> np.ndarray:
        """The sum so far, made exactly symmetric by mirroring one triangle."""
        lower = np.tril_indices(self.gram.shape[0], -1)
        self.gram[lower] = self.gram.T[lower]
        return self.gram


def weighted_gram(design: DesignMatrix, weights) -> np.ndarray:
    """Y'WY with W = diag(weights); exactly symmetric (one triangle mirrored).

    Accumulated over row blocks, so the weighted copy of the rows never
    exceeds one block.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != design.n:
        raise ValueError(f"{design.n} rows but {w.shape[0]} weights")
    blocks = design.row_blocks()
    gram = _GramBlocks(design.q + 1, blocks[0].stop)
    cols = design.rows.T
    for block in blocks:
        gram.add(cols[:, block], w[block])
    return gram.result()


def weighted_rhs(design: DesignMatrix, weights, targets) -> np.ndarray:
    """Y'W r for target vector r; weights None stands for W = I."""
    r = np.asarray(targets, dtype=float).ravel()
    w = None if weights is None else np.asarray(weights, dtype=float).ravel()
    if r.shape[0] != design.n or (w is not None and w.shape[0] != design.n):
        raise ValueError("weights and targets must have one entry per row")
    rhs = np.zeros(design.q + 1)
    for block in design.row_blocks():
        v = r[block] if w is None else w[block] * r[block]
        rhs += v @ design.rows[block]
    return rhs


def solve_spd(system: SymmetricSystem, policy: JitterPolicy | None = None) -> SpdSolution:
    """Solve A x = b by Cholesky factorization, with a ridge-jitter fallback.

    If the factorization fails (A singular or numerically indefinite), a
    diagonal delta*I is added with delta = base_scale * trace(A)/(q+1),
    retrying with delta growing tenfold, before giving up. A non-finite A or
    b, e.g. from an overflowing Gram matrix, fails at once.
    """
    policy = policy or DEFAULT_JITTER
    a = np.asarray(system.matrix, dtype=float)
    b = np.asarray(system.rhs, dtype=float).ravel()
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("matrix and rhs dimensions disagree")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SingularSystemError("system matrix or right-hand side is not finite")

    delta = policy.base_scale * np.trace(a) / a.shape[0]
    jitter = 0.0
    for attempt in range(policy.retries + 1):
        try:
            factor = cho_factor(a + jitter * np.eye(a.shape[0]), lower=True, check_finite=False)
            x = cho_solve(factor, b, check_finite=False)
            if np.isfinite(x).all():
                return SpdSolution(x=x, jitter_used=jitter > 0, jitter=jitter)
        except LinAlgError:
            pass
        jitter = delta * policy.growth**attempt
    smallest = float(np.linalg.eigvalsh(a)[0])
    raise SingularSystemError(
        f"system is singular after {policy.retries} jitter retries (smallest pivot {smallest:.3e})"
    )
