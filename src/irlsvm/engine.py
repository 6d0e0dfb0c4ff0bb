"""Reweighted-least-squares updates for all 12 loss x penalty combinations,
the least-squares/2-norm closed form, risk evaluation, and the fit loop.

Each update minimizes a convex quadratic surrogate of the risk anchored at
the current iterate, so the monitored risk never increases: the exact risk
for the squared-hinge and logistic losses under the 2-norm penalty, and the
smoothed risk for every combination involving the hinge loss or a 1-norm
penalty term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _BLOCK_ROWS, Dataset, DesignMatrix, FitResult, Loss, ModelParams, Penalty, RiskSpec
from .core import TerminationReason, _margin_blocks, _row_blocks, build_design_matrix
from .linalg import SingularSystemError, _GramBlocks, solve_spd
from .losses import _block_terms, _penalty_scale, _rhs_offset, majorizer_value
from .penalties import _penalty_terms, penalty_majorizer_value

WARM_START_RIDGE_FLOOR = 1e-3


class Init(Enum):
    ZERO = "zero"
    WARM_START_LS_L2 = "warm"


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls for fit().

    init may be Init.ZERO, Init.WARM_START_LS_L2 (a single ridge solve with
    constant max(lambda, 1e-3)), or an explicit ModelParams starting point.
    risk_tolerance stops the loop on a small relative change of the monitored
    risk; set it to 0 to run exactly max_iterations steps.
    """

    max_iterations: int = 50
    risk_tolerance: float = 1e-8
    init: Init | ModelParams = Init.WARM_START_LS_L2

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= self.risk_tolerance < math.inf:
            raise ValueError("risk_tolerance must be >= 0 and finite")


class FitError(RuntimeError):
    """Solver failure mid-run; carries the trajectory recorded so far."""

    def __init__(self, message, exact_trajectory, smoothed_trajectory):
        super().__init__(message)
        self.exact_trajectory = np.asarray(exact_trajectory)
        self.smoothed_trajectory = np.asarray(smoothed_trajectory)


def _pass_buffers(data: DesignMatrix | Dataset, update: bool) -> np.ndarray:
    """Block buffers of a pass over data: the margins, three loss-term rows
    and, for an update, the q+1 rows of a weighted block."""
    return np.empty((4 + (data.q + 1 if update else 0), min(data.n, _BLOCK_ROWS)))


def _pass(
    spec: RiskSpec,
    theta: ModelParams,
    data: DesignMatrix | Dataset,
    update: bool = True,
    buffers: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    """One pass over the row blocks of data at theta: the exact and smoothed
    risks there and, with update, the matrix and right-hand side of the
    normal equations of the surrogate anchored there (else None and None).
    data is the design matrix, or for the risks alone the dataset.

    Every block's margins and loss terms go through the same block-sized
    buffers (_pass_buffers; fit hands every pass the same ones, so a fit
    allocates them once), so the pass allocates no n-length array.
    """
    k = data.q + 1
    if buffers is None:
        buffers = _pass_buffers(data, update)
    gram = None
    rhs = np.zeros(k)
    loss_sum = smoothed_sum = 0.0
    for block, m in _margin_blocks(data, theta, buffers[0]):
        scratch = buffers[1:4, : m.shape[0]]
        block_loss, block_smoothed, weights, rhs_weights = _block_terms(spec.loss, m, spec.epsilon, scratch, update)
        loss_sum += block_loss
        smoothed_sum += block_smoothed
        if not update:
            continue
        rows = data.rows[block]
        if weights is not None:
            if gram is None:
                gram = _GramBlocks(buffers[4:])
            gram.add(rows.T, weights)
        if rhs_weights is not None:
            # an overflow shows as a non-finite rhs, which solve_spd rejects
            with np.errstate(over="ignore", invalid="ignore"):
                rhs += rhs_weights @ rows

    n = data.n
    penalty, smoothed_penalty, diag = _penalty_terms(theta.beta, spec.lam, spec.mu, spec.epsilon)
    exact = loss_sum / n + penalty
    smoothed = smoothed_sum / n + smoothed_penalty
    if not update:
        return exact, smoothed, None, None
    offset = _rhs_offset(spec.loss, data, theta)
    if offset is not None:
        rhs += offset
    a = data.gram.copy() if gram is None else gram.result()
    # the diagonal entries of beta, through a strided view of the C-ordered matrix
    a.reshape(-1)[k + 1 :: k + 1] += _penalty_scale(spec.loss) * n * diag
    return exact, smoothed, a, rhs


def _surrogate_values(spec: RiskSpec, iterates: np.ndarray, design: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full surrogate objectives (constants included) along consecutive
    iterates, the rows of iterates, in one blocked pass over the design.

    Returns (at, after): at[t] is the surrogate anchored at iterates[t]
    evaluated there, which equals the monitored risk, and after[t] the same
    surrogate at iterates[t + 1]. Each row block computes the margins of
    every iterate once, into one of two block-sized rows that take turns
    holding the anchor, and sums majorizer_value over the pair;
    penalty_majorizer_value adds the penalty parts. No update rule is
    involved, so the values check the update independently.
    """
    iterates = np.asarray(iterates, dtype=float)
    if iterates.ndim != 2 or iterates.shape[1] != design.q + 1:
        raise ValueError(f"iterates must be rows of {design.q + 1} parameters")
    count = iterates.shape[0]
    pair = np.empty((2, min(design.n, _BLOCK_ROWS)))
    loss_at = np.zeros(count - 1)
    loss_after = np.zeros(count - 1)
    for block in _row_blocks(design.n):
        rows = design.rows[block]
        m = pair[:, : rows.shape[0]]
        np.matmul(rows, iterates[0], out=m[0])
        for t in range(count - 1):
            anchor, update = t % 2, 1 - t % 2
            np.matmul(rows, iterates[t + 1], out=m[update])
            sums = majorizer_value(spec.loss, m, m[anchor], spec.epsilon).sum(axis=1)
            loss_at[t] += sums[anchor]
            loss_after[t] += sums[update]

    def penalty_part(beta, beta_ref):
        return penalty_majorizer_value(beta, beta_ref, spec.lam, spec.mu, spec.epsilon)

    n = design.n
    betas = iterates[:, 1:]
    at = [loss_at[t] / n + penalty_part(betas[t], betas[t]) for t in range(count - 1)]
    after = [loss_after[t] / n + penalty_part(betas[t + 1], betas[t]) for t in range(count - 1)]
    return np.array(at), np.array(after)


def risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Exact risk: average loss plus the unsmoothed penalty."""
    return _pass(spec, theta, dataset, update=False)[0]


def smoothed_risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Risk with absolute values smoothed by sqrt(u^2 + epsilon) throughout."""
    return _pass(spec, theta, dataset, update=False)[1]


def monitored_risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """The risk the descent guarantee covers (monitor_kind). It is always the
    smoothed risk: where the exact risk is monitored, the two are the same."""
    return smoothed_risk(spec, theta, dataset)


def irls_step(spec: RiskSpec, theta: ModelParams, design: DesignMatrix) -> ModelParams:
    """One reweighted update: the minimizer of the surrogate anchored at theta.

    For the least-squares loss with 2-norm penalty the surrogate is the risk
    itself, so the step returns the closed-form solution directly.
    """
    return ModelParams.from_vector(solve_spd(*_pass(spec, theta, design)[2:]).x)


def closed_form_ls_l2(design: DesignMatrix, lam: float) -> ModelParams:
    """Exact minimizer of the least-squares risk with 2-norm penalty."""
    return irls_step(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=lam), ModelParams.zeros(design.q), design)


def _initial_theta(options: FitOptions, spec: RiskSpec, design: DesignMatrix) -> ModelParams:
    if isinstance(options.init, ModelParams):
        if options.init.q != design.q:
            raise ValueError(f"explicit init has {options.init.q} features, data has {design.q}")
        return options.init
    if options.init is Init.ZERO:
        return ModelParams.zeros(design.q)
    return closed_form_ls_l2(design, max(spec.lam, WARM_START_RIDGE_FLOOR))


def fit(spec: RiskSpec, dataset: Dataset, options: FitOptions | None = None) -> FitResult:
    """Minimize the risk by repeated surrogate minimization.

    Records every iterate and its exact and smoothed risk (initial point
    included). Stops on max_iterations or when the monitored risk changes by
    at most risk_tolerance * (1 + |previous|). The monitored risk is read as
    the smoothed risk: for the combinations whose monitor is the exact risk
    the loss and penalty contain no absolute value, so their exact and
    smoothed risks are the same sums and equal bit for bit. The
    least-squares/2-norm combination is solved in one closed-form step.
    """
    options = options or FitOptions()
    design = build_design_matrix(dataset)
    closed_form = spec.loss is Loss.LEAST_SQUARES and spec.penalty is Penalty.L2
    theta = _initial_theta(options, spec, design)
    steps = 1 if closed_form else options.max_iterations
    buffers = _pass_buffers(design, update=True)
    exact, smoothed, *system = _pass(spec, theta, design, buffers=buffers)
    theta_track = [theta.as_vector()]
    exact_track = [exact]
    smoothed_track = [smoothed]
    monitored_prev = smoothed

    jittered = 0
    converged = False
    reason = TerminationReason.MAX_ITERATIONS
    for step in range(steps):
        try:
            solution = solve_spd(*system)
        except SingularSystemError as err:
            raise FitError(str(err), exact_track, smoothed_track) from err
        jittered += solution.jitter_used
        theta = ModelParams.from_vector(solution.x)
        theta_track.append(solution.x)
        # the last allowed update needs no system after it
        exact, smoothed, *system = _pass(spec, theta, design, update=step + 1 < steps, buffers=buffers)
        exact_track.append(exact)
        smoothed_track.append(smoothed)
        # tolerance 0 disables early stopping entirely (fixed-count protocol)
        if options.risk_tolerance > 0 and abs(smoothed - monitored_prev) <= options.risk_tolerance * (
            1.0 + abs(monitored_prev)
        ):
            converged = True
            reason = TerminationReason.RISK_TOLERANCE
            break
        monitored_prev = smoothed

    if closed_form:
        converged, reason = True, TerminationReason.CLOSED_FORM
    return FitResult(
        theta=theta,
        theta_trajectory=np.array(theta_track),
        exact_risk_trajectory=np.array(exact_track),
        smoothed_risk_trajectory=np.array(smoothed_track),
        iterations_run=len(exact_track) - 1,
        converged=converged,
        termination_reason=reason,
        jittered_solves=jittered,
    )
