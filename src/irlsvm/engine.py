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
from .core import TerminationReason, _margin_blocks, build_design_matrix, margins
from .linalg import SingularSystemError, SymmetricSystem, _GramBlocks, solve_spd
from .losses import _block_terms, _penalty_scale, majorizer_value
from .penalties import penalty_majorizer_value, penalty_quadratic, penalty_value, smoothed_penalty_value

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


def _pass(
    spec: RiskSpec, theta: ModelParams, data: DesignMatrix | Dataset, update: bool = True
) -> tuple[float, float, SymmetricSystem | None]:
    """One pass over the row blocks of data at theta: the exact and smoothed
    risks there and, with update, the normal equations of the surrogate
    anchored there (else None). data is the design matrix, or for the risks
    alone the dataset.

    Every block's margins and loss terms go through the same block-sized
    buffers, so the pass allocates no n-length array.
    """
    buffers = np.empty((5, min(data.n, _BLOCK_ROWS)))
    gram = None
    rhs = np.zeros(data.q + 1)
    loss_sum = smoothed_sum = 0.0
    for block, m in _margin_blocks(data, theta, buffers[0]):
        scratch = buffers[1:, : m.shape[0]]
        block_loss, block_smoothed, weights, targets = _block_terms(spec.loss, m, spec.epsilon, scratch, update)
        loss_sum += block_loss
        smoothed_sum += block_smoothed
        if not update:
            continue
        rows = data.rows[block]
        if weights is not None:
            if gram is None:
                gram = _GramBlocks(data.q + 1, buffers.shape[1])
            gram.add(rows.T, weights)
            targets *= weights
        # an overflow shows as a non-finite rhs, which solve_spd rejects
        with np.errstate(over="ignore", invalid="ignore"):
            rhs += targets @ rows

    n = data.n
    exact = loss_sum / n + penalty_value(spec.penalty, theta.beta, spec.lam, spec.mu)
    smoothed = smoothed_sum / n + smoothed_penalty_value(spec.penalty, theta.beta, spec.lam, spec.mu, spec.epsilon)
    if not update:
        return exact, smoothed, None
    a = data.gram.copy() if gram is None else gram.result()
    diag = penalty_quadratic(spec.penalty, theta.beta, spec.lam, spec.mu, spec.epsilon)
    a[np.diag_indices_from(a)] += _penalty_scale(spec.loss) * n * diag
    return exact, smoothed, SymmetricSystem(matrix=a, rhs=rhs)


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
    return ModelParams.from_vector(solve_spd(_pass(spec, theta, design)[2]).x)


def closed_form_ls_l2(design: DesignMatrix, lam: float) -> ModelParams:
    """Exact minimizer of the least-squares risk with 2-norm penalty."""
    return irls_step(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=lam), ModelParams.zeros(design.q), design)


def majorizer_objective(spec: RiskSpec, theta: ModelParams, anchor: ModelParams, design: DesignMatrix) -> float:
    """Full surrogate objective (constants included) at theta, anchored at
    anchor; equals the monitored risk when theta == anchor."""
    m = margins(design, theta)
    m_ref = margins(design, anchor)
    loss_part = float(np.mean(majorizer_value(spec.loss, m, m_ref, spec.epsilon)))
    return loss_part + penalty_majorizer_value(spec.penalty, theta.beta, anchor.beta, spec.lam, spec.mu, spec.epsilon)


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
    exact, smoothed, system = _pass(spec, theta, design)
    theta_track = [theta.as_vector()]
    exact_track = [exact]
    smoothed_track = [smoothed]
    monitored_prev = smoothed

    jittered = 0
    converged = False
    reason = TerminationReason.MAX_ITERATIONS
    for step in range(steps):
        try:
            solution = solve_spd(system)
        except SingularSystemError as err:
            raise FitError(str(err), exact_track, smoothed_track) from err
        jittered += solution.jitter_used
        theta = ModelParams.from_vector(solution.x)
        theta_track.append(solution.x)
        # the last allowed update needs no system after it
        exact, smoothed, system = _pass(spec, theta, design, update=step + 1 < steps)
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
