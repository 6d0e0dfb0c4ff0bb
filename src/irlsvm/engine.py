"""Reweighted-least-squares updates for all 12 loss x penalty combinations,
the least-squares/2-norm closed form, risk evaluation, and the fit loop.

Each update minimizes a convex quadratic surrogate of the risk anchored at
the current iterate, so the monitored risk never increases: the exact risk
for the squared-hinge and logistic losses under the 2-norm penalty, and the
smoothed risk for every combination involving the hinge loss or a 1-norm
penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, DesignMatrix, FitResult, Loss, ModelParams, Penalty, RiskSpec, TerminationReason, build_design_matrix, margins
from .linalg import SingularSystemError, SymmetricSystem, solve_spd, weighted_gram, weighted_rhs
from .losses import LossTerms, loss_terms, majorizer_value
from .penalties import penalty_majorizer_value, penalty_quadratic, penalty_value, smoothed_penalty_value

WARM_START_RIDGE_FLOOR = 1e-3


class Monitor(Enum):
    EXACT = "exact"
    SMOOTHED = "smoothed"


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
        if self.risk_tolerance < 0:
            raise ValueError("risk_tolerance must be >= 0")


class FitError(RuntimeError):
    """Solver failure mid-run; carries the trajectory recorded so far."""

    def __init__(self, message, exact_trajectory, smoothed_trajectory):
        super().__init__(message)
        self.exact_trajectory = np.asarray(exact_trajectory)
        self.smoothed_trajectory = np.asarray(smoothed_trajectory)


def monitor_kind(spec: RiskSpec) -> Monitor:
    """Which risk the descent guarantee (and the stopping rule) applies to."""
    if spec.loss is Loss.HINGE or spec.penalty in (Penalty.L1, Penalty.ELASTIC_NET):
        return Monitor.SMOOTHED
    return Monitor.EXACT


def _evaluate(spec: RiskSpec, theta: ModelParams, m: np.ndarray) -> tuple[LossTerms, float, float]:
    """The loss terms at margins m of theta, and the exact and smoothed risks
    from those same loss values."""
    terms = loss_terms(spec.loss, m, spec.epsilon)
    loss_mean = float(np.mean(terms.values))
    smoothed_mean = loss_mean if terms.smoothed is terms.values else float(np.mean(terms.smoothed))
    exact = loss_mean + penalty_value(spec.penalty, theta.beta, spec.lam, spec.mu)
    smoothed = smoothed_mean + smoothed_penalty_value(spec.penalty, theta.beta, spec.lam, spec.mu, spec.epsilon)
    return terms, exact, smoothed


def _dataset_risks(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> tuple[float, float]:
    m = dataset.labels * (theta.alpha + dataset.features @ theta.beta)
    _terms, exact, smoothed = _evaluate(spec, theta, m)
    return exact, smoothed


def risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Exact risk: average loss plus the unsmoothed penalty."""
    return _dataset_risks(spec, theta, dataset)[0]


def smoothed_risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Risk with absolute values smoothed by sqrt(u^2 + epsilon) throughout."""
    return _dataset_risks(spec, theta, dataset)[1]


def monitored_risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    exact, smoothed = _dataset_risks(spec, theta, dataset)
    return exact if monitor_kind(spec) is Monitor.EXACT else smoothed


def _assemble_system(spec: RiskSpec, theta: ModelParams, design: DesignMatrix, terms: LossTerms) -> SymmetricSystem:
    """Normal equations of the surrogate anchored at theta, from its loss terms."""
    quad = penalty_quadratic(spec.penalty, theta.beta, spec.lam, spec.mu, spec.epsilon)
    a = design.gram.copy() if terms.weights is None else weighted_gram(design, terms.weights)
    a[np.diag_indices_from(a)] += terms.penalty_scale * quad.combined_diag
    return SymmetricSystem(matrix=a, rhs=weighted_rhs(design, terms.weights, terms.targets))


def irls_step(spec: RiskSpec, theta: ModelParams, design: DesignMatrix) -> ModelParams:
    """One reweighted update: the minimizer of the surrogate anchored at theta.

    For the least-squares loss with 2-norm penalty the surrogate is the risk
    itself, so the step returns the closed-form solution directly.
    """
    terms = loss_terms(spec.loss, margins(design, theta), spec.epsilon, with_values=False)
    return ModelParams.from_vector(solve_spd(_assemble_system(spec, theta, design, terms)).x)


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

    Records the exact and smoothed risk at every iterate (initial point
    included). Stops on max_iterations or when the monitored risk changes by
    at most risk_tolerance * (1 + |previous|). The least-squares/2-norm
    combination is solved in one closed-form step.
    """
    options = options or FitOptions()
    design = build_design_matrix(dataset)
    closed_form = spec.loss is Loss.LEAST_SQUARES and spec.penalty is Penalty.L2
    monitor = monitor_kind(spec)
    theta = _initial_theta(options, spec, design)
    terms, exact, smoothed = _evaluate(spec, theta, margins(design, theta))
    exact_track = [exact]
    smoothed_track = [smoothed]
    monitored_prev = exact if monitor is Monitor.EXACT else smoothed

    jittered = 0
    converged = False
    reason = TerminationReason.MAX_ITERATIONS
    for _ in range(1 if closed_form else options.max_iterations):
        try:
            system = _assemble_system(spec, theta, design, terms)
            # drop this iterate's n-length arrays before the next margins exist
            del terms
            solution = solve_spd(system)
        except SingularSystemError as err:
            raise FitError(str(err), exact_track, smoothed_track) from err
        jittered += solution.jitter_used
        theta = ModelParams.from_vector(solution.x)
        terms, exact, smoothed = _evaluate(spec, theta, margins(design, theta))
        exact_track.append(exact)
        smoothed_track.append(smoothed)
        monitored = exact if monitor is Monitor.EXACT else smoothed
        # tolerance 0 disables early stopping entirely (fixed-count protocol)
        if options.risk_tolerance > 0 and abs(monitored - monitored_prev) <= options.risk_tolerance * (
            1.0 + abs(monitored_prev)
        ):
            converged = True
            reason = TerminationReason.RISK_TOLERANCE
            break
        monitored_prev = monitored

    if closed_form:
        converged, reason = True, TerminationReason.CLOSED_FORM
    return FitResult(
        theta=theta,
        exact_risk_trajectory=np.array(exact_track),
        smoothed_risk_trajectory=np.array(smoothed_track),
        iterations_run=len(exact_track) - 1,
        converged=converged,
        termination_reason=reason,
        jittered_solves=jittered,
    )
