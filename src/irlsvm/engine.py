"""Reweighted-least-squares updates for all 12 loss x penalty combinations,
the least-squares/2-norm closed form, risk evaluation, and the fit loop.

Each update minimizes a convex quadratic surrogate of the risk anchored at
the current iterate, so the monitored risk never increases: the exact risk
for the squared-hinge and logistic losses under the 2-norm penalty, and the
smoothed risk for every combination involving the hinge loss or a 1-norm
penalty term. A fit with a risk tolerance also extrapolates (SQUAREM) from
two updates and keeps the update from the extrapolated point only if it
does not raise the smoothed risk.

Every pass walks the dataset's design in blocks of _BLOCK_ROWS samples
(Dataset._blocks); fit's passes build normal equations only at points where
an update may be anchored.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _BLOCK_ROWS, Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, TerminationReason, _constant
from .linalg import SingularSystemError, _GramBlocks, solve_spd
from .losses import _block_terms, _normal_equations, majorizer_value
from .penalties import _penalty_terms, penalty_majorizer_value

WARM_START_RIDGE_FLOOR = 1e-3

# check's gates: the largest relative violation each tolerates (_violations)
DESCENT_SLACK = 1e-10
ANCHOR_SLACK = 1e-10
SURROGATE_SLACK = 1e-12


class Init(Enum):
    ZERO = "zero"
    WARM_START_LS_L2 = "warm"


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls for fit().

    init is Init.ZERO, Init.WARM_START_LS_L2 (a single ridge solve with
    constant max(lambda, 1e-3)), or an explicit ModelParams starting point.
    risk_tolerance stops the loop on a small relative change of the monitored
    risk, and above 0 the loop takes extrapolated (SQUAREM) steps as well
    (see fit); set it to 0 to run exactly max_iterations plain updates.
    max_iterations, an integer >= 1 (not a bool), counts recorded updates.
    """

    max_iterations: int = 50
    risk_tolerance: float = 1e-8
    init: Init | ModelParams = Init.WARM_START_LS_L2

    def __post_init__(self):
        count = self.max_iterations
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {count!r}")
        if not isinstance(self.init, (Init, ModelParams)):
            raise ValueError(f"init must be an Init or a ModelParams, got {self.init!r}")
        object.__setattr__(self, "risk_tolerance", _constant("risk_tolerance", self.risk_tolerance))


class FitError(RuntimeError):
    """Solver failure mid-run; carries the trajectory recorded so far."""

    def __init__(self, message, exact_trajectory, smoothed_trajectory):
        super().__init__(message)
        self.exact_trajectory = np.asarray(exact_trajectory)
        self.smoothed_trajectory = np.asarray(smoothed_trajectory)


def _pass_buffers(dataset: Dataset, update: bool) -> np.ndarray:
    """Block buffers of a pass over the design: the margins, three loss-term
    rows and, for an update, the q+1 rows of a weighted block."""
    return np.empty((4 + (dataset.q + 1 if update else 0), min(dataset.n, _BLOCK_ROWS)))


def _pass(
    spec: RiskSpec,
    vec: np.ndarray,
    dataset: Dataset,
    update: bool = True,
    buffers: np.ndarray | None = None,
) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
    """One pass over the row blocks of the dataset's design at the (alpha, beta) vector vec:
    the exact and smoothed risks there and, with update, the system (matrix, right-hand side)
    of the normal equations of the surrogate anchored there (else None).

    Every block's margins and loss terms go through the same block-sized
    buffers (_pass_buffers; fit hands every pass the same ones, so a fit
    allocates them once), so the pass allocates no n-length array.
    """
    k = dataset.q + 1
    if vec.shape[0] != k:
        raise ValueError(f"theta has {vec.shape[0] - 1} features but data has {dataset.q}")
    if buffers is None:
        buffers = _pass_buffers(dataset, update)
    gram = None
    rhs = np.zeros(k)
    loss_sum = smoothed_sum = 0.0
    for block in dataset._blocks():
        b = block.shape[1]
        m = np.matmul(block.T, vec, out=buffers[0, :b])
        scratch = buffers[1:4, :b]
        block_loss, block_smoothed, weights, rhs_weights = _block_terms(spec.loss, m, spec.epsilon, scratch, update)
        loss_sum += block_loss
        smoothed_sum += block_smoothed
        if not update:
            continue
        if weights is not None:
            if gram is None:
                gram = _GramBlocks(buffers[4:])
            gram.add(block, weights)
        if rhs_weights is not None:
            # an overflow shows as a non-finite rhs, which solve_spd rejects
            with np.errstate(over="ignore", invalid="ignore"):
                rhs += rhs_weights @ block.T

    n = dataset.n
    penalty, smoothed_penalty, diag = _penalty_terms(vec[1:], spec.lam, spec.mu, spec.epsilon)
    exact = loss_sum / n + penalty
    smoothed = smoothed_sum / n + smoothed_penalty
    return exact, smoothed, (_normal_equations(spec.loss, dataset, vec, gram, rhs, diag) if update else None)


def _surrogate_values(
    spec: RiskSpec, anchors: np.ndarray, images: np.ndarray, dataset: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Full surrogate objectives (constants included) of a run of updates,
    the one anchored at row t of anchors having row t of images as its
    image, in one blocked pass over the dataset's design.

    Returns (at, after): at[t] is the surrogate anchored at anchors[t]
    evaluated there, which equals the monitored risk there, and after[t] the
    same surrogate at images[t]. Each row block computes the margins of
    update t's anchor and of its image into two block-sized rows,
    majorizer_value is summed over the pair, and penalty_majorizer_value
    adds the penalty parts. No update rule is involved, so the values check
    the updates independently.
    """
    count = anchors.shape[0]
    pair = np.empty((2, min(dataset.n, _BLOCK_ROWS)))
    loss = np.zeros((count, 2))  # row t: the loss sums at update t's anchor and image
    for block in dataset._blocks():
        m = pair[:, : block.shape[1]]
        for t in range(count):
            np.matmul(block.T, anchors[t], out=m[0])
            np.matmul(block.T, images[t], out=m[1])
            loss[t] += majorizer_value(spec.loss, m, m[0], spec.epsilon).sum(axis=1)

    def penalty_part(beta, beta_ref):
        return penalty_majorizer_value(beta, beta_ref, spec.lam, spec.mu, spec.epsilon)

    n = dataset.n
    at = [loss[t, 0] / n + penalty_part(anchors[t, 1:], anchors[t, 1:]) for t in range(count)]
    after = [loss[t, 1] / n + penalty_part(images[t, 1:], anchors[t, 1:]) for t in range(count)]
    return np.array(at), np.array(after)


def _extrapolated(result: FitResult) -> np.ndarray:
    """Which recorded updates started from an extrapolated point: those whose
    anchor is not the iterate before them (fit)."""
    return (result.anchor_trajectory != result.theta_trajectory[:-1]).any(axis=1)


def _violations(spec: RiskSpec, result: FitResult, dataset: Dataset) -> tuple[float, float, float]:
    """check's three gates on fit's record, as worst relative violations: a
    rise of the monitored risk, a surrogate off the risk at its anchor, a rise of a surrogate."""
    # the smoothed risk is the monitored risk (see fit)
    track = result.smoothed_risk_trajectory
    descent = float(np.max(np.diff(track) / (1.0 + np.abs(track[:-1]))))
    # each recorded update against the surrogate anchored at its own anchor:
    # the iterate before it, whose risk is recorded, or an extrapolated point
    anchors = result.anchor_trajectory
    at, after = _surrogate_values(spec, anchors, result.theta_trajectory[1:], dataset)
    anchor_risk = track[:-1].copy()
    for t in np.flatnonzero(_extrapolated(result)):
        anchor_risk[t] = _pass(spec, anchors[t], dataset, update=False)[1]
    anchor = float(np.max(np.abs(at - anchor_risk) / (1.0 + np.abs(anchor_risk))))
    surrogate = float(np.max((after - at) / (1.0 + np.abs(at))))
    return descent, anchor, surrogate


def risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Exact risk: average loss plus the unsmoothed penalty, by fit's pass over
    the dataset's design, so bit for bit the risk fit records."""
    return _pass(spec, theta.as_vector(), dataset, update=False)[0]


def smoothed_risk(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> float:
    """Risk with absolute values smoothed by sqrt(u^2 + epsilon), evaluated as
    risk is. The descent guarantee covers it; under an exact monitor it equals risk."""
    return _pass(spec, theta.as_vector(), dataset, update=False)[1]


def _initial_theta(options: FitOptions, spec: RiskSpec, dataset: Dataset) -> np.ndarray:
    if isinstance(options.init, ModelParams):
        if options.init.q != dataset.q:
            raise ValueError(f"explicit init has {options.init.q} features, data has {dataset.q}")
        return options.init.as_vector()
    if options.init is Init.ZERO:
        return np.zeros(dataset.q + 1)
    # the least-squares update from zero needs no pass: that loss's row blocks add nothing to its system
    k = dataset.q + 1
    ridge = max(spec.lam, WARM_START_RIDGE_FLOOR)
    return solve_spd(*_normal_equations(Loss.LEAST_SQUARES, dataset, np.zeros(k), None, np.zeros(k), ridge)).x


def _update(spec, dataset, anchor, system, anchored, buffers):
    """The update anchored at the (alpha, beta) vector anchor, as (anchor, the solution of its system,
    the pass at that solution): a pass at anchor builds the system when it is None, and the solution's
    pass builds that point's system when anchored is set. A pass or solve failure propagates."""
    if system is None:
        system = _pass(spec, anchor, dataset, buffers=buffers)[2]
    solution = solve_spd(*system)
    return anchor, solution, _pass(spec, solution.x, dataset, anchored, buffers)


def _extrapolated_update(spec, dataset, cycle, risk_bound, buffers, anchored):
    """SQUAREM's step (Varadhan & Roland 2008, scheme S3) from a cycle of
    three iterates x0, x1, x2, each of the two later ones the update of the
    one before: the update anchored at x' = x0 - 2 a r + a^2 v, with
    r = x1 - x0, v = x2 - x1 - r and a = min(-|r|/|v|, -1), so that a = -1
    gives x' = x2.

    Returns _update's triple at x', or None when x' is not finite, the update
    fails, or its image's smoothed risk is not finite or above risk_bound.
    """
    x0, x1, x2 = cycle
    r = x1 - x0
    v = x2 - x1 - r
    # a step that overflows or fails is discarded, so its floating-point flags say nothing
    with np.errstate(all="ignore"):
        a = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        anchor = x0 - 2.0 * a * r + a * a * v
        if not np.isfinite(anchor).all():
            return None
        try:
            anchor, solution, image = _update(spec, dataset, anchor, None, anchored, buffers)
        except (ValueError, SingularSystemError):
            return None
    return (anchor, solution, image) if image[1] <= risk_bound else None


def fit(spec: RiskSpec, dataset: Dataset, options: FitOptions | None = None) -> FitResult:
    """Minimize the risk by repeated surrogate minimization.

    Records every iterate and its exact and smoothed risk (initial point
    included), and the anchor of each update. Stops on max_iterations
    recorded updates or when the monitored risk changes by at most
    risk_tolerance * (1 + |previous|). The monitored risk is read as the
    smoothed risk: for the combinations whose monitor is the exact risk the
    loss and penalty contain no absolute value, so their exact and smoothed
    risks are the same sums and equal bit for bit. The
    least-squares/2-norm combination is solved in one closed-form step.

    With risk_tolerance > 0 the updates run in safeguarded SQUAREM cycles:
    two updates from x0, then one from the extrapolated point x'
    (_extrapolated_update). Its image is recorded only if its smoothed risk
    is not above the one before it; otherwise, or if x' fails, the next
    cycle starts from the last recorded iterate. So every recorded iterate
    is the image of one update, and no extrapolation raises the recorded
    smoothed risk. Fewer than three updates left run as plain updates. With
    risk_tolerance 0 every update is anchored at the iterate before it.
    """
    options = options or FitOptions()
    closed_form = spec.loss is Loss.LEAST_SQUARES and spec.penalty is Penalty.L2
    theta = _initial_theta(options, spec, dataset)
    steps = 1 if closed_form else options.max_iterations
    # tolerance 0 (the fixed-count protocol) takes plain updates only and never stops early
    accelerated = options.risk_tolerance > 0
    buffers = _pass_buffers(dataset, update=True)
    exact, smoothed, system = _pass(spec, theta, dataset, buffers=buffers)
    theta_track = [theta]
    anchor_track = []
    exact_track = [exact]
    smoothed_track = [smoothed]

    def anchored(plain_run: int) -> bool:
        # whether the image of the update being taken may anchor one, so that its pass builds the system:
        # not after the last update, nor at a cycle's second image, whose update waits on the extrapolated one
        return len(anchor_track) + 1 < steps and not (accelerated and plain_run == 2)

    jittered = 0
    plain_run = 0  # updates since the last extrapolation was tried
    reason = TerminationReason.MAX_ITERATIONS
    while len(anchor_track) < steps:
        step = None
        # after two plain updates a cycle tries the extrapolated point
        if accelerated and plain_run == 2:
            plain_run = 0
            step = _extrapolated_update(spec, dataset, theta_track[-3:], smoothed_track[-1], buffers, anchored(0))
        if step is None:
            plain_run += 1
            try:
                step = _update(spec, dataset, theta_track[-1], system, anchored(plain_run), buffers)
            except SingularSystemError as err:
                raise FitError(str(err), exact_track, smoothed_track) from err
        anchor, solution, (exact, smoothed, system) = step
        jittered += solution.jitter_used
        anchor_track.append(anchor)
        theta_track.append(solution.x)
        exact_track.append(exact)
        smoothed_track.append(smoothed)
        previous = smoothed_track[-2]
        if accelerated and abs(smoothed - previous) <= options.risk_tolerance * (1.0 + abs(previous)):
            reason = TerminationReason.RISK_TOLERANCE
            break

    if closed_form:
        reason = TerminationReason.CLOSED_FORM
    return FitResult(
        theta=ModelParams.from_vector(theta_track[-1]),
        theta_trajectory=np.array(theta_track),
        anchor_trajectory=np.array(anchor_track),
        exact_risk_trajectory=np.array(exact_track),
        smoothed_risk_trajectory=np.array(smoothed_track),
        iterations_run=len(anchor_track),
        termination_reason=reason,
        jittered_solves=jittered,
    )
