"""Reweighted-least-squares updates for all 12 loss x penalty combinations,
the least-squares/2-norm closed form, risk evaluation, and the fit loop.

Each update minimizes a convex quadratic surrogate of the risk anchored at
the current iterate, so the monitored risk never increases: the exact risk
for the squared-hinge and logistic losses under the 2-norm penalty, and the
smoothed risk for every combination involving the hinge loss or a 1-norm
penalty term. A fit with a risk tolerance also extrapolates (SQUAREM) from
two updates and keeps the update from the extrapolated point only if it
does not raise the smoothed risk.

Every pass walks the dataset's design in the row blocks of Dataset._blocks,
each array it makes of a block sized by that block; fit's passes build
normal equations only at points where an update may be anchored. A pass sums
one stream of independent block shares in block order: on a narrow design of
enough blocks, where a second CPU is usable, fit's pass worker (_PassWorker)
makes that stream of this process's shares of the earlier half of the blocks
and a forked child's of the rest, so every result is the serial walk's bit for bit.

Numpy's error state is set where the engine is entered, and below that only where a comment gives
the reason: fit (its warm start, passes, extrapolated steps, and the pass worker's child, to which
the fork copies it), _pass (risk, smoothed_risk, check's anchor passes) and _violations (check's
gates) ignore overflow and invalid operations, whose results fit records or solve_spd rejects.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .core import Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, TerminationReason, _constant
from .core import _forked, _received, _second_cpu, _sent
from .linalg import SingularSystemError, _gram_products, _symmetric, solve_spd
from .losses import _block_terms, _normal_equations, majorizer_value
from .penalties import _penalty_terms, penalty_majorizer_value

WARM_START_RIDGE_FLOOR = 1e-3

# check's gates: the largest relative violation each tolerates (_violations)
DESCENT_SLACK = 1e-10
ANCHOR_SLACK = 1e-10
SURROGATE_SLACK = 1e-12

# fit splits its passes with a forked child (_pass_worker) only where the child repays its fork,
# about 6 ms with its first pass and its reaping on 2 vCPUs: on a design of q + 1 up to
# _SPLIT_WIDTH, never above 16, so that each block makes one _gram_products product (the child
# sends one a block), and of at least _SPLIT_BLOCKS row blocks. There a hinge pass at q = 15 went
# from 39 to 23 ms (n = 5*10^5), and default-flag hinge, logistic and squared-hinge fits at q = 2
# gained 20 to 33% at 32 blocks (2^19 rows), but not all at 24 blocks or fewer.
_SPLIT_WIDTH = 16
_SPLIT_BLOCKS = 32


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
    """A failed solve in fit, the warm start's included; carries the risks recorded so far (none
    when the warm start fails)."""

    def __init__(self, message, exact_trajectory, smoothed_trajectory):
        super().__init__(message)
        self.exact_trajectory = np.asarray(exact_trajectory)
        self.smoothed_trajectory = np.asarray(smoothed_trajectory)


def _shares(spec: RiskSpec, vec: np.ndarray, blocks, update: bool):
    """Each block's share of a pass at the (alpha, beta) vector vec, in block order: (the sum of
    its exact losses, the sum of its smoothed losses, the k x k products it adds to the weighted
    Gram, the k-vector it adds to the right side or None). The products are the block's
    linalg._gram_products, made as they are taken, when its terms bring weights (the hinge's,
    with update), and none else; the right side's part is rhs_weights' Y_b. Each block's
    margins, and the loss terms _block_terms makes of them, are arrays of one block's length,
    held for one block at a time (the caller takes a share's products before the next share is
    made)."""
    for block in blocks:
        weights = rhs_weights = None  # the last block's terms go before this block's are made
        block_loss, block_smoothed, weights, rhs_weights = _block_terms(spec.loss, block.T @ vec, spec.epsilon, update)
        products = () if weights is None else _gram_products(block, weights)
        rhs_part = None if rhs_weights is None else rhs_weights @ block.T
        yield block_loss, block_smoothed, products, rhs_part


def _pass(
    spec: RiskSpec, vec: np.ndarray, dataset: Dataset, update: bool = True, worker: _PassWorker | None = None
) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
    """One pass over the row blocks of the dataset's design at the (alpha, beta) vector vec:
    the exact and smoothed risks there and, with update, the system (matrix, right-hand side)
    of the normal equations of the surrogate anchored there (else None).

    The pass adds the blocks' shares in block order, as _shares gives them or, with a worker,
    as its shares gives them. The pass allocates no n-length array, and sets the engine's error
    state.
    """
    k = dataset.q + 1
    if vec.shape[0] != k:
        raise ValueError(f"theta has {vec.shape[0] - 1} features but data has {dataset.q}")
    with np.errstate(over="ignore", invalid="ignore"):
        if worker is None:
            shares = _shares(spec, vec, dataset._blocks(), update)
        else:
            shares = worker.shares(spec, vec, dataset, update)
        gram = None
        rhs = np.zeros(k)
        loss_sum = smoothed_sum = 0.0
        for block_loss, block_smoothed, products, rhs_part in shares:
            loss_sum += block_loss
            smoothed_sum += block_smoothed
            for product in products:
                if gram is None:
                    gram = np.zeros((k, k))
                gram += product
            if rhs_part is not None:
                rhs += rhs_part
        penalty, smoothed_penalty, diag = _penalty_terms(vec[1:], spec.lam, spec.mu, spec.epsilon)
        n = dataset.n
        exact = loss_sum / n + penalty
        smoothed = smoothed_sum / n + smoothed_penalty
        if not update:
            return exact, smoothed, None
        gram = None if gram is None else _symmetric(gram)
        return exact, smoothed, _normal_equations(spec.loss, dataset, vec, gram, rhs, diag)


class _PassWorker:
    """The parent's side of fit's pass worker: a forked child (_serve_passes) that walks each
    pass's blocks from first on, while the parent walks those before, and sends their shares
    through a pipe. Once the child has ended (killed, failed, or never started) or a pass has
    stopped before its reply was read, the parent walks every block itself for the rest of the fit."""

    def __init__(self, receive: int, send: int, first: int):
        self._receive, self._send = receive, send
        self._first = first
        self._live = True

    def shares(self, spec: RiskSpec, vec: np.ndarray, dataset: Dataset, update: bool):
        """Every share of the pass at vec, in block order, as _shares gives them: this process's
        of the blocks before first, then the child's of the rest, or this process's own of them
        where the child ends before it has sent them all. The worker counts as ended until the
        child's reply has been read in full, so that a pass stopped before then leaves it serial."""
        k, blocks = vec.shape[0], dataset._blocks()
        asked, self._live = self._live, False
        if asked:
            try:
                _sent(self._send, np.concatenate(([float(update)], vec)))
            except BrokenPipeError:
                asked = False
        if asked:
            # islice stops at the split, so that blocks goes on from there
            yield from _shares(spec, vec, islice(blocks, self._first), update)
            head = np.empty(3, np.int64)
            if _received(self._receive, head):
                count, products, with_rhs = head.tolist()
                rows = np.empty((count, 2 + products * k * k + with_rhs * k))
                self._live = _received(self._receive, rows)
        if not self._live:
            yield from _shares(spec, vec, blocks, update)
            return
        for row in rows:
            grams = row[2 : 2 + products * k * k].reshape(products, k, k)
            yield float(row[0]), float(row[1]), grams, (row[-k:] if with_rhs else None)


def _serve_passes(spec: RiskSpec, dataset: Dataset, first: int, receive: int, send: int) -> None:
    """The pass worker's child: for each request (update, then vec, as float64) read from
    receive, until it ends, write to send the shares of the pass at vec of the blocks from first
    on: (blocks, products a block, 1 if a block adds to the right side else 0) as int64, then a
    row of float64 a block, its loss sums, products and right side's part in turn."""
    request = np.empty(dataset.q + 2)
    while _received(receive, request):
        vec, update = request[1:].copy(), bool(request[0])
        rows = []
        shares = _shares(spec, vec, islice(dataset._blocks(), first, None), update)
        for block_loss, block_smoothed, products, rhs_part in shares:
            products = [product.reshape(-1) for product in products]
            rhs_parts = [] if rhs_part is None else [rhs_part]
            rows.append(np.concatenate([[block_loss, block_smoothed], *products, *rhs_parts]))
        # every block of a pass has the last one's layout (one product at most, at q + 1 <= 16)
        _sent(send, np.array([len(rows), len(products), len(rhs_parts)], np.int64), np.concatenate(rows))


@contextlib.contextmanager
def _pass_worker(spec: RiskSpec, dataset: Dataset, updates: int):
    """A block yielding the pass worker (_PassWorker) of a fit of at most updates updates where a
    forked child can repay its fork, else None: more than one update (one makes two passes), a
    design of q + 1 at most _SPLIT_WIDTH and of at least _SPLIT_BLOCKS row blocks, and a usable
    second CPU (tested last, as the others need no system call). The child walks the later half
    of the blocks, and ends when the block ends."""
    k = dataset.q + 1
    if updates < 2 or k > _SPLIT_WIDTH or (count := sum(1 for _ in dataset._blocks())) < _SPLIT_BLOCKS:
        yield None
    elif not _second_cpu():
        yield None
    else:
        with _forked(_serve_passes, spec, dataset, count // 2) as (receive, send):
            yield _PassWorker(receive, send, count // 2)


def _surrogate_values(
    spec: RiskSpec, anchors: np.ndarray, images: np.ndarray, dataset: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Full surrogate objectives (constants included) of a run of updates,
    the one anchored at row t of anchors having row t of images as its
    image, in one blocked pass over the dataset's design.

    Returns (at, after): at[t] is the surrogate anchored at anchors[t]
    evaluated there, which equals the monitored risk there, and after[t] the
    same surrogate at images[t]. Each row block computes the margins of
    update t's anchor and of its image into two rows of the block's length,
    majorizer_value is summed over the pair, and penalty_majorizer_value
    adds the penalty parts. No update rule is involved, so the values check
    the updates independently.
    """
    count = anchors.shape[0]
    loss = np.zeros((count, 2))  # row t: the loss sums at update t's anchor and image
    for block in dataset._blocks():
        m = np.empty((2, block.shape[1]))
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    if isinstance(options.init, ModelParams):  # its width is checked by the first _pass
        return options.init.as_vector()
    if options.init is Init.ZERO:
        return np.zeros(dataset.q + 1)
    # the least-squares update from zero needs no pass: that loss's row blocks add nothing to its system
    k = dataset.q + 1
    ridge = max(spec.lam, WARM_START_RIDGE_FLOOR)
    return solve_spd(*_normal_equations(Loss.LEAST_SQUARES, dataset, np.zeros(k), None, np.zeros(k), ridge)).x


def _update(spec, dataset, anchor, system, anchored, worker=None):
    """The update anchored at the (alpha, beta) vector anchor, as (anchor, the solution of its system,
    the pass at that solution): a pass at anchor builds the system when it is None, and the solution's
    pass builds that point's system when anchored is set; the passes split with worker, if any. A
    failed solve propagates."""
    if system is None:
        system = _pass(spec, anchor, dataset, True, worker)[2]
    solution = solve_spd(*system)
    return anchor, solution, _pass(spec, solution.x, dataset, anchored, worker)


def _extrapolated_update(spec, dataset, cycle, risk_bound, anchored, worker=None):
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
    # a step that overflows, divides by a zero |v| or fails is discarded, its flags too, also outside fit
    with np.errstate(all="ignore"):
        a = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        anchor = x0 - 2.0 * a * r + a * a * v
        if not np.isfinite(anchor).all():
            return None
        try:
            anchor, solution, image = _update(spec, dataset, anchor, None, anchored, worker)
        except SingularSystemError:
            return None
    return (anchor, solution, image) if image[1] <= risk_bound else None


def fit(spec: RiskSpec, dataset: Dataset, options: FitOptions | None = None) -> FitResult:
    """Minimize the risk by repeated surrogate minimization.

    Records every iterate and its exact and smoothed risk (initial point
    included), and the anchor of each update. Stops on max_iterations
    recorded updates or when the monitored risk changes by at most
    risk_tolerance * (1 + |previous|), previous finite. The monitored risk is read as the
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
    risk_tolerance 0 every update is anchored at the iterate before it. A
    system that solve_spd cannot solve (a non-finite one too, from an
    overflow), the warm start's or a plain update's, raises FitError.

    Every pass after the warm start splits its blocks with one forked child
    (_pass_worker) where that gains, and the child is ended when fit returns
    or raises.
    """
    options = options or FitOptions()
    closed_form = spec.loss is Loss.LEAST_SQUARES and spec.penalty is Penalty.L2
    steps = 1 if closed_form else options.max_iterations
    # tolerance 0 (the fixed-count protocol) takes plain updates only and never stops early
    accelerated = options.risk_tolerance > 0
    with np.errstate(over="ignore", invalid="ignore"), _pass_worker(spec, dataset, steps) as worker:
        try:
            theta = _initial_theta(options, spec, dataset)
        except SingularSystemError as err:
            raise FitError(str(err), [], []) from err
        exact, smoothed, system = _pass(spec, theta, dataset, True, worker)
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
                step = _extrapolated_update(spec, dataset, theta_track[-3:], smoothed_track[-1], anchored(0), worker)
            if step is None:
                plain_run += 1
                try:
                    step = _update(spec, dataset, theta_track[-1], system, anchored(plain_run), worker)
                except SingularSystemError as err:
                    raise FitError(str(err), exact_track, smoothed_track) from err
            anchor, solution, (exact, smoothed, system) = step
            jittered += solution.jitter_used
            anchor_track.append(anchor)
            theta_track.append(solution.x)
            exact_track.append(exact)
            smoothed_track.append(smoothed)
            previous = smoothed_track[-2]
            converged = abs(smoothed - previous) <= options.risk_tolerance * (1.0 + abs(previous))
            if accelerated and converged and np.isfinite(previous):  # from inf, any change is within tolerance
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
