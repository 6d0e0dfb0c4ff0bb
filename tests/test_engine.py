import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from irlsvm import (
    Dataset,
    FitError,
    FitOptions,
    Init,
    Loss,
    ModelParams,
    Monitor,
    Penalty,
    RiskSpec,
    TerminationReason,
    fit,
    monitor_kind,
    monitored_risk,
    reference_minimize,
    risk,
    smoothed_risk,
)
from irlsvm.core import build_design_matrix
from irlsvm.engine import _surrogate_values, closed_form_ls_l2, irls_step
from irlsvm.losses import loss_value, majorizer_value, smoothed_loss_value
from irlsvm.penalties import penalty_majorizer_value, penalty_quadratic, penalty_value, smoothed_penalty_value

from helpers import ALL_COMBOS, COMBO_IDS, ITERATIVE_COMBOS, ITERATIVE_IDS, make_dataset, two_sample_dataset

EPS = 1e-6
EXACT_MONITOR_COMBOS = [c for c in ALL_COMBOS if monitor_kind(RiskSpec(*c)) is Monitor.EXACT]
EXACT_MONITOR_IDS = [f"{loss.value}+{pen.value}" for loss, pen in EXACT_MONITOR_COMBOS]


@pytest.fixture(scope="module")
def two():
    return two_sample_dataset()


@pytest.fixture(scope="module")
def two_design(two):
    return build_design_matrix(two)


def test_monitor_kind_mapping():
    assert monitor_kind(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2)) is Monitor.EXACT
    assert monitor_kind(RiskSpec(Loss.LOGISTIC, Penalty.L2)) is Monitor.EXACT
    assert monitor_kind(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2)) is Monitor.EXACT
    for loss in Loss:
        for pen in (Penalty.L1, Penalty.ELASTIC_NET):
            assert monitor_kind(RiskSpec(loss, pen)) is Monitor.SMOOTHED
    assert monitor_kind(RiskSpec(Loss.HINGE, Penalty.L2)) is Monitor.SMOOTHED


def test_irls_step_hand_solved_cases(two_design):
    # least-squares with both constants zero collapses to the plain solve
    theta = irls_step(RiskSpec(Loss.LEAST_SQUARES, Penalty.ELASTIC_NET, lam=0.0, mu=0.0), ModelParams.zeros(1), two_design)
    assert_allclose(theta.as_vector(), [0.0, 1.0], atol=1e-12)

    theta = irls_step(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.0, epsilon=EPS), ModelParams.zeros(1), two_design)
    assert_allclose(theta.as_vector(), [0.0, 1.0 + np.sqrt(1.0 + EPS)], rtol=1e-12)

    theta = irls_step(RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.0), ModelParams.zeros(1), two_design)
    assert_allclose(theta.as_vector(), [0.0, 2.0], atol=1e-12)


def test_logistic_step_is_overflow_safe_at_extreme_margins():
    # margins +800 and -800: exp(800) overflows, so pi must come out as 0 and 1
    # (clipped just inside), giving targets 800 and -796 and no NaN
    ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, 1.0]))
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.0)
    theta = irls_step(spec, ModelParams(alpha=0.0, beta=[800.0]), build_design_matrix(ds))
    assert_allclose(theta.as_vector(), [2.0, 798.0], rtol=1e-12)


def test_closed_form_examples(two_design):
    for lam in (0.0, 0.5, 1.0):
        theta = closed_form_ls_l2(two_design, lam)
        assert_allclose(theta.as_vector(), [0.0, 1.0 / (1.0 + lam)], atol=1e-12)
    # penalty dominance sends the parameters to zero
    theta = closed_form_ls_l2(two_design, 1e10)
    assert abs(theta.alpha) <= 1e-6 and np.abs(theta.beta).max() <= 1e-6


def test_risk_examples(two):
    assert risk(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.7), ModelParams.zeros(1), two) == 1.0
    assert_allclose(risk(RiskSpec(Loss.LOGISTIC, Penalty.L1, mu=0.3), ModelParams.zeros(1), two), np.log(2.0), rtol=1e-15)
    assert risk(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=0.0), ModelParams(alpha=0.0, beta=[1.0]), two) == 0.0


def test_smoothed_risk_examples(two):
    theta = ModelParams(alpha=0.2, beta=[0.4])
    for loss in (Loss.LEAST_SQUARES, Loss.SQUARED_HINGE, Loss.LOGISTIC):
        spec = RiskSpec(loss, Penalty.L2, lam=0.3)
        assert smoothed_risk(spec, theta, two) == risk(spec, theta, two)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.0, epsilon=EPS)
    # high-precision evaluation of (sqrt(1 + 1e-6) + 1)/2
    assert_allclose(smoothed_risk(spec, ModelParams.zeros(1), two), 1.000000249999937500, rtol=1e-15)


def test_smoothed_risk_gap_bound():
    ds = make_dataset(seed=21, n=50, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=0.4, epsilon=EPS)
    rng = np.random.default_rng(21)
    for _ in range(100):
        theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=3))
        gap = smoothed_risk(spec, theta, ds) - risk(spec, theta, ds)
        assert 0.0 < gap <= np.sqrt(EPS) / 2 + spec.mu * ds.q * np.sqrt(EPS)


def test_penalty_part_of_risk_ignores_intercept():
    ds = make_dataset(seed=22)
    beta = np.array([0.5, -1.0, 0.25])
    for loss, pen in ALL_COMBOS:
        spec = RiskSpec(loss, pen, lam=0.3, mu=0.6)
        parts = []
        for alpha in (-2.0, 0.0, 3.5):
            theta = ModelParams(alpha=alpha, beta=beta)
            m = ds.labels * (alpha + ds.features @ beta)
            parts.append(risk(spec, theta, ds) - np.mean(loss_value(loss, m)))
        assert_allclose(parts, parts[0], rtol=0, atol=1e-15)


def test_fit_ls_l2_is_single_closed_form_step(two):
    spec = RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=0.5)
    result = fit(spec, two)
    assert result.iterations_run == 1
    assert result.converged
    assert result.termination_reason is TerminationReason.CLOSED_FORM
    assert len(result.exact_risk_trajectory) == 2
    direct = closed_form_ls_l2(build_design_matrix(two), 0.5)
    assert result.theta.alpha == direct.alpha
    assert_array_equal(result.theta.beta, direct.beta)


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_fit_monitored_risk_never_increases(loss, pen):
    for seed in (1, 2):
        ds = make_dataset(seed=seed, n=50, q=3)
        spec = RiskSpec(loss, pen, lam=0.15, mu=0.2, epsilon=EPS)
        result = fit(spec, ds, FitOptions(max_iterations=30, risk_tolerance=0.0, init=Init.ZERO))
        track = (
            result.exact_risk_trajectory
            if monitor_kind(spec) is Monitor.EXACT
            else result.smoothed_risk_trajectory
        )
        diffs = np.diff(track)
        assert (diffs <= 1e-10 * (1.0 + np.abs(track[:-1]))).all()


@pytest.mark.parametrize("loss, pen", EXACT_MONITOR_COMBOS, ids=EXACT_MONITOR_IDS)
def test_exact_monitor_risk_is_the_smoothed_risk(loss, pen):
    # why fit, check and reference_minimize may read the smoothed risk as the
    # monitored one for every combination
    ds = make_dataset(seed=3, n=50, q=3)
    spec = RiskSpec(loss, pen, lam=0.15, epsilon=EPS)
    result = fit(spec, ds, FitOptions(max_iterations=30, risk_tolerance=0.0, init=Init.ZERO))
    assert result.exact_risk_trajectory.tobytes() == result.smoothed_risk_trajectory.tobytes()
    assert monitored_risk(spec, result.theta, ds) == risk(spec, result.theta, ds)


def test_fit_trajectories_include_initial_point(two):
    start = ModelParams(alpha=0.5, beta=[-0.25])
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1)
    result = fit(spec, two, FitOptions(max_iterations=5, risk_tolerance=0.0, init=start))
    assert_allclose(result.exact_risk_trajectory[0], risk(spec, start, two), rtol=1e-14)
    assert_allclose(result.smoothed_risk_trajectory[0], smoothed_risk(spec, start, two), rtol=1e-14)
    assert result.iterations_run == 5
    assert len(result.exact_risk_trajectory) == 6
    assert not result.converged
    assert result.termination_reason is TerminationReason.MAX_ITERATIONS


def test_fit_stops_on_risk_tolerance():
    ds = make_dataset(seed=23, n=60, q=2)
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = fit(spec, ds, FitOptions(max_iterations=500, risk_tolerance=1e-9))
    assert result.converged
    assert result.termination_reason is TerminationReason.RISK_TOLERANCE
    assert result.iterations_run < 500
    assert result.theta_trajectory.shape == (result.iterations_run + 1, 3)


@pytest.mark.parametrize("init", [Init.ZERO, Init.WARM_START_LS_L2], ids=["zero", "warm"])
def test_fit_records_theta_trajectory(init):
    ds = make_dataset(seed=30, n=50, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.2, epsilon=EPS)
    result = fit(spec, ds, FitOptions(max_iterations=7, risk_tolerance=0.0, init=init))
    trajectory = result.theta_trajectory
    assert trajectory.shape == (result.iterations_run + 1, ds.q + 1) == (8, 4)
    start = ModelParams.zeros(ds.q) if init is Init.ZERO else closed_form_ls_l2(build_design_matrix(ds), 0.1)
    assert_array_equal(trajectory[0], start.as_vector())
    assert_array_equal(trajectory[-1], result.theta.as_vector())
    # row k is the iterate whose risks the trajectories record at k
    for k in (0, 3, 7):
        theta = ModelParams.from_vector(trajectory[k])
        assert_allclose(result.exact_risk_trajectory[k], risk(spec, theta, ds), rtol=1e-12, atol=0)
        assert_allclose(result.smoothed_risk_trajectory[k], smoothed_risk(spec, theta, ds), rtol=1e-12, atol=0)
    assert not trajectory.flags.writeable
    with pytest.raises(ValueError):
        trajectory[0, 0] = 1.0


def test_fit_explicit_init_dimension_mismatch(two):
    with pytest.raises(ValueError):
        fit(RiskSpec(Loss.HINGE, Penalty.L2), two, FitOptions(init=ModelParams.zeros(3)))


def test_fit_warm_start_is_ridge_solution(two):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L1, mu=0.2)
    result = fit(spec, two, FitOptions(max_iterations=1, risk_tolerance=0.0))
    warm = closed_form_ls_l2(build_design_matrix(two), 1e-3)  # max(lam, 1e-3) with lam forced to 0
    assert_allclose(result.exact_risk_trajectory[0], risk(spec, warm, two), rtol=1e-14)


def test_fit_allows_zero_penalty_constants(two):
    result = fit(RiskSpec(Loss.HINGE, Penalty.L1, mu=0.0), two, FitOptions(max_iterations=10))
    assert np.isfinite(result.exact_risk_trajectory).all()


def test_fit_handles_single_class_dataset():
    ds = Dataset(features=np.array([[1.0], [2.0], [3.0]]), labels=np.array([1.0, 1.0, 1.0]))
    result = fit(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1), ds, FitOptions(max_iterations=20))
    assert np.isfinite(result.theta.as_vector()).all()


def test_fit_hinge_l1_two_sample_matches_oracle(two):
    spec = RiskSpec(Loss.HINGE, Penalty.L1, mu=0.1, epsilon=EPS)
    result = fit(spec, two, FitOptions(max_iterations=5000, risk_tolerance=1e-12))
    assert (np.diff(result.smoothed_risk_trajectory) <= 1e-12).all()
    reference = reference_minimize(spec, two)
    assert abs(result.smoothed_risk_trajectory[-1] - smoothed_risk(spec, reference, two)) <= 1e-8


def majorizer_objective(spec, theta, anchor, design):
    """The surrogate anchored at anchor, at theta, from the verifier's pass
    over the two iterates (anchor, theta)."""
    return _surrogate_values(spec, np.stack([anchor.as_vector(), theta.as_vector()]), design)[1][0]


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_surrogate_touches_monitored_risk_at_anchor(loss, pen):
    ds = make_dataset(seed=24, n=40, q=3)
    design = build_design_matrix(ds)
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    rng = np.random.default_rng(24)
    for _ in range(10):
        theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=3))
        anchor = majorizer_objective(spec, theta, theta, design)
        reference = monitored_risk(spec, theta, ds)
        assert abs(anchor - reference) <= 1e-10 * (1.0 + abs(reference))


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_update_minimizes_the_surrogate(loss, pen):
    ds = make_dataset(seed=25, n=40, q=3)
    design = build_design_matrix(ds)
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.2, epsilon=EPS)
    theta = ModelParams(alpha=0.4, beta=np.array([0.5, -0.3, 0.1]))
    rng = np.random.default_rng(25)
    for _ in range(3):
        nxt = irls_step(spec, theta, design)
        at_next = majorizer_objective(spec, nxt, theta, design)
        at_anchor = majorizer_objective(spec, theta, theta, design)
        assert at_next <= at_anchor + 1e-12 * (1.0 + abs(at_anchor))
        for _ in range(100):
            perturbed = ModelParams.from_vector(nxt.as_vector() + rng.normal(scale=1e-3, size=4))
            assert at_next <= majorizer_objective(spec, perturbed, theta, design) + 1e-12
        theta = nxt


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_terminal_risk_monotone_in_penalty_constants(loss, pen):
    ds = make_dataset(seed=26, n=80, q=2)
    terminal = []
    for value in (0.0, 0.1, 0.2, 0.4):
        lam = value if pen in (Penalty.L2, Penalty.ELASTIC_NET) else 0.0
        mu = value if pen in (Penalty.L1, Penalty.ELASTIC_NET) else 0.0
        spec = RiskSpec(loss, pen, lam=lam, mu=mu, epsilon=EPS)
        result = fit(spec, ds, FitOptions(max_iterations=2000, risk_tolerance=1e-12))
        terminal.append(monitored_risk(spec, result.theta, ds))
    assert (np.diff(terminal) >= -1e-8).all()


def test_fixed_point_is_stationary():
    ds = make_dataset(seed=27, n=60, q=2)
    design = build_design_matrix(ds)
    from irlsvm import finite_diff_gradient

    for loss, pen in ((Loss.HINGE, Penalty.ELASTIC_NET), (Loss.LOGISTIC, Penalty.L2), (Loss.SQUARED_HINGE, Penalty.L1)):
        spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
        theta = ModelParams.zeros(2)
        for _ in range(5000):
            nxt = irls_step(spec, theta, design)
            if np.abs(nxt.as_vector() - theta.as_vector()).max() <= 1e-10:
                theta = nxt
                break
            theta = nxt
        grad = finite_diff_gradient(
            lambda vec: monitored_risk(spec, ModelParams.from_vector(vec), ds), theta.as_vector()
        )
        assert np.abs(grad).max() <= 1e-6 * (1.0 + ds.n)


def test_fit_error_carries_partial_trajectory(two, monkeypatch):
    import irlsvm.engine as engine_module
    from irlsvm.linalg import SingularSystemError

    calls = {"count": 0}
    original = engine_module.solve_spd

    def failing_solve(system):
        calls["count"] += 1
        if calls["count"] >= 3:
            raise SingularSystemError("injected failure")
        return original(system)

    monkeypatch.setattr(engine_module, "solve_spd", failing_solve)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    with pytest.raises(FitError) as info:
        fit(spec, two, FitOptions(max_iterations=10, risk_tolerance=0.0, init=Init.ZERO))
    assert len(info.value.exact_trajectory) >= 2
    assert len(info.value.exact_trajectory) == len(info.value.smoothed_trajectory)


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(max_iterations=0)
    for tolerance in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="risk_tolerance"):
            FitOptions(risk_tolerance=tolerance)


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_fit_risk_trajectory_matches_direct_evaluation(loss, pen):
    ds = make_dataset(seed=28, n=70, q=3)
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    for iterations in (1, 2, 3):
        result = fit(spec, ds, FitOptions(max_iterations=iterations, risk_tolerance=0.0, init=Init.ZERO))
        assert_allclose(result.exact_risk_trajectory[-1], risk(spec, result.theta, ds), rtol=1e-12, atol=0)
        assert_allclose(result.smoothed_risk_trajectory[-1], smoothed_risk(spec, result.theta, ds), rtol=1e-12, atol=0)


def test_fit_counts_jittered_solves():
    from irlsvm.linalg import SymmetricSystem, solve_spd

    t = np.array([1.0, 2.0, -1.0, -3.0, 0.5, -0.25])
    ds = Dataset(features=np.column_stack([t, t]), labels=np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0]))
    design = build_design_matrix(ds)
    # with lam = 0 the squared-hinge system matrix is Y'Y, singular for a duplicated column
    assert solve_spd(SymmetricSystem(matrix=design.gram, rhs=np.ones(3))).jitter_used
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.0)
    result = fit(spec, ds, FitOptions(max_iterations=3, risk_tolerance=0.0, init=Init.ZERO))
    assert result.jittered_solves == 3
    assert fit(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1), ds, FitOptions(max_iterations=3)).jittered_solves == 0


BLOCK_ROWS = 1 << 14  # rows per block of the engine's blocked pass


@pytest.fixture(scope="module", params=[BLOCK_ROWS, 2 * BLOCK_ROWS + 123], ids=["one-block", "three-blocks"])
def blocked(request):
    return make_dataset(seed=29, n=request.param, q=3)


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_fit_risks_match_direct_evaluation_across_blocks(blocked, loss, pen):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    result = fit(spec, blocked, FitOptions(max_iterations=3, risk_tolerance=0.0, init=Init.ZERO))
    assert_allclose(result.exact_risk_trajectory[-1], risk(spec, result.theta, blocked), rtol=1e-12, atol=0)
    assert_allclose(result.smoothed_risk_trajectory[-1], smoothed_risk(spec, result.theta, blocked), rtol=1e-12, atol=0)
    beta = result.theta.beta
    m = blocked.labels * (result.theta.alpha + blocked.features @ beta)
    dense_exact = np.mean(loss_value(loss, m)) + penalty_value(pen, beta, spec.lam, spec.mu)
    dense_smoothed = np.mean(smoothed_loss_value(loss, m, EPS)) + smoothed_penalty_value(pen, beta, spec.lam, spec.mu, EPS)
    assert_allclose(risk(spec, result.theta, blocked), dense_exact, rtol=1e-12, atol=0)
    assert_allclose(smoothed_risk(spec, result.theta, blocked), dense_smoothed, rtol=1e-12, atol=0)


def _dense_system(spec, theta, dataset):
    """Normal equations of the surrogate anchored at theta from the paper's
    weights and targets, written out here, and dense products over the full
    design."""
    y = dataset.labels[:, None] * np.column_stack([np.ones(dataset.n), dataset.features])
    m = dataset.labels * (theta.alpha + dataset.features @ theta.beta)
    weights, scale = None, dataset.n
    if spec.loss is Loss.HINGE:
        gamma = np.sqrt((1.0 - m) ** 2 + spec.epsilon)
        weights, targets = 1.0 / (4.0 * gamma), gamma + 1.0
    elif spec.loss is Loss.LEAST_SQUARES:
        targets = np.ones(dataset.n)
    elif spec.loss is Loss.SQUARED_HINGE:
        targets = np.where(m > 1.0, m, 1.0)
    else:
        targets = m + 4.0 * expit(-m)
        scale = 8 * dataset.n
    weighted = y if weights is None else weights[:, None] * y
    matrix = y.T @ weighted
    matrix[np.diag_indices_from(matrix)] += scale * penalty_quadratic(
        spec.penalty, theta.beta, spec.lam, spec.mu, spec.epsilon
    )
    return matrix, weighted.T @ targets


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_update_system_matches_dense_reference_across_blocks(blocked, loss, pen, monkeypatch):
    import irlsvm.engine as engine_module

    systems = []
    original = engine_module.solve_spd

    def recording_solve(system):
        systems.append(system)
        return original(system)

    monkeypatch.setattr(engine_module, "solve_spd", recording_solve)
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    theta = ModelParams(alpha=0.3, beta=[0.5, -0.4, 0.2])
    irls_step(spec, theta, build_design_matrix(blocked))
    matrix, rhs = _dense_system(spec, theta, blocked)
    assert_allclose(systems[0].matrix, matrix, rtol=1e-12, atol=0)
    assert_allclose(systems[0].rhs, rhs, rtol=1e-12, atol=0)


def _dense_surrogate_values(spec, iterates, dataset):
    """(at, after) of the verifier's pass, one pair of consecutive iterates
    at a time over whole margin vectors."""

    def surrogate(theta, anchor):
        m = dataset.labels * (theta[0] + dataset.features @ theta[1:])
        m_ref = dataset.labels * (anchor[0] + dataset.features @ anchor[1:])
        loss_part = np.mean(majorizer_value(spec.loss, m, m_ref, spec.epsilon))
        return loss_part + penalty_majorizer_value(spec.penalty, theta[1:], anchor[1:], spec.lam, spec.mu, spec.epsilon)

    pairs = list(zip(iterates, iterates[1:]))
    return np.array([surrogate(a, a) for a, _ in pairs]), np.array([surrogate(t, a) for a, t in pairs])


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_surrogate_values_match_dense_reference_across_blocks(blocked, loss, pen):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    result = fit(spec, blocked, FitOptions(max_iterations=3, risk_tolerance=0.0, init=Init.ZERO))
    at, after = _surrogate_values(spec, result.theta_trajectory, build_design_matrix(blocked))
    dense_at, dense_after = _dense_surrogate_values(spec, result.theta_trajectory, blocked)
    assert at.shape == after.shape == (3,)
    assert_allclose(at, dense_at, rtol=1e-12, atol=0)
    assert_allclose(after, dense_after, rtol=1e-12, atol=0)
    # the surrogate at the anchor is the monitored risk there
    assert_allclose(at, result.smoothed_risk_trajectory[:-1], rtol=1e-12, atol=0)
