import errno
import os
import signal
import subprocess
import sys

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
    generate_gaussian_mixture,
    monitor_kind,
    risk,
    smoothed_risk,
)
import irlsvm.engine as engine_module
from irlsvm.core import _BLOCK_BYTES, _BLOCK_ROWS
from irlsvm.engine import (
    DESCENT_SLACK,
    WARM_START_RIDGE_FLOOR,
    _extrapolated,
    _extrapolated_update,
    _pass,
    _surrogate_values,
    _violations,
)
from irlsvm.linalg import SingularSystemError
from irlsvm.losses import loss_value, majorizer_value
from irlsvm.penalties import penalty_majorizer_value

from helpers import (
    ALL_COMBOS,
    COMBO_IDS,
    ITERATIVE_COMBOS,
    ITERATIVE_IDS,
    closed_form_ls_l2,
    irls_step,
    make_dataset,
    no_child_left,
    traced_peak,
    two_sample_dataset,
)
from oracle import finite_diff_gradient, reference_minimize
from risk_reference import penalty_quadratic, penalty_value, smoothed_loss_value, smoothed_penalty_value

EPS = 1e-6
EXACT_MONITOR_COMBOS = [c for c in ALL_COMBOS if monitor_kind(RiskSpec(*c)) is Monitor.EXACT]
EXACT_MONITOR_IDS = [f"{loss.value}+{pen.value}" for loss, pen in EXACT_MONITOR_COMBOS]


@pytest.fixture(scope="module")
def two():
    return two_sample_dataset()


def test_monitor_kind_mapping():
    assert monitor_kind(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2)) is Monitor.EXACT
    assert monitor_kind(RiskSpec(Loss.LOGISTIC, Penalty.L2)) is Monitor.EXACT
    assert monitor_kind(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2)) is Monitor.EXACT
    for loss in Loss:
        for pen in (Penalty.L1, Penalty.ELASTIC_NET):
            assert monitor_kind(RiskSpec(loss, pen)) is Monitor.SMOOTHED
    assert monitor_kind(RiskSpec(Loss.HINGE, Penalty.L2)) is Monitor.SMOOTHED


def test_irls_step_hand_solved_cases(two):
    # least-squares with both constants zero collapses to the plain solve
    theta = irls_step(RiskSpec(Loss.LEAST_SQUARES, Penalty.ELASTIC_NET, lam=0.0, mu=0.0), ModelParams.zeros(1), two)
    assert_allclose(theta.as_vector(), [0.0, 1.0], atol=1e-12)

    theta = irls_step(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.0, epsilon=EPS), ModelParams.zeros(1), two)
    assert_allclose(theta.as_vector(), [0.0, 1.0 + np.sqrt(1.0 + EPS)], rtol=1e-12)

    theta = irls_step(RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.0), ModelParams.zeros(1), two)
    assert_allclose(theta.as_vector(), [0.0, 2.0], atol=1e-12)


def test_logistic_step_is_overflow_safe_at_extreme_margins():
    # margins +800 and -800: exp(800) overflows, so pi must come out as 0 and 1
    # (clipped just inside), giving targets 800 and -796 and no NaN
    ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, 1.0]))
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.0)
    theta = irls_step(spec, ModelParams(alpha=0.0, beta=[800.0]), ds)
    assert_allclose(theta.as_vector(), [2.0, 798.0], rtol=1e-12)


def test_closed_form_examples(two):
    for lam in (0.0, 0.5, 1.0):
        theta = closed_form_ls_l2(two, lam)
        assert_allclose(theta.as_vector(), [0.0, 1.0 / (1.0 + lam)], atol=1e-12)
    # penalty dominance sends the parameters to zero
    theta = closed_form_ls_l2(two, 1e10)
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
            m = ds._design.T @ theta.as_vector()
            parts.append(risk(spec, theta, ds) - np.mean(loss_value(loss, m)))
        assert_allclose(parts, parts[0], rtol=0, atol=1e-15)


def test_fit_ls_l2_is_single_closed_form_step(two):
    spec = RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=0.5)
    result = fit(spec, two)
    assert result.iterations_run == 1
    assert result.termination_reason is TerminationReason.CLOSED_FORM
    assert len(result.exact_risk_trajectory) == 2
    direct = closed_form_ls_l2(two, 0.5)
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
    assert smoothed_risk(spec, result.theta, ds) == risk(spec, result.theta, ds)


def test_fit_trajectories_include_initial_point(two):
    start = ModelParams(alpha=0.5, beta=[-0.25])
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1)
    result = fit(spec, two, FitOptions(max_iterations=5, risk_tolerance=0.0, init=start))
    assert_allclose(result.exact_risk_trajectory[0], risk(spec, start, two), rtol=1e-14)
    assert_allclose(result.smoothed_risk_trajectory[0], smoothed_risk(spec, start, two), rtol=1e-14)
    assert result.iterations_run == 5
    assert len(result.exact_risk_trajectory) == 6
    assert result.termination_reason is TerminationReason.MAX_ITERATIONS


def test_fit_stops_on_risk_tolerance():
    ds = make_dataset(seed=23, n=60, q=2)
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = fit(spec, ds, FitOptions(max_iterations=500, risk_tolerance=1e-9))
    assert result.termination_reason is TerminationReason.RISK_TOLERANCE
    assert result.iterations_run < 500
    assert result.theta_trajectory.shape == (result.iterations_run + 1, 3)


def test_a_change_from_an_infinite_risk_never_stops_a_fit():
    # the start's penalty overflows: any change from its inf is within tolerance * (1 + inf), so the
    # fit stopped after one update, at smoothed risk 1.5165; it goes on to the minimum a fit from zero finds
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    dataset = generate_gaussian_mixture(2000, seed=1)
    result = fit(spec, dataset, FitOptions(init=ModelParams(0.0, [1e200, 1e200])))
    track = result.smoothed_risk_trajectory
    assert np.isinf(track[0]) and np.isfinite(track[1:]).all()
    assert result.termination_reason is TerminationReason.RISK_TOLERANCE and result.iterations_run > 2
    from_zero = fit(spec, dataset, FitOptions(init=Init.ZERO)).smoothed_risk_trajectory[-1]
    assert_allclose(track[-1], from_zero, rtol=1e-7)


@pytest.mark.parametrize("init", [Init.ZERO, Init.WARM_START_LS_L2], ids=["zero", "warm"])
def test_fit_records_theta_trajectory(init):
    ds = make_dataset(seed=30, n=50, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.2, epsilon=EPS)
    result = fit(spec, ds, FitOptions(max_iterations=7, risk_tolerance=0.0, init=init))
    trajectory = result.theta_trajectory
    assert trajectory.shape == (result.iterations_run + 1, ds.q + 1) == (8, 4)
    start = ModelParams.zeros(ds.q) if init is Init.ZERO else closed_form_ls_l2(ds, 0.1)
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
    with pytest.raises(ValueError, match="^theta has 3 features but data has 1$"):
        fit(RiskSpec(Loss.HINGE, Penalty.L2), two, FitOptions(init=ModelParams.zeros(3)))


# margins of 2e310 overflow to inf, and to NaN where two such products cancel: the start's risks
# are recorded, and the system anchored there is not finite, for the hinge (NaN weights) too
_WIDE_MARGINS = (
    [[1e10, 1e10], [1e10, -1e10], [-1e10, 1e10], [-1e10, -1e10]],
    [1.0, 1.0, -1.0, -1.0],
    ModelParams(alpha=0.0, beta=[1e300, 1e300]),
)
# finite margins whose cached Gram overflows: the logistic right side Y'Y theta adds inf to -inf
_HUGE_GRAM = ([[1e308], [1e308], [-1e308], [-1e308]], [1.0, -1.0, 1.0, -1.0], ModelParams(alpha=-1e-300, beta=[-1.0]))
_OVERFLOWING_LOSSES = (Loss.HINGE, Loss.SQUARED_HINGE, Loss.LOGISTIC)


@pytest.mark.parametrize(
    "loss, pen, case",
    [(loss, Penalty.L2, _WIDE_MARGINS) for loss in _OVERFLOWING_LOSSES]
    + [(Loss.LOGISTIC, pen, _HUGE_GRAM) for pen in Penalty],
    ids=[str(loss) for loss in _OVERFLOWING_LOSSES] + [f"{Loss.LOGISTIC}-{pen}-huge-gram" for pen in Penalty],
)
def test_an_overflowing_start_is_a_fit_error(loss, pen, case):
    features, labels, start = case
    # and warns of nothing: the suite's filter raises a RuntimeWarning
    with pytest.raises(FitError, match="not finite") as info:
        fit(RiskSpec(loss, pen, lam=0.1, mu=0.1), Dataset(features, labels), FitOptions(init=start))
    assert info.value.exact_trajectory.shape == info.value.smoothed_trajectory.shape == (1,)


def test_check_gates_on_a_fit_from_an_overflowing_start_warn_of_nothing():
    # the start's risk is inf and the first update's finite: the descent gate divides inf by inf,
    # and the surrogates at the start overflow, but the gates report, under the suite's filter
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    dataset = make_dataset(seed=39, n=40, q=2)
    result = fit(spec, dataset, FitOptions(max_iterations=2, init=ModelParams(0.0, [1e200, 1e200])))
    assert np.isinf(result.smoothed_risk_trajectory[0]) and np.isfinite(result.smoothed_risk_trajectory[1:]).all()
    assert all(isinstance(gate, float) for gate in _violations(spec, result, dataset))


def test_a_failed_warm_start_is_a_fit_error():
    # features of 1e200 overflow the cached Gram that the ridge start solves: no risk is recorded yet
    sample = make_dataset(seed=34, n=40, q=3)
    huge = Dataset(sample.features * 1e200, sample.labels)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    with pytest.raises(FitError, match="not finite") as info:
        fit(spec, huge, FitOptions(init=Init.WARM_START_LS_L2))
    assert info.value.exact_trajectory.shape == info.value.smoothed_trajectory.shape == (0,)
    # from zero the start's risks are recorded, and its first update fails
    with pytest.raises(FitError, match="not finite") as info:
        fit(spec, huge, FitOptions(init=Init.ZERO))
    assert info.value.exact_trajectory.shape == (1,)


def test_fit_warm_start_is_ridge_solution(two):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L1, mu=0.2)
    result = fit(spec, two, FitOptions(max_iterations=1, risk_tolerance=0.0))
    warm = closed_form_ls_l2(two, 1e-3)  # max(lam, 1e-3) with lam forced to 0
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


def majorizer_objective(spec, theta, anchor, dataset):
    """The surrogate anchored at anchor, at theta, from the verifier's pass
    over the two iterates (anchor, theta)."""
    return _surrogate_values(spec, anchor.as_vector()[None], theta.as_vector()[None], dataset)[1][0]


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_surrogate_touches_monitored_risk_at_anchor(loss, pen):
    ds = make_dataset(seed=24, n=40, q=3)
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    rng = np.random.default_rng(24)
    for _ in range(10):
        theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=3))
        anchor = majorizer_objective(spec, theta, theta, ds)
        reference = smoothed_risk(spec, theta, ds)
        assert abs(anchor - reference) <= 1e-10 * (1.0 + abs(reference))


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_update_minimizes_the_surrogate(loss, pen):
    ds = make_dataset(seed=25, n=40, q=3)
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.2, epsilon=EPS)
    theta = ModelParams(alpha=0.4, beta=np.array([0.5, -0.3, 0.1]))
    rng = np.random.default_rng(25)
    for _ in range(3):
        nxt = irls_step(spec, theta, ds)
        at_next = majorizer_objective(spec, nxt, theta, ds)
        at_anchor = majorizer_objective(spec, theta, theta, ds)
        assert at_next <= at_anchor + 1e-12 * (1.0 + abs(at_anchor))
        for _ in range(100):
            perturbed = ModelParams.from_vector(nxt.as_vector() + rng.normal(scale=1e-3, size=4))
            assert at_next <= majorizer_objective(spec, perturbed, theta, ds) + 1e-12
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
        terminal.append(smoothed_risk(spec, result.theta, ds))
    assert (np.diff(terminal) >= -1e-8).all()


def test_fixed_point_is_stationary():
    ds = make_dataset(seed=27, n=60, q=2)
    for loss, pen in ((Loss.HINGE, Penalty.ELASTIC_NET), (Loss.LOGISTIC, Penalty.L2), (Loss.SQUARED_HINGE, Penalty.L1)):
        spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
        theta = ModelParams.zeros(2)
        for _ in range(5000):
            nxt = irls_step(spec, theta, ds)
            if np.abs(nxt.as_vector() - theta.as_vector()).max() <= 1e-10:
                theta = nxt
                break
            theta = nxt
        grad = finite_diff_gradient(
            lambda vec: smoothed_risk(spec, ModelParams.from_vector(vec), ds), theta.as_vector()
        )
        assert np.abs(grad).max() <= 1e-6 * (1.0 + ds.n)


def test_fit_error_carries_partial_trajectory(two, monkeypatch):
    import irlsvm.engine as engine_module
    from irlsvm.linalg import SingularSystemError

    calls = {"count": 0}
    original = engine_module.solve_spd

    def failing_solve(matrix, rhs):
        calls["count"] += 1
        if calls["count"] >= 3:
            raise SingularSystemError("injected failure")
        return original(matrix, rhs)

    monkeypatch.setattr(engine_module, "solve_spd", failing_solve)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    with pytest.raises(FitError) as info:
        fit(spec, two, FitOptions(max_iterations=10, risk_tolerance=0.0, init=Init.ZERO))
    assert len(info.value.exact_trajectory) >= 2
    assert len(info.value.exact_trajectory) == len(info.value.smoothed_trajectory)


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(max_iterations=0)
    # a tolerance is a real number, not a bool: True would stop a fit at its first update
    for tolerance in (-1e-3, np.nan, np.inf, True, "0", None):
        with pytest.raises(ValueError, match=f"^risk_tolerance must be >= 0 and finite, got {tolerance!r}$"):
            FitOptions(risk_tolerance=tolerance)
    assert type(FitOptions(risk_tolerance=np.float64(1e-6)).risk_tolerance) is float
    # a count is an integer of at least 1: no float, whole or not, and no bool
    for count in (2.5, 3.0, True, np.nan, np.inf):
        with pytest.raises(ValueError, match="max_iterations"):
            FitOptions(max_iterations=count)
    # an init that is neither an Init nor a ModelParams is named, not read as the warm start
    for init in ("zero", None, 0):
        with pytest.raises(ValueError, match=f"init must be an Init or a ModelParams, got {init!r}"):
            FitOptions(init=init)
    assert FitOptions(max_iterations=np.int64(3)).max_iterations == 3
    for init in (*Init, ModelParams(alpha=0.0, beta=[1.0, 2.0])):
        assert FitOptions(init=init).init is init


def _assert_recorded_risks_are_direct_evaluations(spec, ds):
    """Every risk a fit records equals risk() and smoothed_risk() at its
    iterate bit for bit, in plain (tolerance 0) and extrapolating (default
    tolerance) fits of five updates."""
    for tolerance in (0.0, FitOptions().risk_tolerance):
        result = fit(spec, ds, FitOptions(max_iterations=5, risk_tolerance=tolerance, init=Init.ZERO))
        thetas = [ModelParams.from_vector(row) for row in result.theta_trajectory]
        assert_array_equal(result.exact_risk_trajectory, [risk(spec, theta, ds) for theta in thetas])
        assert_array_equal(result.smoothed_risk_trajectory, [smoothed_risk(spec, theta, ds) for theta in thetas])


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_fit_risk_trajectory_matches_direct_evaluation(loss, pen):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    _assert_recorded_risks_are_direct_evaluations(spec, make_dataset(seed=28, n=70, q=3))


@pytest.mark.parametrize("loss", [Loss.HINGE, Loss.SQUARED_HINGE, Loss.LOGISTIC], ids=lambda k: k.value)
def test_a_penalty_is_its_constants(loss):
    # least squares is left out: its 2-norm fit is the closed form, not the iteration
    ds = make_dataset(seed=30, n=50, q=3)
    options = FitOptions(max_iterations=8, risk_tolerance=0.0)
    for kind, lam, mu in ((Penalty.L2, 0.2, 0.0), (Penalty.L1, 0.0, 0.3)):
        elastic = fit(RiskSpec(loss, Penalty.ELASTIC_NET, lam=lam, mu=mu, epsilon=EPS), ds, options)
        single = fit(RiskSpec(loss, kind, lam=0.2, mu=0.3, epsilon=EPS), ds, options)
        assert_array_equal(elastic.theta_trajectory, single.theta_trajectory)
        assert_array_equal(elastic.exact_risk_trajectory, single.exact_risk_trajectory)
        assert_array_equal(elastic.smoothed_risk_trajectory, single.smoothed_risk_trajectory)


def test_fit_counts_jittered_solves():
    from irlsvm.linalg import solve_spd

    t = np.array([1.0, 2.0, -1.0, -3.0, 0.5, -0.25])
    ds = Dataset(features=np.column_stack([t, t]), labels=np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0]))
    # with lam = 0 the squared-hinge system matrix is Y'Y, singular for a duplicated column
    assert solve_spd(ds._gram, np.ones(3)).jitter_used
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.0)
    result = fit(spec, ds, FitOptions(max_iterations=3, risk_tolerance=0.0, init=Init.ZERO))
    assert result.jittered_solves == 3
    assert fit(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1), ds, FitOptions(max_iterations=3)).jittered_solves == 0


def test_constant_column_without_penalty_is_jittered_and_descends():
    # a constant feature repeats the intercept's column up to rounding, so with lam = 0 every logistic
    # system is singular; a pivot left positive by rounding is jittered like a failed one, and the
    # iterate does not drift along the null direction, where rounding in the margins raised the risk
    rng = np.random.default_rng(130)
    features = rng.normal(size=(12, 3))
    features[:, -1] = features[0, -1]
    ds = Dataset(features=features, labels=rng.choice([-1.0, 1.0], size=12))
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.0)
    result = fit(spec, ds, FitOptions(max_iterations=20, risk_tolerance=0.0, init=Init.ZERO))
    assert result.jittered_solves == 20
    track = result.smoothed_risk_trajectory
    assert (np.diff(track) <= DESCENT_SLACK * (1.0 + np.abs(track[:-1]))).all()


@pytest.fixture(scope="module", params=[_BLOCK_ROWS, 2 * _BLOCK_ROWS + 123], ids=["one-block", "three-blocks"])
def blocked(request):
    return make_dataset(seed=29, n=request.param, q=3)


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_fit_risks_match_direct_evaluation_across_blocks(blocked, loss, pen):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    _assert_recorded_risks_are_direct_evaluations(spec, blocked)
    result = fit(spec, blocked, FitOptions(max_iterations=3, risk_tolerance=0.0, init=Init.ZERO))
    beta = result.theta.beta
    m = blocked.labels * (result.theta.alpha + blocked.features @ beta)
    dense_exact = np.mean(loss_value(loss, m)) + penalty_value(beta, spec.lam, spec.mu)
    dense_smoothed = np.mean(smoothed_loss_value(loss, m, EPS)) + smoothed_penalty_value(beta, spec.lam, spec.mu, EPS)
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
    matrix[np.diag_indices_from(matrix)] += scale * penalty_quadratic(theta.beta, spec.lam, spec.mu, spec.epsilon)
    return matrix, weighted.T @ targets


@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_update_system_matches_dense_reference_across_blocks(blocked, loss, pen):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    theta = ModelParams(alpha=0.3, beta=[0.5, -0.4, 0.2])
    system = _pass(spec, theta.as_vector(), blocked)[2]
    matrix, rhs = _dense_system(spec, theta, blocked)
    assert_allclose(system[0], matrix, rtol=1e-12, atol=0)
    assert_allclose(system[1], rhs, rtol=1e-12, atol=0)


def _dense_surrogate_values(spec, anchors, images, dataset):
    """(at, after) of the verifier's pass, one (anchor, image) pair at a time
    over whole margin vectors."""

    def surrogate(theta, anchor):
        m = dataset.labels * (theta[0] + dataset.features @ theta[1:])
        m_ref = dataset.labels * (anchor[0] + dataset.features @ anchor[1:])
        loss_part = np.mean(majorizer_value(spec.loss, m, m_ref, spec.epsilon))
        return loss_part + penalty_majorizer_value(theta[1:], anchor[1:], spec.lam, spec.mu, spec.epsilon)

    pairs = list(zip(anchors, images))
    return np.array([surrogate(a, a) for a, _ in pairs]), np.array([surrogate(t, a) for a, t in pairs])


@pytest.mark.parametrize("tolerance", [0.0, 1e-12], ids=["plain", "accelerated"])
@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_surrogate_values_match_dense_reference_across_blocks(blocked, loss, pen, tolerance):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    result = fit(spec, blocked, FitOptions(max_iterations=6, risk_tolerance=tolerance, init=Init.ZERO))
    anchors, images = result.anchor_trajectory, result.theta_trajectory[1:]
    at, after = _surrogate_values(spec, anchors, images, blocked)
    dense_at, dense_after = _dense_surrogate_values(spec, anchors, images, blocked)
    assert at.shape == after.shape == (result.iterations_run,)
    assert_allclose(at, dense_at, rtol=1e-12, atol=0)
    assert_allclose(after, dense_after, rtol=1e-12, atol=0)
    # the surrogate at the anchor is the monitored risk there
    anchor_risks = [smoothed_risk(spec, ModelParams.from_vector(a), blocked) for a in anchors]
    assert_allclose(at, anchor_risks, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def three_blocks():
    return make_dataset(seed=31, n=2 * _BLOCK_ROWS + 123, q=3)


@pytest.mark.parametrize("init", [Init.ZERO, Init.WARM_START_LS_L2], ids=["zero", "warm"])
@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_tolerance_zero_fit_is_a_plain_update_chain(three_blocks, loss, pen, init):
    spec = RiskSpec(loss, pen, lam=0.2, mu=0.3, epsilon=EPS)
    result = fit(spec, three_blocks, FitOptions(max_iterations=4, risk_tolerance=0.0, init=init))
    closed_form = (loss, pen) == (Loss.LEAST_SQUARES, Penalty.L2)
    assert result.iterations_run == (1 if closed_form else 4)
    warm = closed_form_ls_l2(three_blocks, max(spec.lam, WARM_START_RIDGE_FLOOR))
    theta = ModelParams.zeros(3) if init is Init.ZERO else warm
    chain = [theta.as_vector()]
    for _ in range(result.iterations_run):
        theta = irls_step(spec, theta, three_blocks)
        chain.append(theta.as_vector())
    assert result.theta_trajectory.tobytes() == np.array(chain).tobytes()
    assert result.anchor_trajectory.tobytes() == np.array(chain[:-1]).tobytes()


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_accelerated_fit_records_update_images_with_falling_risks(loss, pen):
    ds = generate_gaussian_mixture(200, seed=32)
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
    result = fit(spec, ds, FitOptions(max_iterations=200, risk_tolerance=1e-12, init=Init.ZERO))
    extrapolated = _extrapolated(result)
    assert extrapolated.any()
    for anchor, image in zip(result.anchor_trajectory, result.theta_trajectory[1:]):
        assert irls_step(spec, ModelParams.from_vector(anchor), ds).as_vector().tobytes() == image.tobytes()
    track = result.smoothed_risk_trajectory
    rise = np.diff(track)
    # an image of an extrapolated point is kept only if its risk is not above the iterate before it
    assert (rise[extrapolated] <= 0.0).all()
    assert (rise <= DESCENT_SLACK * (1.0 + np.abs(track[:-1]))).all()
    for k in (1, result.iterations_run):
        theta = ModelParams.from_vector(result.theta_trajectory[k])
        assert_allclose(track[k], smoothed_risk(spec, theta, ds), rtol=1e-12, atol=0)


@pytest.mark.parametrize("loss", list(Loss), ids=lambda k: k.value)
def test_extrapolated_update_rejects_a_non_finite_extrapolated_point(loss):
    # x2 - x1 = x1 - x0, so v = 0 exactly, a = -inf and x' = 0 * inf = NaN
    ds = make_dataset(seed=34, n=20, q=2)
    x1 = np.array([0.5, -0.25, 1.0])
    cycle = [np.zeros(3), x1, 2.0 * x1]
    spec = RiskSpec(loss, Penalty.L2, lam=0.1, epsilon=EPS)
    assert _extrapolated_update(spec, ds, cycle, np.inf, True) is None


@pytest.mark.parametrize("n, q", [(200_000, 2), (20_000, 50)], ids=["q2", "q50"])
@pytest.mark.parametrize("loss", list(Loss), ids=lambda k: k.value)
def test_fits_and_risks_hold_no_copy_of_the_data(n, q, loss):
    # a fit, a risk and check's gates walk the Dataset's own design: besides the
    # rows each pass allocates (four rows of a block, and for a hinge update a weighted
    # copy of one, capped at _BLOCK_BYTES) they hold nothing that grows with n; a q = 50
    # fit's whole weighted block, 6.4 MiB, peaked at 7.34 MB
    ds = generate_gaussian_mixture(n, mean_neg=-0.3 * np.ones(q), mean_pos=0.3 * np.ones(q), seed=4)
    bound = 4 * _BLOCK_ROWS * 8 + min((q + 1) * _BLOCK_ROWS * 8, _BLOCK_BYTES) + 2**20
    spec = RiskSpec(loss, Penalty.ELASTIC_NET, lam=0.1, mu=0.1, epsilon=EPS)
    held = {}
    assert traced_peak(lambda: held.update(result=fit(spec, ds))) <= bound
    result = held["result"]
    assert traced_peak(lambda: risk(spec, result.theta, ds)) <= bound
    assert traced_peak(lambda: smoothed_risk(spec, result.theta, ds)) <= bound
    assert traced_peak(lambda: _violations(spec, result, ds)) <= bound


def test_a_hinge_fit_at_q_200_holds_its_weighted_copy_within_the_budget():
    # the pass buffers, a weighted copy of at most _BLOCK_BYTES and a few (q+1) x (q+1) systems: 4.05 MB
    # traced; the whole weighted block (26 MB) peaked at 28.3 MB
    q = 200
    ds = generate_gaussian_mixture(20_000, mean_neg=-0.3 * np.ones(q), mean_pos=0.3 * np.ones(q), seed=4)
    bound = 4 * _BLOCK_ROWS * 8 + _BLOCK_BYTES + 8 * (q + 1) ** 2 * 8 + 2**20
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1, epsilon=EPS)
    assert traced_peak(lambda: fit(spec, ds)) <= bound


def test_a_hinge_pass_holds_one_blocks_terms_at_a_time():
    # four rows of a block (margins, u, gamma and the weights), the 384 KiB weighted copy and 64 KiB
    # of slack: 0.880 MiB traced; with the last block's weights held while the next block's were
    # made, 1.005 MiB
    ds = generate_gaussian_mixture(2 * _BLOCK_ROWS + 2, seed=5)
    bound = 4 * _BLOCK_ROWS * 8 + (ds.q + 1) * _BLOCK_ROWS * 8 + 2**16
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    assert traced_peak(lambda: fit(spec, ds, FitOptions(max_iterations=3))) <= bound


def test_a_hinge_fit_of_a_small_dataset_sizes_its_weighted_copy_by_the_dataset():
    # four rows and a weighted copy of 2000 samples and 64 KiB of slack: 119 KiB traced; a copy
    # of a whole block's 16 384 columns, made whatever the dataset's size, peaked at 505 KiB
    ds = generate_gaussian_mixture(2000, seed=1)
    bound = 4 * ds.n * 8 + (ds.q + 1) * ds.n * 8 + 2**16
    assert traced_peak(lambda: fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), ds)) <= bound


SWEEP_OPTIONS = {"default": FitOptions(), "zero-plain": FitOptions(max_iterations=8, risk_tolerance=0.0, init=Init.ZERO)}


@pytest.mark.parametrize("options", SWEEP_OPTIONS.values(), ids=SWEEP_OPTIONS.keys())
@pytest.mark.parametrize("loss", list(Loss), ids=lambda k: k.value)
def test_sweep_points_on_one_dataset_equal_lone_fits(loss, options):
    # a sweep fits every grid point on one Dataset, which caches its Gram and column
    # sums; each point equals a fit on a fresh Dataset, from either feature layout
    shared = make_dataset(seed=37, n=_BLOCK_ROWS + 77, q=3)
    features, labels = shared.features, shared.labels
    for lam in (0.0, 0.1, 0.2):
        spec = RiskSpec(loss, Penalty.ELASTIC_NET, lam=lam, mu=0.1, epsilon=EPS)
        point = _fit_record(fit(spec, shared, options))
        for layout in (features, np.asfortranarray(features)):
            assert _fit_record(fit(spec, Dataset(features=layout, labels=labels), options)) == point


def test_hinge_fit_on_the_benchmark_data_stops_on_the_risk_tolerance():
    # the plain updates ran into the 50-iterate cap here
    data = generate_gaussian_mixture(10_000, seed=2017)
    result = fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), data)
    assert result.termination_reason is TerminationReason.RISK_TOLERANCE
    assert result.iterations_run < FitOptions().max_iterations
    assert _extrapolated(result).any()


def test_fit_takes_the_plain_update_when_the_extrapolated_solve_is_singular(monkeypatch):
    import irlsvm.engine as engine_module

    ds = make_dataset(seed=33, n=200, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1, epsilon=EPS)
    options = FitOptions(max_iterations=40, risk_tolerance=1e-12, init=Init.ZERO)
    assert _extrapolated(fit(spec, ds, options)).any()
    plain = fit(spec, ds, FitOptions(max_iterations=40, risk_tolerance=0.0, init=Init.ZERO))

    calls = {"count": 0}
    original = engine_module.solve_spd

    def singular_extrapolated_solve(matrix, rhs):
        # a cycle solves the two plain updates, then the one at the extrapolated point
        calls["count"] += 1
        return original(np.zeros_like(matrix) if calls["count"] % 3 == 0 else matrix, rhs)

    monkeypatch.setattr(engine_module, "solve_spd", singular_extrapolated_solve)
    result = fit(spec, ds, options)
    assert calls["count"] >= 3
    assert not _extrapolated(result).any()
    rows = result.iterations_run + 1
    assert result.theta_trajectory.tobytes() == plain.theta_trajectory[:rows].tobytes()
    assert result.smoothed_risk_trajectory.tobytes() == plain.smoothed_risk_trajectory[:rows].tobytes()
    calls["count"] = 0
    _build_every_system(monkeypatch)
    assert _fit_record(fit(spec, ds, options)) == _fit_record(result)


def test_failing_plain_update_of_an_accelerated_fit_raises_fit_error(monkeypatch):
    import irlsvm.engine as engine_module
    from irlsvm.linalg import SingularSystemError

    ds = make_dataset(seed=33, n=200, q=3)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1, epsilon=EPS)
    options = FitOptions(max_iterations=40, risk_tolerance=1e-12, init=Init.ZERO)
    full = fit(spec, ds, options)
    # the third solve is the update at the extrapolated point, whose image is kept
    assert _extrapolated(full)[2]

    calls = {"count": 0}
    original = engine_module.solve_spd

    def failing_fourth_solve(matrix, rhs):
        calls["count"] += 1
        if calls["count"] == 4:
            raise SingularSystemError("injected failure")
        return original(matrix, rhs)

    monkeypatch.setattr(engine_module, "solve_spd", failing_fourth_solve)
    with pytest.raises(FitError, match="injected failure") as info:
        fit(spec, ds, options)
    assert info.value.exact_trajectory.tobytes() == full.exact_risk_trajectory[:4].tobytes()
    assert info.value.smoothed_trajectory.tobytes() == full.smoothed_risk_trajectory[:4].tobytes()


def _fit_record(result):
    """What a fit returns, as bytes: the trajectories, the stop reason and the jitter count."""
    arrays = (result.theta_trajectory, result.anchor_trajectory, result.exact_risk_trajectory,
              result.smoothed_risk_trajectory)
    return tuple(a.tobytes() for a in arrays) + (result.termination_reason, result.jittered_solves)


def _build_every_system(monkeypatch):
    """Make every pass of fit build its point's system, as a pass that skips none."""
    import irlsvm.engine as engine_module

    original = engine_module._pass

    def full_pass(spec, vec, dataset, update=True, worker=None):
        return original(spec, vec, dataset, True, worker)

    monkeypatch.setattr(engine_module, "_pass", full_pass)


@pytest.fixture(scope="module")
def mixture():
    return generate_gaussian_mixture(200, seed=32)


SKIP_OPTIONS = {
    "default": FitOptions(),
    "zero-plain": FitOptions(risk_tolerance=0.0, init=Init.ZERO),
    "tight": FitOptions(max_iterations=60, risk_tolerance=1e-12),
    "three": FitOptions(max_iterations=3),
    "four": FitOptions(max_iterations=4),
}


@pytest.mark.parametrize("options", SKIP_OPTIONS.values(), ids=SKIP_OPTIONS.keys())
@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_a_skipped_system_changes_no_result(mixture, loss, pen, options, monkeypatch):
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
    result = fit(spec, mixture, options)
    _build_every_system(monkeypatch)
    assert _fit_record(fit(spec, mixture, options)) == _fit_record(result)


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_a_skipped_system_changes_no_result_when_every_extrapolation_fails(mixture, loss, pen, monkeypatch):
    import irlsvm.engine as engine_module

    monkeypatch.setattr(engine_module, "_extrapolated_update", lambda *args: None)
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
    options = FitOptions(max_iterations=60, risk_tolerance=1e-12)
    result = fit(spec, mixture, options)
    assert not _extrapolated(result).any()
    _build_every_system(monkeypatch)
    assert _fit_record(fit(spec, mixture, options)) == _fit_record(result)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_the_warm_start_is_the_ridge_solution_bit_for_bit(lam):
    rng = np.random.default_rng(36)
    features = rng.normal(size=(30, 3))
    features[:, 1] = 0.0
    negative = Dataset(features=features, labels=-np.ones(30))
    # -1 * 0.0 in every row: the zero column of the design is all -0.0
    assert np.signbit(negative._design[2]).all()
    for ds in (make_dataset(seed=35, n=50, q=3), negative):
        result = fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=lam), ds, FitOptions(max_iterations=1))
        warm = closed_form_ls_l2(ds, max(lam, WARM_START_RIDGE_FLOOR))
        assert result.theta_trajectory[0].tobytes() == warm.as_vector().tobytes()


def _record_passes_and_solves(monkeypatch):
    """Record each pass of fit as ("pass", its point, its system matrix or
    None) and each solve as ("solve", its matrix, its solution)."""
    import irlsvm.engine as engine_module

    events = []
    original_pass, original_solve = engine_module._pass, engine_module.solve_spd

    def recording_pass(spec, vec, dataset, update=True, worker=None):
        out = original_pass(spec, vec, dataset, update, worker)
        system = out[2]
        events.append(("pass", vec.copy(), None if system is None else system[0]))
        return out

    def recording_solve(matrix, rhs):
        solution = original_solve(matrix, rhs)
        events.append(("solve", matrix, solution.x))
        return solution

    monkeypatch.setattr(engine_module, "_pass", recording_pass)
    monkeypatch.setattr(engine_module, "solve_spd", recording_solve)
    return events


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_an_accelerated_fit_builds_systems_only_where_an_update_may_be_anchored(mixture, loss, pen, monkeypatch):
    events = _record_passes_and_solves(monkeypatch)
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
    result = fit(spec, mixture, FitOptions(max_iterations=200, risk_tolerance=1e-12, init=Init.ZERO))
    recorded = [row.tobytes() for row in result.theta_trajectory]
    built = [(vec, matrix) for kind, vec, matrix in events if kind == "pass" and matrix is not None]
    solves = [(matrix, x) for kind, matrix, x in events if kind == "solve"]
    # the images of extrapolated points that were not kept
    rejected = [x for _, x in solves if x.tobytes() not in recorded]
    assert len(built) <= len(solves) + 1 + len(rejected)
    # a system goes unsolved only at a rejected image, or at the last iterate of a fit
    # that stopped on the risk tolerance
    for vec, matrix in built:
        if not any(matrix is solved for solved, _ in solves):
            assert vec.tobytes() not in recorded or vec.tobytes() == recorded[-1]
    # each kept extrapolation follows exactly one risk-only pass, at the iterate before it
    extrapolated = np.flatnonzero(_extrapolated(result))
    assert extrapolated.size
    for t in extrapolated:
        anchor = result.anchor_trajectory[t].tobytes()
        i = next(i for i, e in enumerate(events) if e[0] == "pass" and e[1].tobytes() == anchor)
        kind, vec, matrix = events[i - 1]
        assert events[i - 2][0] == "solve"
        assert kind == "pass" and matrix is None and vec.tobytes() == recorded[t]


def test_a_warm_start_fit_of_one_update_makes_two_passes(mixture, monkeypatch):
    events = _record_passes_and_solves(monkeypatch)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1, epsilon=EPS)
    result = fit(spec, mixture, FitOptions(max_iterations=1, risk_tolerance=0.0))
    assert result.iterations_run == 1
    # the ridge start solves the cached Gram's system with no pass, and the last image builds none
    passes = [matrix is None for kind, _, matrix in events if kind == "pass"]
    assert [kind for kind, _, _ in events] == ["solve", "pass", "solve", "pass"]
    assert passes == [False, True]


# On a narrow design of enough row blocks, where a second CPU is usable, fit walks the later half
# of each pass's blocks in a forked child. These tests let a design of 2 blocks or more qualify, so
# that 40 000 rows (three blocks of 16 384 rows; the child walks the last two) fork a worker.
SPLIT_N = 40_000
SPLIT_OPTIONS = {"default": FitOptions(), "zero-plain": FitOptions(risk_tolerance=0.0, init=Init.ZERO)}


@pytest.fixture(scope="module", params=[2, 15], ids=["q2", "q15"])
def split_data(request):
    """40 000 samples at q = 2, and at q = 15, the widest design fit splits (q + 1 = 16)."""
    mean = 0.3 * np.ones(request.param)
    return generate_gaussian_mixture(SPLIT_N, mean_neg=-mean, mean_pos=mean, seed=38)


@pytest.fixture
def split(monkeypatch, forks):
    """The pids of the children the test forks, where every design of two blocks or more splits."""
    monkeypatch.setattr(engine_module, "_SPLIT_BLOCKS", 2)
    return forks


def _counted_block_terms(monkeypatch):
    """Count the blocks this process walks (a child counts in its own copy of the list)."""
    walked, original = [], engine_module._block_terms

    def counted(*args):
        walked.append(1)
        return original(*args)

    monkeypatch.setattr(engine_module, "_block_terms", counted)
    return walked


def _serial_fit(monkeypatch, spec, dataset, options=None):
    """fit with the fork helper declining, as on one CPU: (its record, the blocks it walked)."""
    walked = _counted_block_terms(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_second_cpu", lambda: False)
        return _fit_record(fit(spec, dataset, options)), len(walked)


@pytest.mark.parametrize("options", SPLIT_OPTIONS.values(), ids=SPLIT_OPTIONS.keys())
@pytest.mark.parametrize("loss, pen", ALL_COMBOS, ids=COMBO_IDS)
def test_a_split_fit_equals_the_serial_fit_bit_for_bit(split_data, loss, pen, options, split, monkeypatch):
    spec = RiskSpec(loss, pen, lam=0.1, mu=0.1, epsilon=EPS)
    serial, serial_walked = _serial_fit(monkeypatch, spec, split_data, options)
    walked = _counted_block_terms(monkeypatch)
    assert _fit_record(fit(spec, split_data, options)) == serial
    if (loss, pen) == (Loss.LEAST_SQUARES, Penalty.L2):
        # the closed form makes two passes, too few to repay a fork
        assert not split and len(walked) == serial_walked
    else:
        # this process walked the first of each pass's three blocks, and the child the rest
        assert len(split) == 1 and 3 * len(walked) == serial_walked
    no_child_left()


def test_a_split_fit_whose_child_is_killed_between_passes_gives_the_serial_result(monkeypatch, split):
    dataset = generate_gaussian_mixture(SPLIT_N, seed=38)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    serial, serial_walked = _serial_fit(monkeypatch, spec, dataset)
    walked, passes, original = _counted_block_terms(monkeypatch), [], engine_module._pass

    def killing_pass(*args):
        if len(passes) == 2:
            os.kill(split[0], signal.SIGKILL)
        passes.append(1)
        return original(*args)

    monkeypatch.setattr(engine_module, "_pass", killing_pass)
    assert _fit_record(fit(spec, dataset)) == serial
    # two passes split, then this process walked every block of the rest
    assert len(split) == 1 and len(walked) == 2 + (serial_walked - 2 * 3)
    no_child_left()


def test_a_fit_whose_fork_fails_gives_the_serial_result(monkeypatch, split):
    dataset = generate_gaussian_mixture(SPLIT_N, seed=38)
    spec = RiskSpec(Loss.LOGISTIC, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    serial, serial_walked = _serial_fit(monkeypatch, spec, dataset)
    walked = _counted_block_terms(monkeypatch)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    assert _fit_record(fit(spec, dataset)) == serial
    assert len(walked) == serial_walked


def test_no_child_outlives_a_fit(monkeypatch, split):
    dataset = generate_gaussian_mixture(SPLIT_N, seed=38)
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    fit(spec, dataset)
    no_child_left()
    def failing_solve(matrix, rhs):
        raise SingularSystemError("injected failure")

    # the first update's solve fails, once the first pass has split
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "solve_spd", failing_solve)
        with pytest.raises(FitError, match="injected failure"):
            fit(spec, dataset, FitOptions(init=Init.ZERO))
    no_child_left()
    # a ^C while this process walks its half of a pass, whose child's reply is then not read
    parent, calls, original = os.getpid(), [], engine_module._block_terms

    def interrupted(*args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 5:
                raise KeyboardInterrupt
        return original(*args)

    monkeypatch.setattr(engine_module, "_block_terms", interrupted)
    with pytest.raises(KeyboardInterrupt):
        fit(spec, dataset)
    no_child_left()
    assert len(split) == 3


@pytest.mark.parametrize("drawn, walked_next", [(1, 3), (2, 1)], ids=["in-this-half", "after-the-reply"])
def test_a_pass_stopped_before_the_reply_leaves_the_worker_serial(monkeypatch, split, drawn, walked_next):
    # of three blocks this process walks the first and the child the last two: a consumer that stops
    # after one share has not had the child's reply read, and one that stops after two has
    dataset = generate_gaussian_mixture(SPLIT_N, seed=38)
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    vec = np.array([0.1, 0.5, -0.3])
    exact, smoothed, (matrix, rhs) = _pass(spec, vec, dataset)
    with engine_module._pass_worker(spec, dataset, 2) as worker:
        stream = worker.shares(spec, vec, dataset, True)
        for _ in range(drawn):
            next(stream)
        stream.close()
        walked = _counted_block_terms(monkeypatch)
        following = _pass(spec, vec, dataset, True, worker)
    assert len(split) == 1 and len(walked) == walked_next
    assert following[:2] == (exact, smoothed)
    assert following[2][0].tobytes() == matrix.tobytes() and following[2][1].tobytes() == rhs.tobytes()
    no_child_left()


def test_a_split_fit_from_an_overflowing_start_warns_in_neither_process(monkeypatch, split, capfd):
    # the child walks its blocks in fit's error state, which the fork copies: a warning there, which the
    # suite's filter raises, would end the child silently, and this process would walk its blocks
    dataset = generate_gaussian_mixture(SPLIT_N, seed=38)
    walked = _counted_block_terms(monkeypatch)
    options = FitOptions(init=ModelParams(0.0, [1e308, -1e308]))  # margins of most rows overflow
    with pytest.raises(FitError, match="not finite"):
        fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), dataset, options)
    # the start's pass split, and its first solve failed
    assert len(split) == 1 and len(walked) == 1
    no_child_left()
    assert capfd.readouterr().err == ""


def test_a_fit_forks_no_worker_where_a_child_cannot_gain(monkeypatch, split):
    narrow = generate_gaussian_mixture(SPLIT_N, seed=38)
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_second_cpu", lambda: asked.append(1) or True)
        # a fit of one update, of one block (paper-sweep's 10^4 rows), or of a q = 50 design of three
        # blocks: each is decided before the helper's test of the CPUs, a system call
        fit(spec, narrow, FitOptions(max_iterations=1))
        fit(spec, generate_gaussian_mixture(10_000, seed=38))
        mean = 0.2 * np.ones(50)
        fit(spec, generate_gaussian_mixture(SPLIT_N, mean_neg=-mean, mean_pos=mean, seed=38), FitOptions(max_iterations=2))
        assert not asked
    # one usable CPU
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        fit(spec, narrow, FitOptions(max_iterations=2))
    assert not split
    fit(spec, narrow, FitOptions(max_iterations=2))
    assert len(split) == 1
    no_child_left()


# two q = 50 fits of 2·10^4 samples (two row blocks), run under a given BLAS thread count
_THREADED_FITS = """
import sys
import numpy as np
from irlsvm import Loss, Penalty, RiskSpec, fit, generate_gaussian_mixture

mean = 0.2 * np.ones(50)
dataset = generate_gaussian_mixture(20_000, mean_neg=-mean, mean_pos=mean, seed=1)
arrays = {}
for loss in (Loss.HINGE, Loss.LOGISTIC):
    result = fit(RiskSpec(loss, Penalty.L2, lam=0.1), dataset)
    arrays[f"{loss.value}-theta"] = result.theta_trajectory
    arrays[f"{loss.value}-risk"] = np.stack([result.exact_risk_trajectory, result.smoothed_risk_trajectory])
np.savez(sys.argv[1], **arrays)
"""


def test_fits_repeat_at_a_fixed_blas_thread_count_and_agree_across_counts(tmp_path):
    # the two products that reduce over a block's rows (a weighted Gram and a pass's right side)
    # sum in an order that depends on the BLAS thread count, so only a fixed count repeats bit for
    # bit; across 1 and 2 threads these fits kept their update counts, and their iterates differed
    # by at most 3.7e-11 and their risks by 9.3e-14, relative to 1 + |value| (3.9e-10 and 7.5e-13
    # with seed 7), with the weighted Gram formed in sub-blocks of _BLOCK_BYTES
    runs = []
    for threads in (1, 2, 2):
        path = tmp_path / f"run{len(runs)}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-c", _THREADED_FITS, str(path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        with np.load(path) as arrays:
            runs.append(dict(arrays))
    one, two, again = runs
    for key, value in two.items():
        assert value.tobytes() == again[key].tobytes(), key
        assert one[key].shape == value.shape, key
        bound = 1e-9 if key.endswith("theta") else 1e-11
        assert np.all(np.abs(one[key] - value) <= bound * (1.0 + np.abs(value))), key
