import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, TerminationReason, predict, predict_batch, risk
from irlsvm.core import _BLOCK_BYTES, _BLOCK_ROWS

from helpers import make_dataset, traced_peak

# unpenalised least squares: the risk is the mean of (1 - m)^2 over the margins
# m = y * (alpha + beta.t) of the blocked pass
LS = RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=0.0)


def test_a_wide_dataset_is_built_holding_little_besides_its_design():
    # the finiteness check's mask of a block is at most _BLOCK_BYTES / 8 bytes; a mask of
    # 16 384 rows took 3.3 MB at q = 200
    rng = np.random.default_rng(5)
    features, labels, held = rng.normal(size=(20_000, 200)), np.where(rng.random(20_000) < 0.5, -1.0, 1.0), {}
    peak = traced_peak(lambda: held.update(ds=Dataset(features, labels)))
    assert peak <= held["ds"]._design.nbytes + _BLOCK_BYTES // 8 + 2**19


def test_dataset_stores_its_design():
    ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
    assert_array_equal(ds._design.T, [[1.0, 1.0], [-1.0, 1.0]])

    ds = Dataset(features=np.array([[2.0, 3.0]]), labels=np.array([-1.0]))
    assert_array_equal(ds._design.T, [[-1.0, -2.0, -3.0]])
    assert ds._design.flags.c_contiguous and not ds._design.flags.writeable


@pytest.mark.parametrize("order", ["C", "F"])
def test_dataset_gives_back_its_features_and_labels_exactly(order):
    base = make_dataset(seed=3, n=2 * _BLOCK_ROWS + 5)
    features = np.array(base.features, order=order)
    features[:4, 0] = [0.0, -0.0, 0.0, -0.0]  # signed zeros survive y * (y * t)
    labels = np.array(base.labels)
    labels[:4] = [1.0, 1.0, -1.0, -1.0]
    ds = Dataset(features=features, labels=labels)
    assert (ds.n, ds.q) == features.shape
    assert ds.features.tobytes() == np.ascontiguousarray(features).tobytes()
    assert ds.features.flags.c_contiguous and ds.features is not ds.features
    assert ds.labels.tobytes() == labels.tobytes()
    # the labels are the design's first row, not a copy
    assert np.shares_memory(ds.labels, ds._design)
    assert_array_equal(ds._design[0], ds.labels)


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="row 1"):
        Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, 0.0]))


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="row 1"):
        Dataset(features=np.array([[1.0], [np.nan]]), labels=np.array([1.0, -1.0]))


def test_dataset_reports_a_non_finite_feature_past_the_first_block_by_its_row():
    features = np.ones((_BLOCK_ROWS + 10, 2))
    features[_BLOCK_ROWS + 3, 1] = np.inf
    with pytest.raises(ValueError, match=f"^non-finite feature in row {_BLOCK_ROWS + 3}$"):
        Dataset(features=features, labels=np.ones(_BLOCK_ROWS + 10))


def test_dataset_reports_a_non_finite_feature_before_an_earlier_bad_label():
    # the blocks are checked one at a time, yet a bad label in the first block
    # is reported only once no later block holds a non-finite feature
    features = np.ones((2 * _BLOCK_ROWS, 1))
    features[_BLOCK_ROWS + 1, 0] = np.nan
    labels = np.ones(2 * _BLOCK_ROWS)
    labels[5] = 1e300
    with pytest.raises(ValueError, match=f"^non-finite feature in row {_BLOCK_ROWS + 1}$"):
        Dataset(features=features, labels=labels)
    # a block with a bad label is not multiplied out, so its overflow warns of nothing
    features[_BLOCK_ROWS + 1, 0] = 1e10
    features[5, 0] = 1e10
    with pytest.raises(ValueError, match=r"^label in row 5 is 1e\+300, must be -1 or \+1$"):
        Dataset(features=features, labels=labels)


def test_dataset_filled_from_blocks_is_checked_and_stored_as_a_constructed_one():
    features = np.array([[1.0, 2.0], [3.0, -0.0], [5.0, 6.0]])
    labels = np.array([1.0, -1.0, 1.0])
    # the generator's way in: blocks of any size, among them an empty one
    blocks = [(labels[:2], features[:2]), (labels[2:2], features[2:2]), (labels[2:], features[2:])]
    ds = Dataset._filled(3, 2, blocks)
    assert ds._design.tobytes() == Dataset(features=features, labels=labels)._design.tobytes()
    assert not ds._design.flags.writeable
    with pytest.raises(ValueError, match="^label in row 2 is 0.5, must be -1 or \\+1$"):
        Dataset._filled(3, 2, [(labels[:2], features[:2]), (np.array([0.5]), features[2:])])
    with pytest.raises(ValueError, match="^non-finite feature in row 2$"):
        Dataset._filled(3, 2, [(labels[:2], features[:2]), (labels[2:], np.array([[np.nan, 1.0]]))])


def test_dataset_blocks_walk_its_design_in_order():
    ds = make_dataset(seed=4, n=2 * _BLOCK_ROWS + 7, q=2)
    blocks = list(ds._blocks())
    assert [b.shape for b in blocks] == [(3, _BLOCK_ROWS), (3, _BLOCK_ROWS), (3, 7)]
    assert all(np.shares_memory(b, ds._design) for b in blocks)
    assert np.concatenate(blocks, axis=1).tobytes() == ds._design.tobytes()


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.empty((0, 2)), labels=np.empty(0))
    with pytest.raises(ValueError, match="labels"):
        Dataset(features=np.ones((2, 1)), labels=np.array([1.0]))
    with pytest.raises(ValueError, match="features must be a 2-d matrix"):
        Dataset(features=np.ones((2, 1, 1)), labels=np.ones(2))


def test_dataset_arrays_are_readonly():
    ds = make_dataset(seed=1)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1.0
    with pytest.raises(AttributeError):
        ds.features = np.zeros((ds.n, ds.q))
    with pytest.raises(AttributeError):
        ds._design = np.zeros((ds.q + 1, ds.n))


def test_margins_examples(two_sample):
    # margins 0, 0 and 1, 1
    assert risk(LS, ModelParams.zeros(1), two_sample) == 1.0
    assert risk(LS, ModelParams(alpha=0.0, beta=[1.0]), two_sample) == 0.0

    # margin -7
    ds = Dataset(features=np.array([[3.0]]), labels=np.array([-1.0]))
    assert risk(LS, ModelParams(alpha=1.0, beta=[2.0]), ds) == 64.0


def _assert_margins_match_per_row_evaluation(ds):
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=ds.q))
        direct = ds.labels * (theta.alpha + ds.features @ theta.beta)
        assert_allclose(risk(LS, theta, ds), np.mean((1.0 - direct) ** 2), rtol=1e-12, atol=0)


def test_margins_match_per_row_evaluation():
    _assert_margins_match_per_row_evaluation(make_dataset(seed=11, n=60, q=4))


def test_margins_match_per_row_evaluation_across_blocks():
    # two full blocks and a partial one
    _assert_margins_match_per_row_evaluation(make_dataset(seed=11, n=2 * _BLOCK_ROWS + 123, q=4))


def test_margins_dimension_mismatch(two_sample):
    with pytest.raises(ValueError, match="theta has 2 features but data has 1"):
        risk(LS, ModelParams(alpha=0.0, beta=[1.0, 2.0]), two_sample)


def test_predict_examples():
    theta = ModelParams(alpha=0.0, beta=[1.0, 1.0])
    assert predict(theta, [1.0, 1.0]) == 1
    assert predict(theta, [-1.0, -1.0]) == -1
    # exact tie resolves to +1
    assert predict(theta, [1.0, -1.0]) == 1


def test_predict_matches_margin_sign():
    rng = np.random.default_rng(5)
    theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=3))
    for _ in range(200):
        t = rng.normal(size=3)
        ds = Dataset(features=t[None, :], labels=np.array([1.0]))
        m = (ds._design.T @ theta.as_vector())[0]
        assert (predict(theta, t) == 1) == (m >= 0)


def test_predict_errors():
    theta = ModelParams(alpha=0.0, beta=[1.0])
    with pytest.raises(ValueError):
        predict(theta, [1.0, 2.0])
    with pytest.raises(ValueError):
        predict(theta, [np.inf])


def test_predict_batch_matches_predict():
    rng = np.random.default_rng(9)
    theta = ModelParams(alpha=0.1, beta=rng.normal(size=2))
    feats = rng.normal(size=(50, 2))
    batch = predict_batch(theta, feats)
    assert_array_equal(batch, [predict(theta, t) for t in feats])


def test_model_params_vector_roundtrip():
    theta = ModelParams(alpha=1.5, beta=[2.0, -3.0])
    assert_array_equal(theta.as_vector(), [1.5, 2.0, -3.0])
    again = ModelParams.from_vector(theta.as_vector())
    assert again.alpha == theta.alpha
    assert_array_equal(again.beta, theta.beta)


def test_model_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        ModelParams(alpha=np.nan, beta=[1.0])


@pytest.mark.parametrize(
    "penalty, lam, mu, want_lam, want_mu",
    [
        (Penalty.L2, 0.5, 0.7, 0.5, 0.0),
        (Penalty.L1, 0.5, 0.7, 0.0, 0.7),
        (Penalty.ELASTIC_NET, 0.5, 0.7, 0.5, 0.7),
    ],
)
def test_risk_spec_ignores_irrelevant_constant(penalty, lam, mu, want_lam, want_mu):
    spec = RiskSpec(Loss.HINGE, penalty, lam=lam, mu=mu)
    assert spec.lam == want_lam and spec.mu == want_mu


def test_risk_spec_validation():
    # a constant is a real number, not a bool, so True is no 1.0 and a str or None is named, not compared
    for lam in (-1.0, np.nan, np.inf, True, "0.1", None):
        with pytest.raises(ValueError, match=f"^lambda must be >= 0 and finite, got {lam!r}$"):
            RiskSpec(Loss.HINGE, Penalty.L2, lam=lam)
    for mu in (-0.1, np.nan, np.inf, True):
        with pytest.raises(ValueError, match=f"^mu must be >= 0 and finite, got {mu!r}$"):
            RiskSpec(Loss.HINGE, Penalty.L1, mu=mu)
    for epsilon in (0.0, np.nan, np.inf, True):
        with pytest.raises(ValueError, match=f"^epsilon must be > 0 and finite, got {epsilon!r}$"):
            RiskSpec(Loss.HINGE, Penalty.L2, epsilon=epsilon)
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=np.float64(0.1), mu=1, epsilon=np.float32(0.5))
    assert [type(value) for value in (spec.lam, spec.mu, spec.epsilon)] == [float, float, float]
    # the kernels take the kind as given, so a value that is not the enum
    # must fail here rather than be evaluated as some other kind
    with pytest.raises(ValueError, match="loss must be a Loss, got 'hinge'"):
        RiskSpec("hinge", Penalty.L2, lam=0.1)
    with pytest.raises(ValueError, match="penalty must be a Penalty, got 'l2'"):
        RiskSpec(Loss.HINGE, "l2", lam=0.1)


# RiskSpec is the one check on the constants: the loss and penalty kernels
# behind it take them as given
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_risk_spec_rejects_out_of_range_epsilon(bad):
    for loss in Loss:
        for penalty in Penalty:
            with pytest.raises(ValueError, match="epsilon"):
                RiskSpec(loss, penalty, lam=0.1, mu=0.1, epsilon=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_risk_spec_rejects_out_of_range_constants(bad):
    for penalty in Penalty:
        with pytest.raises(ValueError, match="^lambda must"):
            RiskSpec(Loss.HINGE, penalty, lam=bad, mu=0.1)
        with pytest.raises(ValueError, match="^mu must"):
            RiskSpec(Loss.HINGE, penalty, lam=0.1, mu=bad)


def test_fit_result_trajectory_lengths_must_agree():
    theta = ModelParams.zeros(1)
    with pytest.raises(ValueError):
        FitResult(
            theta=theta,
            theta_trajectory=np.zeros((2, 2)),
            anchor_trajectory=np.zeros((1, 2)),
            exact_risk_trajectory=np.array([1.0, 0.5]),
            smoothed_risk_trajectory=np.array([1.0]),
            iterations_run=1,
            termination_reason=TerminationReason.RISK_TOLERANCE,
        )
    with pytest.raises(ValueError):
        FitResult(
            theta=theta,
            theta_trajectory=np.zeros((3, 2)),
            anchor_trajectory=np.zeros((2, 2)),
            exact_risk_trajectory=np.array([1.0, 0.5]),
            smoothed_risk_trajectory=np.array([1.0, 0.5]),
            iterations_run=2,
            termination_reason=TerminationReason.MAX_ITERATIONS,
        )
    for rows, cols in ((1, 2), (2, 3)):  # one row per iterate, one column per parameter
        with pytest.raises(ValueError, match="theta_trajectory"):
            FitResult(
                theta=theta,
                theta_trajectory=np.zeros((rows, cols)),
                anchor_trajectory=np.zeros((1, 2)),
                exact_risk_trajectory=np.array([1.0, 0.5]),
                smoothed_risk_trajectory=np.array([1.0, 0.5]),
                iterations_run=1,
                termination_reason=TerminationReason.MAX_ITERATIONS,
            )
    # theta is the last iterate, bit for bit, or the model file would disagree with the trajectory
    for params, last in ((ModelParams(5.0, [7.0]), [0.0, 0.0]), (theta, [-0.0, 0.0])):
        with pytest.raises(ValueError, match="^theta must be the last row of theta_trajectory$"):
            FitResult(
                theta=params,
                theta_trajectory=np.array([[1.0, 1.0], last]),
                anchor_trajectory=np.zeros((1, 2)),
                exact_risk_trajectory=np.array([1.0, 0.5]),
                smoothed_risk_trajectory=np.array([1.0, 0.5]),
                iterations_run=1,
                termination_reason=TerminationReason.MAX_ITERATIONS,
            )
    for rows, cols in ((2, 2), (1, 3)):  # one anchor per update, one column per parameter
        with pytest.raises(ValueError, match="anchor_trajectory"):
            FitResult(
                theta=theta,
                theta_trajectory=np.zeros((2, 2)),
                anchor_trajectory=np.zeros((rows, cols)),
                exact_risk_trajectory=np.array([1.0, 0.5]),
                smoothed_risk_trajectory=np.array([1.0, 0.5]),
                iterations_run=1,
                termination_reason=TerminationReason.MAX_ITERATIONS,
            )


def test_predict_batch_rejects_non_finite_features():
    theta = ModelParams(alpha=0.5, beta=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite feature in row 1"):
        predict_batch(theta, np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0]]))


def test_predict_batch_rejects_a_non_finite_decision_value():
    # finite parameters and features whose products overflow to inf and -inf: their sum is NaN,
    # which a sign test would label -1; the overflow is reported by the error, not as a warning
    theta = ModelParams(alpha=0.0, beta=np.array([1e308, -1e308]))
    features = np.array([[1.0, 1.0], [10.0, 10.0], [-10.0, -10.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-finite decision value in row 1$"):
            predict_batch(theta, features)
        assert predict_batch(theta, features[:1])[0] == 1.0
