import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irlsvm import Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, TerminationReason, predict, predict_batch
from irlsvm.core import _BLOCK_ROWS, _margin_blocks, build_design_matrix

from helpers import make_dataset


def margins(data, theta):
    """Margins y_i * (alpha + beta.t_i) stitched from the blocked pass's walk
    over data, a design matrix or a dataset."""
    buffer = np.empty(min(data.n, _BLOCK_ROWS))
    return np.concatenate([m.copy() for _block, m in _margin_blocks(data, theta, buffer)])


def test_design_matrix_rows():
    ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
    design = build_design_matrix(ds)
    assert_array_equal(design.rows, [[1.0, 1.0], [-1.0, 1.0]])

    ds = Dataset(features=np.array([[2.0, 3.0]]), labels=np.array([-1.0]))
    assert_array_equal(build_design_matrix(ds).rows, [[-1.0, -2.0, -3.0]])


def test_design_matrix_first_column_is_label():
    ds = make_dataset(seed=3)
    design = build_design_matrix(ds)
    assert_array_equal(design.rows[:, 0], ds.labels)
    assert np.all(np.abs(design.rows[:, 0]) == 1.0)
    assert design.n == ds.n and design.q == ds.q


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="row 1"):
        Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, 0.0]))


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="row 1"):
        Dataset(features=np.array([[1.0], [np.nan]]), labels=np.array([1.0, -1.0]))


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.empty((0, 2)), labels=np.empty(0))
    with pytest.raises(ValueError, match="labels"):
        Dataset(features=np.ones((2, 1)), labels=np.array([1.0]))


def test_dataset_arrays_are_readonly():
    ds = make_dataset(seed=1)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


def test_margins_examples(two_sample):
    design = build_design_matrix(two_sample)
    assert_array_equal(margins(design, ModelParams.zeros(1)), [0.0, 0.0])
    assert_array_equal(margins(design, ModelParams(alpha=0.0, beta=[1.0])), [1.0, 1.0])

    assert_array_equal(margins(two_sample, ModelParams(alpha=0.0, beta=[1.0])), [1.0, 1.0])

    ds = Dataset(features=np.array([[3.0]]), labels=np.array([-1.0]))
    assert margins(build_design_matrix(ds), ModelParams(alpha=1.0, beta=[2.0]))[0] == -7.0
    assert margins(ds, ModelParams(alpha=1.0, beta=[2.0]))[0] == -7.0


def _assert_margins_match_per_row_evaluation(ds):
    design = build_design_matrix(ds)
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = ModelParams(alpha=rng.normal(), beta=rng.normal(size=ds.q))
        direct = ds.labels * (theta.alpha + ds.features @ theta.beta)
        assert_allclose(margins(design, theta), direct, rtol=1e-12, atol=1e-12)
        assert_allclose(margins(ds, theta), direct, rtol=1e-12, atol=1e-12)


def test_margins_match_per_row_evaluation():
    _assert_margins_match_per_row_evaluation(make_dataset(seed=11, n=60, q=4))


def test_margins_match_per_row_evaluation_across_blocks():
    # two full blocks and a partial one
    _assert_margins_match_per_row_evaluation(make_dataset(seed=11, n=2 * _BLOCK_ROWS + 123, q=4))


def test_margins_dimension_mismatch(two_sample):
    for data in (two_sample, build_design_matrix(two_sample)):
        with pytest.raises(ValueError):
            margins(data, ModelParams(alpha=0.0, beta=[1.0, 2.0]))


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
        m = margins(build_design_matrix(ds), theta)[0]
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
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda"):
            RiskSpec(Loss.HINGE, Penalty.L2, lam=lam)
    for mu in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="mu"):
            RiskSpec(Loss.HINGE, Penalty.L1, mu=mu)
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            RiskSpec(Loss.HINGE, Penalty.L2, epsilon=epsilon)


def test_fit_result_trajectory_lengths_must_agree():
    theta = ModelParams.zeros(1)
    with pytest.raises(ValueError):
        FitResult(
            theta=theta,
            theta_trajectory=np.zeros((2, 2)),
            exact_risk_trajectory=np.array([1.0, 0.5]),
            smoothed_risk_trajectory=np.array([1.0]),
            iterations_run=1,
            converged=True,
            termination_reason=TerminationReason.RISK_TOLERANCE,
        )
    with pytest.raises(ValueError):
        FitResult(
            theta=theta,
            theta_trajectory=np.zeros((3, 2)),
            exact_risk_trajectory=np.array([1.0, 0.5]),
            smoothed_risk_trajectory=np.array([1.0, 0.5]),
            iterations_run=2,
            converged=False,
            termination_reason=TerminationReason.MAX_ITERATIONS,
        )
    for rows, cols in ((1, 2), (2, 3)):  # one row per iterate, one column per parameter
        with pytest.raises(ValueError, match="theta_trajectory"):
            FitResult(
                theta=theta,
                theta_trajectory=np.zeros((rows, cols)),
                exact_risk_trajectory=np.array([1.0, 0.5]),
                smoothed_risk_trajectory=np.array([1.0, 0.5]),
                iterations_run=1,
                converged=False,
                termination_reason=TerminationReason.MAX_ITERATIONS,
            )


def test_predict_batch_rejects_non_finite_features():
    theta = ModelParams(alpha=0.5, beta=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite feature in row 1"):
        predict_batch(theta, np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0]]))
