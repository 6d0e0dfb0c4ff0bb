import hashlib
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from irlsvm import (
    DataError,
    FitOptions,
    FitResult,
    Init,
    Loss,
    ModelParams,
    Penalty,
    RiskSpec,
    TerminationReason,
    fit,
    generate_gaussian_mixture,
    load_dataset_csv,
    read_model,
    read_trajectory_csv,
    write_dataset_csv,
    write_model,
    write_trajectory_csv,
)
from irlsvm import data_io

from helpers import make_dataset, traced_peak, two_sample_dataset


def test_load_two_sample_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,1\n-1,-1\n")
    ds = load_dataset_csv(path)
    assert_array_equal(ds.features, [[1.0], [-1.0]])
    assert_array_equal(ds.labels, [1.0, -1.0])


def test_label_column_position_is_flexible(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1,x2\n1,0.5,2\n-1,1.5,3\n")
    ds = load_dataset_csv(path)
    assert_array_equal(ds.features, [[0.5, 2.0], [1.5, 3.0]])


def test_load_rejects_label_zero(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,1\n2,0\n")
    with pytest.raises(DataError, match="row 2"):
        load_dataset_csv(path)


def test_load_rejects_empty_body(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n")
    with pytest.raises(DataError, match="no samples"):
        load_dataset_csv(path)


def test_load_rejects_missing_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n1,2\n")
    with pytest.raises(DataError, match="label column"):
        load_dataset_csv(path)


def test_load_reports_bad_cell_position(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,y\n1,2,1\n1,oops,-1\n")
    with pytest.raises(DataError, match="row 2, column 'x2'"):
        load_dataset_csv(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,1\n2\n")
    with pytest.raises(DataError, match="row 2"):
        load_dataset_csv(path)


def test_load_reports_late_non_utf8_text_without_a_second_read(tmp_path, monkeypatch):
    # the bulk parse meets the byte and the error passes on; reading the file again
    # cell by cell would only fail the same way
    path = tmp_path / "d.csv"
    path.write_bytes(b"x1,y\n" + b"1,1\n" * 4000 + b"\xff,1\n")

    def scan_rows(*args):
        raise AssertionError("the file was read a second time")

    monkeypatch.setattr(data_io, "_scan_rows", scan_rows)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text \\(invalid start byte\\)$"):
        load_dataset_csv(path)


def test_load_missing_file():
    with pytest.raises(DataError):
        load_dataset_csv("/nonexistent/nope.csv")


def test_dataset_csv_roundtrip_is_exact(tmp_path):
    ds = make_dataset(seed=40, n=23, q=4)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    again = load_dataset_csv(path)
    assert_array_equal(again.features, ds.features)
    assert_array_equal(again.labels, ds.labels)
    # the loader builds its design through the constructor, as any Dataset is built
    assert again._design.tobytes() == ds._design.tobytes() and not again._design.flags.writeable


def test_generator_balance_and_order():
    ds = generate_gaussian_mixture(100, seed=1)
    assert ds.n == 100 and ds.q == 2
    assert_array_equal(ds.labels[:50], -np.ones(50))
    assert_array_equal(ds.labels[50:], np.ones(50))


def test_generator_is_deterministic():
    a = generate_gaussian_mixture(500, seed=77)
    b = generate_gaussian_mixture(500, seed=77)
    assert_array_equal(a.features, b.features)
    c = generate_gaussian_mixture(500, seed=78)
    assert not np.array_equal(a.features, c.features)


def test_generator_class_means_near_targets():
    ds = generate_gaussian_mixture(10_000, seed=2017)
    neg = ds.features[:5000].mean(axis=0)
    pos = ds.features[5000:].mean(axis=0)
    assert np.abs(neg - (-1.0)).max() <= 0.05
    assert np.abs(pos - 1.0).max() <= 0.05
    # unit spherical covariance
    assert abs(ds.features[:5000].std(ddof=1) - 1.0) <= 0.05


def test_generator_rejects_odd_n():
    with pytest.raises(ValueError, match="positive even integer, got 7"):
        generate_gaussian_mixture(7, seed=0)
    with pytest.raises(ValueError, match="positive even integer, got 0"):
        generate_gaussian_mixture(0, seed=0)
    with pytest.raises(ValueError, match="equal length"):
        generate_gaussian_mixture(4, mean_neg=(0.0,), mean_pos=(1.0, 1.0))
    # the Dataset would reject the samples too, but the generator names the argument at fault
    with pytest.raises(ValueError, match="^class means must be finite$"):
        generate_gaussian_mixture(4, mean_neg=(0.0, np.nan), mean_pos=(1.0, 1.0))


def test_generator_custom_means():
    ds = generate_gaussian_mixture(2_000, mean_neg=(-3.0, 0.0), mean_pos=(3.0, 0.0), seed=5)
    assert ds.features[:1000, 0].mean() < -2.5
    assert ds.features[1000:, 0].mean() > 2.5


def test_generator_bytes_are_pinned_at_fifty_features():
    ds = generate_gaussian_mixture(1000, mean_neg=-0.2 * np.ones(50), mean_pos=0.2 * np.ones(50), seed=0)
    digest = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()
    assert digest == "fd9d41b9a28097becd3eff7dcd89cc7e2d9fa6046f2b347813ee0da52bcac3e1"


@pytest.mark.parametrize("q", [1, 2, 50])
def test_generator_output_does_not_depend_on_its_batch_size(monkeypatch, q):
    # the last batch is cut part-way through its accepted pairs: at the default size
    # for every q, and at 7 pairs for q = 1 and q = 50
    def draw():
        return generate_gaussian_mixture(1002, mean_neg=-np.ones(q), mean_pos=np.ones(q), seed=q)

    expected = draw()
    for pairs in (1, 3, 7):
        monkeypatch.setattr(data_io, "_WRITE_CELLS", pairs)
        ds = draw()
        assert ds.features.tobytes() == expected.features.tobytes()
        assert ds.labels.tobytes() == expected.labels.tobytes()


@pytest.mark.parametrize("n, q", [(200_000, 2), (20_000, 50)])
def test_generator_holds_little_besides_its_output(n, q):
    # the output, which is the Dataset's design, one batch of pairs and one stage; a
    # transform over arrays as long as the output held 3.4 and 4.8 times it, and a
    # Dataset that copied the generated features 2 times
    held = {}
    peak = traced_peak(lambda: held.update(ds=generate_gaussian_mixture(n, mean_neg=-np.ones(q), mean_pos=np.ones(q))))
    output = held["ds"].features.nbytes + held["ds"].labels.nbytes
    assert peak <= 1.25 * output + 2**20


def test_predictions_writer_holds_its_source_and_one_block(tmp_path):
    n = 200_000
    source = tmp_path / "d.csv"
    write_dataset_csv(generate_gaussian_mixture(n, seed=3), source)
    labels = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    peak = traced_peak(lambda: data_io.write_predictions_csv(source, ["x1", "x2", "y"], labels, tmp_path / "p.csv"))
    assert peak <= 1.5 * source.stat().st_size


def test_predictions_writer_decodes_one_block_of_records_at_a_time(tmp_path):
    # a CRLF file goes record by record: beside its bytes (8.7 MB) the writer holds one block of
    # 16 384 records and their text, about 4 MiB; holding every decoded line took 3.8 times the bytes
    n = 200_000
    source = tmp_path / "d.csv"
    write_dataset_csv(generate_gaussian_mixture(n, seed=3), source)
    source.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
    labels = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    peak = traced_peak(lambda: data_io.write_predictions_csv(source, ["x1", "x2", "y"], labels, tmp_path / "p.csv"))
    assert peak <= source.stat().st_size + 6 * 2**20


def _fit_two_sample(spec):
    return fit(spec, two_sample_dataset(), FitOptions(max_iterations=20, risk_tolerance=0.0, init=Init.ZERO))


def test_model_roundtrip_is_bit_exact(tmp_path):
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.3, epsilon=1e-6)
    result = _fit_two_sample(spec)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    theta, spec_back = read_model(path)
    assert theta.alpha == result.theta.alpha
    assert_array_equal(theta.beta, result.theta.beta)
    assert spec_back.loss is spec.loss and spec_back.penalty is spec.penalty
    assert spec_back.lam == 0.1 and spec_back.mu == 0.3 and spec_back.epsilon == 1e-6
    # blank lines, with or without spaces, are skipped
    path.write_text("\n" + path.read_text().replace("\n", "\n  \n\n"))
    theta_blank, spec_blank = read_model(path)
    assert theta_blank.alpha == theta.alpha and theta_blank.beta.tobytes() == theta.beta.tobytes()
    assert spec_blank == spec_back


def test_model_rejects_unknown_key(tmp_path):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = _fit_two_sample(spec)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    path.write_text(path.read_text() + "surprise = 1\n")
    with pytest.raises(DataError, match="unknown key"):
        read_model(path)


def test_model_rejects_truncation(tmp_path):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = _fit_two_sample(spec)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(DataError, match="missing keys"):
        read_model(path)


def test_model_rejects_format_mismatch(tmp_path):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = _fit_two_sample(spec)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    text = path.read_text().replace("irlsvm-model/1", "irlsvm-model/9")
    path.write_text(text)
    with pytest.raises(DataError, match="format"):
        read_model(path)


def test_model_rejects_malformed_line(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("format irlsvm-model/1\n")
    with pytest.raises(DataError, match="key = value"):
        read_model(path)


def test_model_rejects_gappy_beta_indices(tmp_path):
    spec = RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=0.2)
    result = _fit_two_sample(spec)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    path.write_text(path.read_text().replace("beta_1", "beta_2"))
    with pytest.raises(DataError, match="beta"):
        read_model(path)


def test_model_file_text_is_pinned(tmp_path):
    """Every key, in the written order, with names as text and numbers as '%.17g'."""
    path_rows = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [-0.25, 2 / 3, 1e20]])
    result = FitResult(
        theta=ModelParams(alpha=-0.25, beta=np.array([2 / 3, 1e20])),
        theta_trajectory=path_rows,
        anchor_trajectory=path_rows[:2],
        exact_risk_trajectory=np.array([1.0, 0.5, 0.3]),
        smoothed_risk_trajectory=np.array([1.0, 0.5, 0.1 + 0.2]),
        iterations_run=2,
        termination_reason=TerminationReason.MAX_ITERATIONS,
    )
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.3, epsilon=1e-6)
    path = tmp_path / "m.model"
    write_model(result, spec, path)
    assert path.read_bytes() == (
        b"format = irlsvm-model/1\n"
        b"loss = squared-hinge\n"
        b"penalty = elastic\n"
        b"lambda = 0.10000000000000001\n"
        b"mu = 0.29999999999999999\n"
        b"epsilon = 9.9999999999999995e-07\n"
        b"alpha = -0.25\n"
        b"beta_1 = 0.66666666666666663\n"
        b"beta_2 = 1e+20\n"
        b"iterations_run = 2\n"
        b"terminal_exact_risk = 0.29999999999999999\n"
        b"terminal_smoothed_risk = 0.30000000000000004\n"
    )


def test_trajectory_row_counts(tmp_path):
    ds = make_dataset(seed=41, n=30, q=2)
    result = fit(RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.2), ds, FitOptions(max_iterations=50, risk_tolerance=0.0))
    path = tmp_path / "t.csv"
    write_trajectory_csv(result, path)
    assert len(path.read_text().splitlines()) == 52  # header + 51 iterates

    closed = fit(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=0.2), ds)
    write_trajectory_csv(closed, path)
    assert len(path.read_text().splitlines()) == 3  # header + init + solution


def test_trajectory_roundtrip_and_descent(tmp_path):
    ds = make_dataset(seed=42, n=40, q=2)
    result = fit(
        RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1),
        ds,
        FitOptions(max_iterations=30, risk_tolerance=0.0, init=Init.ZERO),
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv(result, path)
    iterations, exact, smoothed = read_trajectory_csv(path)
    assert_array_equal(iterations, np.arange(31))
    assert_array_equal(exact, result.exact_risk_trajectory)
    assert_array_equal(smoothed, result.smoothed_risk_trajectory)
    assert (np.diff(exact) <= 1e-10 * (1.0 + np.abs(exact[:-1]))).all()


def test_trajectory_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        read_trajectory_csv(path)


@pytest.mark.parametrize(
    "cells, message",
    [
        ("0 1.5 2", "non-blank row 2 is 1.5, expected 1"),
        ("0 1 -3", "non-blank row 3 is -3.0, expected 2"),
        ("0 1 3", "non-blank row 3 is 3.0, expected 2"),
    ],
    ids=["fractional", "negative", "gap"],
)
def test_trajectory_reader_rejects_iterations_its_writer_never_writes(tmp_path, cells, message):
    path = tmp_path / "t.csv"
    path.write_text("iteration,exact_risk,smoothed_risk\n" + "".join(f"{c},0.5,0.5\n" for c in cells.split()))
    with pytest.raises(DataError, match=re.escape(f"iteration at {message}")):
        read_trajectory_csv(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,y\n1,2,1\n\n-1,-2,-1\n\n")
    ds = load_dataset_csv(path)
    assert_array_equal(ds.features, [[1.0, 2.0], [-1.0, -2.0]])
    assert_array_equal(ds.labels, [1.0, -1.0])


def test_error_row_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,1\n\n2,0\n")
    with pytest.raises(DataError, match="label at row 3 is '0'"):
        load_dataset_csv(path)


def test_load_rejects_blank_only_body(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n\n\r\n")
    with pytest.raises(DataError, match="no samples"):
        load_dataset_csv(path)

