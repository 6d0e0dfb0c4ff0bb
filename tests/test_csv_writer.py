"""The block float formatter against Python's '%.17g' value by value, and the
CSV writers against the row-by-row '%' writers in csv_reference.py, byte for
byte."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_reference as ref
from irlsvm import Dataset, FitOptions, Init, Loss, Penalty, RiskSpec, fit, generate_gaussian_mixture, predict_batch
from irlsvm import write_dataset_csv, write_trajectory_csv
from irlsvm.cli import main
from irlsvm.core import _BLOCK_ROWS
from irlsvm.data_io import _TEXT, _float_cells

from helpers import make_dataset


def texts(values):
    """What the formatter writes for each value."""
    cells = _float_cells(np.asarray(values, dtype=float))
    return [bytes(cell[:_TEXT]).replace(b"\0", b"").decode("ascii") for cell in cells]


def assert_formats_as_percent(values):
    values = [float(v) for v in values]
    assert texts(values) == ["%.17g" % v for v in values]


def around(value, ulps=1):
    """value and the doubles up to ulps steps either side of it."""
    below, above = [value], [value]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_powers_of_ten_and_their_neighbours():
    values = [v for e in range(-15, 18) for v in around(10.0**e)]
    assert_formats_as_percent(values + [-v for v in values])


@pytest.mark.parametrize("bound", [2.0**50, 1e-11])
def test_the_bounds_where_python_formatting_takes_over(bound):
    values = around(bound, ulps=2)
    assert_formats_as_percent(values + [-v for v in values])


def test_zeros_extremes_and_non_finite_values():
    assert_formats_as_percent([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max])
    assert texts([math.inf, -math.inf, math.nan]) == ["inf", "-inf", "nan"]


def test_zeros_stay_zero_among_other_values():
    assert texts([0.0, 1.5, -0.0, 2e-12, 0.0]) == ["0", "1.5", "-0", "%.17g" % 2e-12, "0"]


def test_values_with_few_digits():
    assert_formats_as_percent([0.5, 1.0, 0.001, 100.0, 1234.5, 0.25, 1e-5, 2.0**49, 123456789012345.0, -7.0])


def test_rounding_that_carries_through_trailing_nines():
    # 1.2 is 1.19999999999999995559...: its 17th digit rounds up through the nines
    values = [1.2, 0.12, 0.019, 0.31, 1.7, 9.95, 0.3, 2.0**50 - 0.25]
    assert "%.17g" % 1.2 == "1.2"
    assert_formats_as_percent(values)


def test_ties_round_to_even():
    # each has 18 significant digits, the last a 5: halfway between two 17-digit decimals
    values = [2.0**49 + k / 8 for k in (1, 3, 5, 7)] + [2.0**46 + k / 16 for k in (1, 3, 5, 7)]
    assert ["%.17g" % v for v in values[:2]] == ["562949953421312.12", "562949953421312.38"]
    assert_formats_as_percent(values)


@pytest.mark.parametrize("ulps", [-4, 4])
def test_an_inexact_log10_is_corrected(monkeypatch, ulps):
    """The decimal exponent starts from floor(log10): with log10 made a few
    ulps low (exact powers of ten land one exponent low) or high (values just
    under a power land one high), the digits still come out right."""
    log10 = np.log10

    def off(x):
        result = log10(x)
        for _ in range(abs(ulps)):
            result = np.nextafter(result, np.sign(ulps) * np.inf)
        return result

    monkeypatch.setattr(np, "log10", off)
    values = [v for e in range(-11, 16) for v in around(10.0**e, ulps=2)]
    assert_formats_as_percent([v for v in values if 1e-11 < v < 2.0**50])


@settings(max_examples=1000, deadline=None)
@given(st.floats())
def test_every_float_formats_as_percent(value):
    assert texts([value]) == ["%.17g" % value]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_every_block_formats_as_percent(values):
    assert texts(values) == ["%.17g" % v for v in values]


def assert_same_file(tmp_path, write, write_reference, *args):
    write(*args, tmp_path / "got.csv")
    write_reference(*args, tmp_path / "expected.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("n, q", [(6000, 1), (400, 50)])
def test_dataset_file_matches_reference(tmp_path, n, q):
    # both span several formatting blocks
    dataset = generate_gaussian_mixture(n, mean_neg=-np.ones(q), mean_pos=np.ones(q), seed=q)
    assert_same_file(tmp_path, write_dataset_csv, ref.write_dataset_csv, dataset)


def test_dataset_file_with_a_column_of_zeros_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    features = np.column_stack([np.zeros(50), rng.standard_normal(50) * 10.0 ** rng.integers(-14, 18, 50)])
    features[::4, 0] = -0.0
    labels = np.where(np.arange(50) % 2, 1.0, -1.0)
    assert_same_file(tmp_path, write_dataset_csv, ref.write_dataset_csv, Dataset(features=features, labels=labels))


def test_trajectory_file_matches_reference(tmp_path):
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    result = fit(spec, make_dataset(seed=5, n=80, q=3), FitOptions(max_iterations=30, risk_tolerance=0.0))
    assert_same_file(tmp_path, write_trajectory_csv, ref.write_trajectory_csv, result)


# the training accuracies are counted a design block at a time: in one block, and in three
@pytest.mark.parametrize("n", [60, 2 * _BLOCK_ROWS + 123])
def test_sweep_summary_and_hyperplanes_match_reference(tmp_path, n):
    dataset = make_dataset(seed=8, n=n, q=2)
    data, out = tmp_path / "d.csv", tmp_path / "sweep"
    write_dataset_csv(dataset, data)
    argv = ["sweep", "--loss", "logistic", "--penalty", "l2", "--lambda-grid", "0:0.1:0.3", "--init", "zero"]
    assert main(argv + ["--data", str(data), "--out", str(out)]) == 0

    grid = [i * 0.1 for i in range(4)]  # as the grid flag computes them
    options = FitOptions(init=Init.ZERO)
    results = [fit(RiskSpec(Loss.LOGISTIC, Penalty.L2, lam=lam), dataset, options) for lam in grid]
    accuracy = [float(np.mean(predict_batch(r.theta, dataset.features) == dataset.labels)) for r in results]
    header = ["parameter", "value", "terminal_exact_risk", "terminal_smoothed_risk", "training_accuracy"]
    columns = [grid, [r.exact_risk_trajectory[-1] for r in results], [r.smoothed_risk_trajectory[-1] for r in results]]
    ref.write_rows(tmp_path / "summary.csv", header, "lambda" + ",%.17g" * 4, columns + [accuracy])
    header = ["parameter", "value", "alpha", "beta_1", "beta_2"]
    columns = [grid, [r.theta.alpha for r in results], *np.array([r.theta.beta for r in results]).T]
    ref.write_rows(tmp_path / "hyperplanes.csv", header, "lambda" + ",%.17g" * 4, columns)
    for name in ("summary.csv", "hyperplanes.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
