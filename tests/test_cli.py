import argparse
import codecs
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from irlsvm import (
    DataError,
    Dataset,
    FitOptions,
    Init,
    Loss,
    ModelParams,
    Penalty,
    RiskSpec,
    fit,
    generate_gaussian_mixture,
    load_dataset_csv,
    predict_batch,
    read_model,
    read_trajectory_csv,
    smoothed_risk,
    write_dataset_csv,
)
from irlsvm import cli, data_io
from irlsvm.cli import MAX_GRID_POINTS, _grid, _options_from_args, _parser, _spec_from_args, main
from irlsvm.core import _BLOCK_ROWS, DEFAULT_EPSILON

from helpers import ITERATIVE_COMBOS, ITERATIVE_IDS, interrupt_on_call, make_dataset, traced_peak


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(make_dataset(seed=50, n=60, q=2), path)
    return path


def test_parse_fit_flags():
    args = _parser().parse_args(
        ["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.4", "--data", "d.csv", "--out", "m.model"]
    )
    assert args.verb == "fit"
    assert args.loss == "hinge" and args.penalty == "l2"
    assert args.lam == 0.4 and args.mu == 0.0


@pytest.mark.parametrize("verb", ["fit", "sweep", "check"])
def test_fit_flag_defaults_are_the_library_defaults(verb):
    argv = [verb, "--loss", "hinge", "--penalty", "l2", "--data", "d.csv"]
    argv += {"fit": ["--out", "m.model"], "sweep": ["--out", "s", "--lambda-grid", "0.1"], "check": []}[verb]
    args = _parser().parse_args(argv)
    assert _options_from_args(args) == FitOptions()
    assert _spec_from_args(args) == RiskSpec(Loss.HINGE, Penalty.L2)
    assert args.epsilon == DEFAULT_EPSILON


def test_negative_lambda_is_usage_error(capsys):
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "-1", "--data", "d.csv", "--out", "m"])
    assert code == 2
    assert "lambda must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--penalty", "l2", "--lambda", "nan"],
        ["--penalty", "l2", "--lambda", "inf"],
        ["--penalty", "l1", "--mu", "nan"],
        ["--penalty", "l2", "--epsilon", "inf"],
        ["--penalty", "l2", "--tolerance", "nan"],
    ],
    ids=["lambda-nan", "lambda-inf", "mu-nan", "epsilon-inf", "tolerance-nan"],
)
def test_non_finite_fit_flag_is_usage_error(data_csv, tmp_path, capsys, flags):
    model = tmp_path / "m.model"
    code = main(["fit", "--loss", "hinge", *flags, "--data", str(data_csv), "--out", str(model)])
    assert code == 2
    assert "must be" in capsys.readouterr().err
    assert not model.exists()


def test_non_finite_grid_is_usage_error(data_csv, tmp_path):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "nan"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_unknown_loss_is_usage_error():
    assert main(["fit", "--loss", "huber", "--penalty", "l2", "--data", "d.csv", "--out", "m"]) == 2


def test_zero_epsilon_is_usage_error():
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--epsilon", "0", "--data", "d", "--out", "m"]) == 2


def test_grid_parsing():
    args = _parser().parse_args(
        ["sweep", "--loss", "squared-hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.4", "--data", "d", "--out", "o"]
    )
    assert len(args.lambda_grid) == 5
    np.testing.assert_allclose(args.lambda_grid, [0.0, 0.1, 0.2, 0.3, 0.4])


def test_grid_rejects_misaligned_end():
    code = main(
        ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.3:0.4", "--data", "d", "--out", "o"]
    )
    assert code == 2


def test_grid_point_count_is_capped_before_the_grid_is_built():
    assert len(_grid(f"0:1:{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match="1000001 points"):
        _grid("0:1e-6:1")
    # (end - start) / step overflows to inf, which round() cannot take
    for text in ("0:5e-324:1", "-1e308:1e-10:1e308"):
        with pytest.raises(argparse.ArgumentTypeError, match="too many points to count"):
            _grid(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a:b:c", "grid 'a:b:c' is not numeric"),
        ("0.1:0:0.2", "grid step is 0 but end differs from start"),
        ("0:1", "grid must be start:step:end"),
        ("-0.1", "grid values must be >= 0"),
        ("0:-0.1:-0.2", "grid values must be >= 0"),
    ],
    ids=["non-numeric", "zero-step-to-another-end", "two-parts", "negative-point", "negative-steps"],
)
def test_malformed_grid_is_usage_error_with_its_message(data_csv, tmp_path, capsys, text, message):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", f"--lambda-grid={text}"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_zero_step_grid_that_ends_at_its_start_sweeps_one_point(data_csv, tmp_path):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0.1:0:0.1", "--iterations", "2"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out_dir)]) == 0
    with (out_dir / "summary.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2 and rows[1][0] == "lambda" and float(rows[1][1]) == 0.1
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "hyperplanes.csv", "summary.csv", "trajectory_lambda_0.1.csv"
    ]


def test_overlong_grid_is_usage_error(data_csv, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:1e-9:1"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out_dir)]) == 2
    assert f"more than {MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_requires_exactly_one_grid(data_csv, tmp_path):
    assert main(["sweep", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(tmp_path)]) == 2
    code = main(
        [
            "sweep", "--loss", "hinge", "--penalty", "elastic",
            "--lambda-grid", "0:0.1:0.2", "--mu-grid", "0:0.1:0.2",
            "--data", str(data_csv), "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_missing_data_file_is_data_error(tmp_path):
    code = main(
        ["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "m")]
    )
    assert code == 3


@pytest.mark.parametrize("penalty, grid", [("l2", "--mu-grid"), ("l1", "--lambda-grid")])
def test_sweep_over_a_constant_the_penalty_discards_is_usage_error(data_csv, tmp_path, capsys, penalty, grid):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", penalty, grid, "0:0.5:1"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert grid in err and f"penalty {penalty}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "penalty, flags",
    [
        ("l2", ["--lambda", "5", "--lambda-grid", "0.1:0.1:0.2"]),
        ("l1", ["--mu", "5", "--mu-grid", "0.1:0.1:0.2"]),
        ("elastic", ["--lambda", "5", "--lambda-grid", "0.1:0.1:0.2"]),
        ("elastic", ["--mu", "0.5", "--mu-grid", "0.1"]),
    ],
    ids=["l2-lambda", "l1-mu", "elastic-lambda", "elastic-mu"],
)
def test_sweep_refuses_a_constant_its_grid_overrides(data_csv, tmp_path, capsys, penalty, flags):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", penalty, *flags, "--data", str(data_csv), "--out", str(out_dir)]
    assert main(argv) == 2
    assert f"{flags[0]} {flags[1]} is overridden by {flags[2]}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_takes_the_constant_its_grid_does_not_sweep(data_csv, tmp_path):
    # an elastic-net lambda beside a mu grid is fitted with, and a grid's constant may be given at its default
    flags = ["--loss", "hinge", "--penalty", "elastic", "--lambda", "0.5", "--iterations", "2", "--data", str(data_csv)]
    assert main(["sweep", *flags, "--mu-grid", "0.1", "--out", str(tmp_path / "mu")]) == 0
    assert main(["fit", *flags, "--mu", "0.1", "--out", str(tmp_path / "m.model")]) == 0
    assert (tmp_path / "mu" / "trajectory_mu_0.1.csv").read_bytes() == (tmp_path / "m.trajectory.csv").read_bytes()
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda", "0", "--lambda-grid", "0.1", "--iterations", "2"]
    assert main(argv + ["--data", str(data_csv), "--out", str(tmp_path / "lambda")]) == 0


def test_a_failed_sweep_creates_no_output_directory(tmp_path, capsys):
    # two samples of 1e200 overflow every system: the first fit fails, before any output is made
    data = tmp_path / "big.csv"
    data.write_text("x1,y\n1e200,1\n-1e200,-1\n")
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.2", "--data", str(data)]
    assert main(argv + ["--out", str(out_dir)]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not out_dir.exists()
    out_dir.mkdir()
    (out_dir / "summary.csv").write_text("old summary\n")
    assert main(argv + ["--out", str(out_dir)]) == 4
    assert [p.name for p in out_dir.iterdir()] == ["summary.csv"]
    assert (out_dir / "summary.csv").read_text() == "old summary\n"


def test_fit_writes_model_and_trajectory(data_csv, tmp_path):
    model_path = tmp_path / "m.model"
    code = main(
        [
            "fit", "--loss", "logistic", "--penalty", "elastic", "--lambda", "0.2", "--mu", "0.1",
            "--data", str(data_csv), "--out", str(model_path),
        ]
    )
    assert code == 0
    theta, spec = read_model(model_path)
    assert spec.lam == 0.2 and spec.mu == 0.1
    iterations, exact, smoothed = read_trajectory_csv(tmp_path / "m.trajectory.csv")
    assert iterations[0] == 0
    assert len(exact) == len(smoothed) >= 2


def test_predict_appends_label_column(data_csv, tmp_path):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data_csv), "--out", str(model_path)]) == 0
    out_path = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv), "--out", str(out_path)]) == 0

    with out_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][-1] == "predicted"
    assert len(rows) == 61  # header + 60 samples

    theta, _ = read_model(model_path)
    ds = load_dataset_csv(data_csv)
    expected = predict_batch(theta, ds.features)
    assert [int(r[-1]) for r in rows[1:]] == [int(v) for v in expected]


def test_predict_feature_count_mismatch(data_csv, tmp_path, capsys):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,x3,y\n1,2,3,1\n")
    assert main(["predict", "--model", str(model_path), "--data", str(bad), "--out", str(tmp_path / "p.csv")]) == 3
    assert f"error: {bad}: expected 2 features, got 3" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("lambda", "nan"), ("alpha", "inf"), ("epsilon", "-1")],
    ids=["lambda-nan", "alpha-inf", "epsilon-negative"],
)
def test_predict_out_of_range_model_value_is_data_error(data_csv, tmp_path, capsys, key, value):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    lines = model_path.read_text().splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
    model_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv), "--out", str(out)]) == 3
    assert str(model_path) in capsys.readouterr().err
    assert not out.exists()


def _set_entry(key, value):
    return lambda lines: [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_entry("iterations_run", "banana"), "value for 'iterations_run' is not a non-negative integer"),
        (_set_entry("iterations_run", "2.5"), "value for 'iterations_run' is not a non-negative integer"),
        (_set_entry("iterations_run", "-1"), "value for 'iterations_run' is not a non-negative integer"),
        (_set_entry("terminal_exact_risk", "x"), "value for 'terminal_exact_risk' is not numeric"),
        (lambda lines: [line for line in lines if not line.startswith("beta_1 =")], "got ['beta_2']"),
        (lambda lines: lines + [lines[3]], "duplicate key 'lambda'"),
    ],
    ids=["iterations-banana", "iterations-fraction", "iterations-negative", "risk-x", "beta_2-alone", "repeated-key"],
)
def test_read_model_and_predict_reject_a_bad_entry(data_csv, tmp_path, capsys, edit, message):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    model_path.write_text("\n".join(edit(model_path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=re.escape(message)):
        read_model(model_path)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# a fresh interpreter runs one irlsvm command line as its child and prints the child's peak RSS
# (ru_maxrss, KiB on Linux); a child of the test process would report at least that process's own
_CHILD_PEAK_RSS = """
import resource, subprocess, sys

subprocess.run([sys.executable, "-m", "irlsvm", *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_simulate_writes_its_samples_without_building_a_design(tmp_path):
    # 200 000 samples peak above 2 by less than their 4.8 MB design: the generator's blocks are
    # written as they come (the design they went through before added 6.6 MiB)
    peaks = []
    for n in (2, 200_000):
        argv = ["simulate", "--n", str(n), "--out", str(tmp_path / f"{n}.csv")]
        proc = subprocess.run([sys.executable, "-c", _CHILD_PEAK_RSS, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout) * 1024)
    assert peaks[1] - peaks[0] < 3 * 200_000 * 8


def test_simulate_writes_balanced_dataset(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    ds = load_dataset_csv(out)
    assert ds.n == 50
    assert int((ds.labels == 1).sum()) == 25


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_simulate_rejects_a_negative_or_fractional_seed(tmp_path, capsys, seed):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "50", "--seed", seed, "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def _simulate_fit_predict(tmp_path, n):
    """The console-script run CI pins: n simulated samples, and the predictions of a hinge + l2 fit on them."""
    data, model, predictions = tmp_path / "data.csv", tmp_path / "model.model", tmp_path / "predictions.csv"
    assert main(["simulate", "--n", str(n), "--out", str(data)]) == 0
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data), "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(predictions)]) == 0
    return data, model, predictions


def test_simulate_and_predict_outputs_are_pinned_at_two_features(tmp_path):
    # the digests CI checks for the console script: a change to the generator, the
    # CSV writer or the predictions writer shows here as well
    data, _model, predictions = _simulate_fit_predict(tmp_path, 2000)
    assert hashlib.sha256(data.read_bytes()).hexdigest() == (
        "1190d932e61b6d73bca6d733bad2dd28993b907bd850fe55c01abcad48f07331"
    )
    assert hashlib.sha256(predictions.read_bytes()).hexdigest() == (
        "34056ef98362eda93eae65378e8fe37f7e648f4dbf4842cbbab539e31c8ef0cf"
    )


def test_simulate_and_predict_outputs_are_pinned_across_read_blocks(tmp_path):
    # CI's second pinned run: 40 000 rows are three blocks of the CSV reader, which fit and
    # predict read, so a row lost or repeated at a block boundary shows here; CRLF and lone-CR
    # copies of the data, whose records end on other bytes in every copy window, must give
    # the same predictions
    data, model, predictions = _simulate_fit_predict(tmp_path, 40_000)
    assert hashlib.sha256(data.read_bytes()).hexdigest() == (
        "bfa2bca08aeb767381ec775ee9075f6768fa7294fa00190fbc005b7003e1f8a2"
    )
    assert hashlib.sha256(predictions.read_bytes()).hexdigest() == (
        "f79a514451fec5658b0d8ca095cbe022ecaf6c54e0f6fddcff213914a70cba84"
    )
    for name, eol in (("crlf", b"\r\n"), ("cr", b"\r")):
        copy, copy_predictions = tmp_path / f"data-{name}.csv", tmp_path / f"predictions-{name}.csv"
        copy.write_bytes(data.read_bytes().replace(b"\n", eol))
        assert main(["predict", "--model", str(model), "--data", str(copy), "--out", str(copy_predictions)]) == 0
        assert copy_predictions.read_bytes() == predictions.read_bytes()


@pytest.mark.parametrize("seed", [2017, 5])
def test_simulate_writes_the_bytes_of_the_generated_dataset(tmp_path, seed):
    # 40 000 samples span several generator blocks and three CSV blocks: simulate hands the generator's
    # blocks to the writer, write_dataset_csv the feature rows rebuilt from the design they fill
    simulated, written = tmp_path / "simulated.csv", tmp_path / "written.csv"
    assert main(["simulate", "--n", "40000", "--seed", str(seed), "--out", str(simulated)]) == 0
    write_dataset_csv(generate_gaussian_mixture(40_000, seed=seed), written)
    assert simulated.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("n", ["7", "0", "-4"])
def test_simulate_bad_n_is_usage_error(tmp_path, capsys, n):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--n", n, "--out", str(out)]) == 2
    assert f"positive even integer, got {n}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_artifacts(data_csv, tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--loss", "squared-hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.4",
            "--tolerance", "0", "--data", str(data_csv), "--out", str(out_dir),
        ]
    )
    assert code == 0
    trajectories = sorted(out_dir.glob("trajectory_lambda_*.csv"))
    assert len(trajectories) == 5
    for path in trajectories:
        _, exact, _ = read_trajectory_csv(path)
        assert len(exact) == 51
        assert (np.diff(exact) <= 1e-10 * (1.0 + np.abs(exact[:-1]))).all()

    with (out_dir / "summary.csv").open() as handle:
        summary = list(csv.reader(handle))
    assert summary[0] == ["parameter", "value", "terminal_exact_risk", "terminal_smoothed_risk", "training_accuracy"]
    assert len(summary) == 6
    terminal = [float(r[2]) for r in summary[1:]]
    assert (np.diff(terminal) >= -1e-8).all()

    with (out_dir / "hyperplanes.csv").open() as handle:
        hyper = list(csv.reader(handle))
    assert hyper[0] == ["parameter", "value", "alpha", "beta_1", "beta_2"]
    assert len(hyper) == 6


def test_sweep_holds_its_design_and_little_more(tmp_path):
    # the design, one parsed block of the load and one block of each pass or accuracy count;
    # the n x q features that the training accuracies were once counted on took 3.1 MiB more
    data, out_dir = tmp_path / "d.csv", tmp_path / "sweep"
    write_dataset_csv(generate_gaussian_mixture(200_000, seed=5), data)
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0.1:0.1:0.2", "--iterations", "2"]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv + ["--data", str(data), "--out", str(out_dir)])))
    assert codes == [0]
    assert peak <= 3 * 200_000 * 8 + 2 * 2**20


@pytest.fixture(scope="module")
def three_block_data(tmp_path_factory):
    """A q = 2 dataset of three blocks and two samples, and its CSV."""
    dataset = generate_gaussian_mixture(3 * _BLOCK_ROWS + 2, seed=5)
    path = tmp_path_factory.mktemp("three-blocks") / "d.csv"
    write_dataset_csv(dataset, path)
    return dataset, path


@pytest.mark.parametrize("penalty", [Penalty.L2, Penalty.ELASTIC_NET], ids=lambda p: p.value)
@pytest.mark.parametrize("loss", list(Loss), ids=lambda k: k.value)
def test_fit_and_check_hold_the_design_and_at_most_2_5_mib_more(three_block_data, capsys, loss, penalty):
    # README's memory budget: each pass's block-sized arrays, a hinge update's weighted copy and
    # check's surrogate rows; at q = 2 a hinge fit peaked at 1.01 MiB, and a check, which loads its
    # CSV as well, at 1.41 MiB beyond the design
    dataset, data = three_block_data
    budget = 5 * 2**19
    assert traced_peak(lambda: fit(RiskSpec(loss, penalty, lam=0.1, mu=0.1), dataset)) <= budget
    argv = ["check", "--loss", loss.value, "--penalty", penalty.value, "--lambda", "0.1", "--mu", "0.1"]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv + ["--data", str(data)])))
    assert codes == [0], capsys.readouterr().out
    assert peak <= dataset._design.nbytes + budget


def test_sweep_matches_independent_fits(data_csv, tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(
        [
            "sweep", "--loss", "hinge", "--penalty", "l1", "--mu-grid", "0:0.1:0.2",
            "--data", str(data_csv), "--out", str(out_dir),
        ]
    ) == 0
    # a sweep point is exactly the fit the plain command would produce
    model_path = tmp_path / "single.model"
    assert main(
        ["fit", "--loss", "hinge", "--penalty", "l1", "--mu", "0.1", "--data", str(data_csv), "--out", str(model_path)]
    ) == 0
    single = (tmp_path / "single.trajectory.csv").read_bytes()
    swept = (out_dir / "trajectory_mu_0.1.csv").read_bytes()
    assert single == swept


def test_check_passes_on_valid_combination(data_csv, capsys):
    code = main(["check", "--loss", "logistic", "--penalty", "elastic", "--lambda", "0.2", "--mu", "0.1", "--data", str(data_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3 and "[FAIL]" not in out


@pytest.mark.parametrize("loss, pen", ITERATIVE_COMBOS, ids=ITERATIVE_IDS)
def test_check_passes_on_every_iterative_combination(data_csv, capsys, loss, pen):
    argv = ["check", "--loss", loss.value, "--penalty", pen.value, "--lambda", "0.1", "--mu", "0.1"]
    assert main(argv + ["--data", str(data_csv)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3 and "[FAIL]" not in out


def test_check_flags_descent_violation(data_csv, monkeypatch, capsys):
    import irlsvm.engine as engine_module

    original = engine_module.solve_spd

    def broken_solve(matrix, rhs):
        solution = original(matrix, rhs)
        return dataclasses.replace(solution, x=solution.x + 1.0)

    monkeypatch.setattr(engine_module, "solve_spd", broken_solve)
    code = main(["check", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data_csv)])
    assert code == 5
    assert "[FAIL]" in capsys.readouterr().out


def test_check_flags_a_bad_update_from_an_extrapolated_point(tmp_path, monkeypatch, capsys):
    import irlsvm.engine as engine_module

    data = tmp_path / "gm.csv"
    dataset = generate_gaussian_mixture(200, seed=32)
    write_dataset_csv(dataset, data)
    spec = RiskSpec(Loss.SQUARED_HINGE, Penalty.L2, lam=0.1)
    result = fit(spec, dataset, FitOptions(init=Init.ZERO))
    # the third update starts from an extrapolated point well below the second iterate's
    # risk, so the surrogate anchored there is that far below its value at the second iterate
    anchor = result.anchor_trajectory[2]
    assert (anchor != result.theta_trajectory[2]).any()
    assert smoothed_risk(spec, ModelParams.from_vector(anchor), dataset) < result.smoothed_risk_trajectory[2] - 1e-3

    solutions = []
    original = engine_module.solve_spd

    def stale_extrapolated_solve(matrix, rhs):
        # the third solve, at the extrapolated point, returns the second iterate again
        solutions.append(solutions[1] if len(solutions) == 2 else original(matrix, rhs))
        return solutions[-1]

    monkeypatch.setattr(engine_module, "solve_spd", stale_extrapolated_solve)
    argv = ["check", "--loss", "squared-hinge", "--penalty", "l2", "--lambda", "0.1", "--init", "zero"]
    assert main(argv + ["--data", str(data)]) == 5
    out = capsys.readouterr().out
    assert "[PASS] monotone exact-risk descent" in out
    assert "[PASS] surrogate touches risk at anchor" in out
    assert "[FAIL] update does not raise the surrogate" in out


def test_check_flags_a_recorded_risk_off_the_surrogate_at_its_anchor(data_csv, monkeypatch, capsys):
    import irlsvm.engine as engine_module

    passes = []
    original = engine_module._pass

    def raised_third_pass(*args, **kwargs):
        # the third pass records the second update's image, the plain anchor of the third
        # update: check must compare that anchor with the risk fit recorded there
        exact, smoothed, *system = original(*args, **kwargs)
        passes.append(smoothed)
        if len(passes) == 3:
            smoothed *= 1.0 + 1e-6
        return exact, smoothed, *system

    monkeypatch.setattr(engine_module, "_pass", raised_third_pass)
    argv = ["check", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--init", "zero", "--tolerance", "0"]
    assert main(argv + ["--data", str(data_csv)]) == 5
    out = capsys.readouterr().out
    assert "[PASS] monotone smoothed-risk descent" in out
    assert "[FAIL] surrogate touches risk at anchor" in out
    assert "[PASS] update does not raise the surrogate" in out


def test_fit_summary_counts_updates_from_extrapolated_points(data_csv, tmp_path, capsys):
    argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data_csv)]
    assert main(argv + ["--out", str(tmp_path / "a.model")]) == 0
    result = fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), load_dataset_csv(data_csv))
    count = int((result.anchor_trajectory != result.theta_trajectory[:-1]).any(axis=1).sum())
    assert count > 0
    assert capsys.readouterr().out.splitlines()[0].endswith(f"; {count} updates from extrapolated points")
    assert main(argv + ["--tolerance", "0", "--out", str(tmp_path / "b.model")]) == 0
    assert "extrapolated" not in capsys.readouterr().out


def test_solver_failure_maps_to_exit_4(tmp_path, capsys):
    # features of 1e200 overflow the Gram of every system, the warm start's as well as a first
    # update's from zero: each failed solve is a FitError, and exit 4, in fit and in check
    sample = make_dataset(seed=50, n=60, q=2)
    data, model = tmp_path / "huge.csv", tmp_path / "m.model"
    write_dataset_csv(Dataset(sample.features * 1e200, sample.labels), data)
    for verb in ("fit", "check"):
        for init in ("zero", "warm"):
            argv = [verb, "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--init", init, "--data", str(data)]
            assert main(argv + (["--out", str(model)] if verb == "fit" else [])) == 4
            assert "solver error: system matrix or right-hand side is not finite" in capsys.readouterr().err
    assert not model.exists()


def test_fit_accepts_trailing_blank_line(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x1,x2,y\n1,2,1\n-1,-2,-1\n\n")
    code = main(
        ["fit", "--loss", "squared-hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data), "--out", str(tmp_path / "m")]
    )
    assert code == 0


def test_predict_rejects_non_finite_features(data_csv, tmp_path, capsys):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1,2\nnan,0\ninf,1\n")
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(bad), "--out", str(out)]) == 3
    assert "non-finite cell at row 2, column 'x1'" in capsys.readouterr().err
    assert not out.exists()


def test_predict_output_is_input_plus_label_column(data_csv, tmp_path):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    source = tmp_path / "in.csv"
    source.write_bytes(b" x1 ,x2,y\r\n1,2,1\r\n\r\n\"-1\",-2 ,-1\r\n")
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(source), "--out", str(out)]) == 0
    theta, _ = read_model(model_path)
    labels = [int(v) for v in predict_batch(theta, np.array([[1.0, 2.0], [-1.0, -2.0]]))]
    assert out.read_text() == f'x1,x2,y,predicted\n1,2,1,{labels[0]}\n"-1",-2 ,-1,{labels[1]}\n'


MODEL_X2_MINUS_X1 = """format = irlsvm-model/1
loss = hinge
penalty = l2
lambda = 0
mu = 0
epsilon = 9.9999999999999995e-07
alpha = 0
beta_1 = -1
beta_2 = 1
iterations_run = 0
terminal_exact_risk = 1
terminal_smoothed_risk = 1
"""


# every record is copied as its text: the line, or a quoted record's lines, without the line ending
@pytest.mark.parametrize(
    "source, records",
    [
        (b'x1,x2,y\n1,2,"one\nlabel"\n-1,-2,-1\n', ['1,2,"one\nlabel"', "-1,-2,-1"]),
        (b"x1,x2,y\r1,2,1\r\r-1,-2,-1\r", ["1,2,1", "-1,-2,-1"]),
        (b"x1,x2,y\n1,2,1\n-1,-2,-1\n", ["1,2,1", "-1,-2,-1"]),
        (b"x1,x2,y\n1,2,1\n-1,-2,-1", ["1,2,1", "-1,-2,-1"]),
        (b"x1,x2,y\r\n1,2,1\r\n-1,-2,-1\r\n", ["1,2,1", "-1,-2,-1"]),
        (b'x1,x2,y\n"1",2,1\n-1,-2,-1\n', ['"1",2,1', "-1,-2,-1"]),
        (b"x1,x2,y\n1,2,1\n\n-1,-2,-1\n", ["1,2,1", "-1,-2,-1"]),
        ("x\u00e91,x2,y\n1,2,1\n-1,-2,-1\n".encode(), ["1,2,1", "-1,-2,-1"]),
        # a quote inside a field is a literal character to csv and numpy, so it opens no quoted cell
        (b'x"1,x2,y\n1,2,1\n-1,-2,-1\n', ["1,2,1", "-1,-2,-1"]),
        (b'x1,x2,y\n1,2,a"b\n-1,-2,-1\n', ['1,2,a"b', "-1,-2,-1"]),
        (b'x1,x2,y\r\n1,2,"one\rlabel"\r\n-1,-2,-1\r\n', ['1,2,"one\rlabel"', "-1,-2,-1"]),
        (b'x1,x2,y\n1,2,"' + b"long " * 12 + b'\r\nlabel"\n-1,-2,-1\n', ['1,2,"' + "long " * 12 + '\r\nlabel"', "-1,-2,-1"]),
    ],
    ids=[
        "multi-line-quoted-record", "lone-cr-endings", "lf", "lf-without-final-newline", "crlf", "quoted-cell",
        "blank-line", "non-ascii-header", "quote-inside-a-header-field", "quote-inside-a-label-field",
        "cr-in-a-quoted-cell", "quoted-record-longer-than-a-window",
    ],
)
def test_predict_copies_each_record_as_is(tmp_path, monkeypatch, source, records):
    # the model labels a record by the sign of its x2 - x1: the first 1, the second -1
    model_path = tmp_path / "m.model"
    model_path.write_text(MODEL_X2_MINUS_X1)
    path, out = tmp_path / "in.csv", tmp_path / "p.csv"
    path.write_bytes(source)
    heading = io.StringIO()
    csv.writer(heading, lineterminator="\n").writerow(next(csv.reader(io.StringIO(source.decode(), newline=""))) + ["predicted"])
    expected = heading.getvalue() + "".join(f"{record},{label}\n" for record, label in zip(records, [1, -1]))
    # in one copy window, and in windows of 48 bytes, which the last file's quoted record outgrows
    for cells in (data_io._WRITE_CELLS, 1):
        monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
        assert main(["predict", "--model", str(model_path), "--data", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()


def test_predict_copies_a_quoted_cell_left_open_to_the_end_of_the_file(tmp_path):
    # csv.reader reads the open cell to the end of the file, where the copy's line source runs out
    model, data, out = tmp_path / "m.model", tmp_path / "d.csv", tmp_path / "p.csv"
    # alpha = 1 and beta = (0): every record is labelled 1
    model.write_text(MODEL_X2_MINUS_X1.replace("alpha = 0", "alpha = 1").replace("beta_1 = -1\nbeta_2 = 1\n", "beta_1 = 0\n"))
    data.write_bytes(b'x1\n"1\n')
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    assert out.read_bytes() == b'x1,predicted\n"1,1\n'


# a spreadsheet's "CSV UTF-8" export begins with a byte-order mark: the parse and the copy drop it before the header
@pytest.mark.parametrize(
    "source, expected",
    [
        (b"x1,x2,y\n1,2,1\n-1,-2,-1\n", b"x1,x2,y,predicted\n1,2,1,1\n-1,-2,-1,-1\n"),
        (b'"x\n1",x2\r\n1,2\r\n-1,-2\r\n', b'"x\n1",x2,predicted\n1,2,1\n-1,-2,-1\n'),
    ],
    ids=["feature-first", "quoted-header-on-two-lines"],
)
def test_predict_reads_a_model_and_data_that_begin_with_a_byte_order_mark(tmp_path, monkeypatch, source, expected):
    model, data, out = tmp_path / "m.model", tmp_path / "d.csv", tmp_path / "p.csv"
    model.write_bytes(codecs.BOM_UTF8 + MODEL_X2_MINUS_X1.encode())
    data.write_bytes(codecs.BOM_UTF8 + source)
    for cells in (data_io._WRITE_CELLS, 1):
        monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
        assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        assert out.read_bytes() == expected


def test_fit_reads_data_that_begins_with_a_byte_order_mark(tmp_path):
    # the mark once made the header's first name "\ufeffy", and fit exited 3 with "missing label column 'y'"
    for name, mark in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        (tmp_path / f"{name}.csv").write_bytes(mark + b"y,x1\n1,0.5\n-1,-0.5\n")
        argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(tmp_path / f"{name}.csv")]
        assert main(argv + ["--out", str(tmp_path / f"{name}.model")]) == 0
    for suffix in ("model", "trajectory.csv"):
        assert (tmp_path / f"marked.{suffix}").read_bytes() == (tmp_path / f"plain.{suffix}").read_bytes()


def test_sweep_trajectory_names_tell_close_grid_values_apart(data_csv, tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--loss", "squared-hinge", "--penalty", "l2", "--lambda-grid", "0.1:1e-7:0.1000003",
            "--iterations", "3", "--data", str(data_csv), "--out", str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("trajectory_lambda_*.csv"))
    assert names == [f"trajectory_lambda_{v}.csv" for v in ("0.1", "0.1000001", "0.1000002", "0.1000003")]


def test_overflowing_system_is_solver_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("x1,x2,y\n1e200,-1e200,1\n-1e200,1e200,-1\n2e200,1e200,1\n-1e200,-3e200,-1\n")
    code = main(
        ["fit", "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data), "--out", str(tmp_path / "m")]
    )
    assert code == 4
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["fit", "check"])
def test_overflowing_system_prints_only_the_solver_error(tmp_path, verb):
    data = tmp_path / "big.csv"
    data.write_text("x1,x2,y\n1e200,-1e200,1\n-1e200,1e200,-1\n2e200,1e200,1\n-1e200,-3e200,-1\n")
    argv = [verb, "--loss", "hinge", "--penalty", "l2", "--lambda", "0.1", "--data", str(data)]
    argv += ["--out", str(tmp_path / "m")] if verb == "fit" else []
    proc = subprocess.run([sys.executable, "-m", "irlsvm", *argv], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr == "solver error: system matrix or right-hand side is not finite\n"


# every verb through cli.main in a fresh interpreter in which importing scipy fails: the package's
# runtime is numpy only, and the scipy-based reference minimizer is test code (tests/oracle.py)
_NO_SCIPY_RUN = """
import importlib.util, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import irlsvm, irlsvm.cli

work = sys.argv[1]
data, model = f"{work}/d.csv", f"{work}/m.model"
runs = [
    ["simulate", "--n", "2000", "--out", data],
    ["fit", "--loss", "logistic", "--penalty", "l2", "--lambda", "0.1", "--data", data, "--out", model],
    ["sweep", "--loss", "hinge", "--penalty", "l1", "--mu-grid", "0.1:0.1:0.3", "--data", data, "--out", f"{work}/s"],
    ["predict", "--model", model, "--data", data, "--out", f"{work}/p.csv"],
    ["check", "--loss", "squared-hinge", "--penalty", "elastic", "--lambda", "0.1", "--mu", "0.1", "--data", data],
]
codes = {argv[0]: irlsvm.cli.main(argv) for argv in runs}
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "oracle": importlib.util.find_spec("irlsvm.oracle") is not None}))
"""


def test_every_verb_runs_with_scipy_imports_blocked(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == {"simulate": 0, "fit": 0, "sweep": 0, "predict": 0, "check": 0}, proc.stdout
    assert report["scipy"] == []
    assert report["oracle"] is False
    assert len(list((tmp_path / "s").glob("trajectory_mu_*.csv"))) == 3


def test_predict_can_overwrite_its_input(data_csv, tmp_path):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    before = data_csv.read_text().splitlines()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv), "--out", str(data_csv)]) == 0
    after = data_csv.read_text().splitlines()
    assert len(after) == len(before) == 61
    assert [line.rsplit(",", 1)[0] for line in after] == before


@pytest.mark.parametrize("out_name", ["d.csv", "d.model"])
def test_fit_refuses_to_overwrite_its_data(tmp_path, capsys, monkeypatch, out_name):
    # --out d.model puts the trajectory at d.trajectory.csv, the data file of that case; the
    # refusal comes before the data is loaded
    data = tmp_path / ("d.csv" if out_name == "d.csv" else "d.trajectory.csv")
    write_dataset_csv(make_dataset(seed=50, n=60, q=2), data)
    before = data.read_bytes()
    loads, load = [], cli.load_dataset_csv
    monkeypatch.setattr(cli, "load_dataset_csv", lambda path: loads.append(path) or load(path))
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(tmp_path / out_name)])
    assert code == 2
    assert str(data) in capsys.readouterr().err
    assert loads == []
    assert data.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [data.name]


@pytest.mark.parametrize("link", ["hard", "symbolic"])
def test_fit_refuses_an_output_linked_to_its_data(data_csv, tmp_path, capsys, link):
    model = tmp_path / "m.model"
    model.hardlink_to(data_csv) if link == "hard" else model.symlink_to(data_csv)
    before = data_csv.read_bytes()
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)])
    assert code == 2
    assert str(model) in capsys.readouterr().err
    assert data_csv.read_bytes() == before


@pytest.mark.parametrize(
    "verb, data_name, out_name, code",
    [
        ("sweep", "trajectory_lambda_0.1.csv", ".", 2),
        ("sweep", "trajectory_lambda_0.1.csv", "new/..", 2),
        ("fit", "missing.csv", "m.model", 3),
        ("fit", "missing.csv", "missing.csv", 3),
    ],
    ids=["sweep-trajectory-data", "sweep-via-missing-directory", "fit-missing-data", "fit-out-missing-data"],
)
def test_outputs_are_refused_before_the_load(tmp_path, capsys, monkeypatch, verb, data_name, out_name, code):
    # a sweep output that names --data is refused with no load, also through a directory the
    # sweep would make (new/.. is the data's directory once new exists); a missing --data is
    # still the load's data error, whatever --out names
    (tmp_path / "m.model").write_bytes(b"old model\n")
    if data_name != "missing.csv":
        write_dataset_csv(make_dataset(seed=50, n=60, q=2), tmp_path / data_name)
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    loads, load = [], cli.load_dataset_csv
    monkeypatch.setattr(cli, "load_dataset_csv", lambda path: loads.append(path) or load(path))
    grid = ["--lambda-grid", "0:0.1:0.2"] if verb == "sweep" else []
    data, out = str(tmp_path / data_name), str(tmp_path / out_name)
    assert main([verb, "--loss", "hinge", "--penalty", "l2", *grid, "--data", data, "--out", out]) == code
    assert data in capsys.readouterr().err
    assert loads == ([data] if code == 3 else [])
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize("out", [".", "/", "..", "existing"])
def test_fit_refuses_a_directory_as_its_model_before_any_work(data_csv, tmp_path, capsys, monkeypatch, out):
    # each names a directory, which can never be written as a model: a data error before the load
    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "existing").mkdir()
    monkeypatch.chdir(work)
    out = str(tmp_path / out) if out == "existing" else out

    def no_work(*args):
        raise AssertionError("the data was loaded or fitted")

    monkeypatch.setattr(cli, "load_dataset_csv", no_work)
    monkeypatch.setattr(cli, "fit", no_work)
    before, root = sorted(tmp_path.rglob("*")), sorted(os.listdir("/"))
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", out]) == 3
    assert capsys.readouterr().err == f"error: {out}: cannot write: Is a directory\n"
    assert sorted(tmp_path.rglob("*")) == before and sorted(os.listdir("/")) == root


@pytest.mark.parametrize("out", ["m.model", "./m.model", "hard", "symbolic"])
def test_predict_refuses_to_overwrite_its_model(data_csv, tmp_path, capsys, out):
    # the next predict would read the predictions as a model
    model = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)]) == 0
    link, out = out, tmp_path / ("link.model" if out in ("hard", "symbolic") else out)
    if link == "hard":
        out.hardlink_to(model)
    elif link == "symbolic":
        out.symlink_to(model)
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data_csv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: output {out} is the --model file {model}\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize("existing", [None, b"x1,x2,y\n1,2,1\n"], ids=["new", "existing"])
def test_an_interrupted_simulate_leaves_its_output_as_it_was(tmp_path, monkeypatch, existing):
    # simulate writes blocks of 4096 rows, 2730 at most a call: cut at the 5th call, the 8192 rows written are all -1
    out = tmp_path / "d.csv"
    if existing is not None:
        out.write_bytes(existing)
    calls = interrupt_on_call(monkeypatch, data_io, "_row_bytes", 5)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--n", "100000", "--out", str(out)])
    assert calls == [5]
    assert sorted(tmp_path.iterdir()) == ([] if existing is None else [out])
    if existing is not None:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("name, call", [("summary.csv", 1), ("hyperplanes.csv", 2), ("trajectory_lambda_0.1.csv", 4)])
def test_an_interrupted_sweep_leaves_the_file_it_was_writing_as_it_was(data_csv, tmp_path, monkeypatch, name, call):
    # each file is one write call: summary, hyperplanes, then the trajectories in grid order; the
    # outputs are renamed together at the end, so the files written before the interrupt are left too
    out = tmp_path / "sweep"
    out.mkdir()
    names = ["summary.csv", "hyperplanes.csv", *(f"trajectory_lambda_{v}.csv" for v in ("0", "0.1", "0.2"))]
    for other in names:
        (out / other).write_bytes(b"old\n")
    interrupt_on_call(monkeypatch, data_io, "_row_bytes", call)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.2", "--data", str(data_csv),
              "--out", str(out)])
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    assert [(out / other).read_bytes() for other in names] == [b"old\n"] * len(names)


@pytest.mark.parametrize("name", ["summary.csv", "hyperplanes.csv", "trajectory_lambda_0.1.csv"])
def test_sweep_refuses_to_overwrite_its_data(tmp_path, capsys, name):
    out = tmp_path / "sweep"
    out.mkdir()
    data = out / name
    write_dataset_csv(make_dataset(seed=50, n=60, q=2), data)
    before = data.read_bytes()
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.2"]
    assert main(argv + ["--data", str(data), "--out", str(out)]) == 2
    assert str(data) in capsys.readouterr().err
    assert data.read_bytes() == before
    assert [p.name for p in out.iterdir()] == [name]


def test_check_reports_the_gates_of_fit_on_its_data(data_csv, capsys):
    import irlsvm.engine as engine_module

    argv = ["check", "--loss", "hinge", "--penalty", "elastic", "--lambda", "0.1", "--mu", "0.1"]
    spec = RiskSpec(Loss.HINGE, Penalty.ELASTIC_NET, lam=0.1, mu=0.1)
    dataset = load_dataset_csv(data_csv)
    expected = engine_module._violations(spec, fit(spec, dataset), dataset)
    assert main(argv + ["--data", str(data_csv)]) == 0
    values = [float(line.rsplit(" ", 1)[1].rstrip(")")) for line in capsys.readouterr().out.splitlines()]
    assert values == [float(f"{v:.3e}") for v in expected]


def test_simulate_unwritable_output_is_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["simulate", "--n", "10", "--out", str(out)]) == 3
    assert str(out) in capsys.readouterr().err


def test_fit_unwritable_model_is_data_error(data_csv, tmp_path, capsys):
    model = tmp_path / "missing" / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)]) == 3
    assert str(model) in capsys.readouterr().err


def test_fit_unwritable_trajectory_is_data_error(data_csv, tmp_path, capsys):
    trajectory = tmp_path / "m.trajectory.csv"
    trajectory.mkdir()  # a directory where the trajectory file goes
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(tmp_path / "m.model")])
    assert code == 3
    assert str(trajectory) in capsys.readouterr().err


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["new", "existing"])
def test_a_fit_whose_trajectory_cannot_be_written_leaves_its_model_as_it_was(data_csv, tmp_path, capsys, existing):
    model, trajectory = tmp_path / "m.model", tmp_path / "m.trajectory.csv"
    if existing is not None:
        model.write_bytes(existing)
    trajectory.mkdir()
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)])
    assert code == 3
    assert str(trajectory) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data_csv, trajectory] + ([] if existing is None else [model]))
    if existing is not None:
        assert model.read_bytes() == existing


def test_a_sweep_whose_last_trajectory_cannot_be_written_leaves_every_output_as_it_was(data_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    out.mkdir()
    names = ["summary.csv", "hyperplanes.csv", "trajectory_lambda_0.csv", "trajectory_lambda_0.1.csv"]
    for name in names:
        (out / name).write_bytes(b"old\n")
    last = out / "trajectory_lambda_0.2.csv"
    last.mkdir()  # a directory where the last trajectory goes
    argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.2", "--iterations", "2"]
    assert main(argv + ["--data", str(data_csv), "--out", str(out)]) == 3
    assert str(last) in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == sorted(names + [last.name])
    assert [(out / name).read_bytes() for name in names] == [b"old\n"] * len(names)


def test_a_refused_second_rename_leaves_the_first_made(data_csv, tmp_path, monkeypatch, capsys):
    # the renames at a command's end are not one atomic step: the model is replaced before the
    # trajectory's rename is refused, and the trajectory's temporary file is removed
    model, trajectory = tmp_path / "m.model", tmp_path / "m.trajectory.csv"
    model.write_bytes(b"old model\n")
    trajectory.write_bytes(b"old trajectory\n")
    original, calls = os.replace, []

    def replace(source, target):
        calls.append(target)
        if len(calls) == 2:
            raise PermissionError(errno.EACCES, "Permission denied")
        original(source, target)

    monkeypatch.setattr(data_io.os, "replace", replace)
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)]) == 3
    assert f"error: {trajectory}: cannot write: Permission denied" in capsys.readouterr().err
    assert calls == [model, trajectory]
    assert model.read_bytes().startswith(b"format = irlsvm-model/1\n")
    assert trajectory.read_bytes() == b"old trajectory\n"
    assert sorted(tmp_path.iterdir()) == sorted([data_csv, model, trajectory])


@pytest.mark.parametrize("where, reason", [("under", "Not a directory"), ("at", "File exists")], ids=["under", "at"])
def test_sweep_unwritable_output_is_data_error(data_csv, tmp_path, capsys, monkeypatch, where, reason):
    # an --out under or at a regular file can never be a directory: it is refused before any fit
    out_dir = data_csv / "sweep" if where == "under" else tmp_path / "file"
    if where == "at":
        out_dir.write_bytes(b"")

    def no_fit(*args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(cli, "fit", no_fit)
    code = main(
        ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0.1", "--iterations", "2",
         "--data", str(data_csv), "--out", str(out_dir)]
    )
    assert code == 3
    assert capsys.readouterr().err == f"error: {out_dir}: cannot create directory: {reason}\n"


def test_predict_unwritable_output_is_data_error(data_csv, tmp_path, capsys):
    model_path = tmp_path / "m.model"
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model_path)]) == 0
    out = tmp_path / "missing" / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv), "--out", str(out)]) == 3
    assert str(out) in capsys.readouterr().err


@pytest.fixture
def duplicated_column_csv(tmp_path):
    """Two equal feature columns: with lambda = 0 every squared-hinge solve is singular and jittered."""
    data = tmp_path / "dup.csv"
    data.write_text("x1,x2,y\n1,1,1\n2,2,1\n-1,-1,-1\n-3,-3,-1\n0.5,0.5,1\n-0.25,-0.25,-1\n")
    return data


def test_fit_summary_reports_jittered_solves(duplicated_column_csv, tmp_path, capsys):
    argv = ["fit", "--loss", "squared-hinge", "--penalty", "l2", "--iterations", "3", "--tolerance", "0",
            "--init", "zero", "--data", str(duplicated_column_csv), "--out", str(tmp_path / "m")]
    assert main(argv + ["--lambda", "0"]) == 0
    assert "3 jittered solves, descent not guaranteed" in capsys.readouterr().out
    assert main(argv + ["--lambda", "0.1"]) == 0
    assert "jitter" not in capsys.readouterr().out


def test_check_notes_jittered_solves_after_its_three_lines(duplicated_column_csv, capsys):
    argv = ["check", "--loss", "squared-hinge", "--penalty", "l2", "--iterations", "3", "--tolerance", "0",
            "--init", "zero", "--data", str(duplicated_column_csv)]
    main(argv + ["--lambda", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("[") for line in lines[:3])
    assert lines[3] == "note: 3 jittered solves, descent not guaranteed"
    assert main(argv + ["--lambda", "0.1"]) == 0
    assert "note" not in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["fit", "predict"])
def test_a_repeated_label_column_is_a_data_error(data_csv, tmp_path, capsys, verb):
    # the second "y" used to be read as a feature: fit then reached risk 0 on the label itself
    data = tmp_path / "dup-y.csv"
    data.write_text("x1,y,y\n1,1,1\n-1,-1,-1\n2,1,1\n-2,-1,-1\n")
    model = tmp_path / "m.model"
    if verb == "fit":
        argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(model)]
    else:
        assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data_csv), "--out", str(model)]) == 0
        argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 3
    assert f"{data}: label column 'y' appears more than once" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["fit", "predict"])
@pytest.mark.parametrize("cell, message", [("nan", "non-finite cell"), ("oops", "non-numeric cell")])
def test_a_bad_cell_past_the_first_read_block_is_reported_by_record_number(tmp_path, capsys, verb, cell, message):
    # the reader parses 16 384 records a block: the first block is taken, and the second is
    # rejected; the record is counted from the start, blank lines included
    data, model, out = tmp_path / "d.csv", tmp_path / "m.model", tmp_path / "out"
    rows = ["1,2,1", "-1,-2,-1"] * 10_000
    rows[16_390] = f"{cell},2,1"
    data.write_text("x1,x2,y\n\n" + "\n".join(rows) + "\n")
    model.write_text(MODEL_X2_MINUS_X1)
    if verb == "fit":
        argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(out)]
    else:
        argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {data}: {message} at row 16392, column 'x1'\n"
    assert not out.exists()


def test_predict_rejects_a_non_finite_decision_value_by_its_row(tmp_path, capsys):
    # 1e308 * 10 overflows both products, and their difference is NaN: the record past the first
    # read block is named by its row among the non-blank records, and nothing is written
    model, data, out = tmp_path / "m.model", tmp_path / "d.csv", tmp_path / "p.csv"
    model.write_text(MODEL_X2_MINUS_X1.replace("beta_1 = -1", "beta_1 = 1e308").replace("beta_2 = 1", "beta_2 = -1e308"))
    rows = ["1,1"] * 20_000
    rows[17_000] = "10,10"
    data.write_text("x1,x2\n" + "\n".join(rows) + "\n")
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {data}: non-finite decision value in row 17001\n"
    assert not out.exists()


def test_a_cell_over_the_csv_field_limit_is_a_data_error(tmp_path, capsys):
    # numpy's reader parses a 1 and 140 000 zeros as inf, so the cell scan reads the file again, and
    # csv.reader takes no field over 131 072 characters
    data, out = tmp_path / "d.csv", tmp_path / "m"
    data.write_text("x1,y\n1" + "0" * 140_000 + ",1\n-1,-1\n")
    assert main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {data}: unreadable CSV (field larger than field limit")
    assert not out.exists()


def test_predict_leaves_no_output_when_its_copy_fails(tmp_path, capsys):
    # numpy's reader takes the quoted cell of 140 003 characters as 0, so predict reaches the copy,
    # where csv.reader refuses it: the output is not left half written, nor is the input it names
    model, data, out = tmp_path / "m.model", tmp_path / "d.csv", tmp_path / "p.csv"
    model.write_text(MODEL_X2_MINUS_X1)
    source = b'x1,x2\n"0.' + b"0" * 140_000 + b'1",2\n1,2\n'
    data.write_bytes(source)
    for target in (out, data):
        assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(target)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {data}: unreadable CSV (field larger than field limit")
    assert data.read_bytes() == source
    assert sorted(tmp_path.iterdir()) == [data, model]


def test_predict_writes_a_pipe_in_place(tmp_path):
    # a temporary file renamed over --out would replace the pipe, as it would /dev/null
    model, data, pipe = tmp_path / "m.model", tmp_path / "d.csv", tmp_path / "p.fifo"
    model.write_text(MODEL_X2_MINUS_X1)
    data.write_bytes(b"x1,x2\n1,2\n")
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(pipe)]) == 0
    reader.join(timeout=10)
    assert got == [b"x1,x2,predicted\n1,2,1\n"]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_fit_and_predict_read_a_pipe(data_csv, tmp_path):
    # the loader counts the lines of --data before it parses them, and predict parses them, then
    # copies them: a pipe's bytes are read in full for the two passes, and the outputs are a file's
    pipe = tmp_path / "d.fifo"
    os.mkfifo(pipe)
    fit_argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--out"]
    predict_argv = ["predict", "--model", str(tmp_path / "f.model"), "--out"]
    assert main(fit_argv + [str(tmp_path / "f.model"), "--data", str(data_csv)]) == 0
    assert main(predict_argv + [str(tmp_path / "f.csv"), "--data", str(data_csv)]) == 0
    for argv, out in ((fit_argv, "p.model"), (predict_argv, "p.csv")):
        writer = threading.Thread(target=lambda: pipe.write_bytes(data_csv.read_bytes()), daemon=True)
        writer.start()
        assert main(argv + [str(tmp_path / out), "--data", str(pipe)]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
    for name in ("model", "trajectory.csv", "csv"):
        assert (tmp_path / f"p.{name}").read_bytes() == (tmp_path / f"f.{name}").read_bytes()


def test_fit_reports_non_finite_cell_by_record_number(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x1,y\n1,1\nnan,-1\n")
    code = main(["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(tmp_path / "m")])
    assert code == 3
    assert "non-finite cell at row 2, column 'x1'" in capsys.readouterr().err


# a file that cannot be read as the verb needs it: each is a data error naming the file, and nothing is written
@pytest.mark.parametrize(
    "verb, role, content, message",
    [
        ("fit", "data", b"", "empty file, header required"),
        ("fit", "data", b"y\n1\n-1\n", "no feature columns"),
        ("fit", "data", b"x1,y\n1,1\n\xff,1\n", "not UTF-8 text"),
        # past the first block the text reader decodes, so the bulk parse fails and the cell scan reports it
        ("fit", "data", b"x1,y\n" + b"1,1\n" * 5000 + b"\xe9,1\n", "not UTF-8 text"),
        ("predict", "data", b"x1,x2\n1,2\n\xff,1\n", "not UTF-8 text"),
        ("predict", "data", b"", "empty file, header required"),
        ("predict", "model", b"\xff", "not UTF-8 text"),
        ("predict", "model", None, "Is a directory"),
    ],
    ids=[
        "fit-empty", "fit-only-y", "fit-not-utf8", "fit-not-utf8-late", "predict-not-utf8", "predict-empty",
        "model-not-utf8", "model-directory",
    ],
)
def test_an_unreadable_input_is_a_data_error_naming_it(tmp_path, capsys, verb, role, content, message):
    data, model, out = tmp_path / "d.csv", tmp_path / "m.model", tmp_path / "out"
    data.write_bytes(b"x1,x2\n1,2\n")
    model.write_text(MODEL_X2_MINUS_X1)
    path = data if role == "data" else model
    if content is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(content)
    if verb == "fit":
        argv = ["fit", "--loss", "hinge", "--penalty", "l2", "--data", str(data), "--out", str(out)]
    else:
        argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not out.exists()
