import codecs
import contextlib
import errno
import hashlib
import io
import math
import os
import pathlib
import re
import signal

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
from irlsvm import core, data_io
from irlsvm.core import _BLOCK_BYTES

from helpers import interrupt_on_call, make_dataset, no_child_left, traced_peak, two_sample_dataset


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
    # n counts samples: an integral value, not a float or a bool, even when it is whole
    for n in (10.0, True, "10"):
        with pytest.raises(ValueError, match=f"^n must be a positive even integer, got {n!r}$"):
            generate_gaussian_mixture(n, seed=0)
    assert generate_gaussian_mixture(np.int64(10), seed=0).n == 10
    with pytest.raises(ValueError, match="equal length"):
        generate_gaussian_mixture(4, mean_neg=(0.0,), mean_pos=(1.0, 1.0))
    # q = 0 would divide the block size by zero: the means are named before any draw
    with pytest.raises(ValueError, match="^class means must be non-empty and of equal length$"):
        generate_gaussian_mixture(4, mean_neg=(), mean_pos=())
    # the Dataset would reject the samples too, but the generator names the argument at fault
    with pytest.raises(ValueError, match="^class means must be finite$"):
        generate_gaussian_mixture(4, mean_neg=(0.0, np.nan), mean_pos=(1.0, 1.0))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_generator_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy would reject -1 without naming it, raise a TypeError for 1.5 and take True as 1
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
        generate_gaussian_mixture(4, seed=seed)


def test_generator_takes_a_numpy_integer_seed():
    expected = generate_gaussian_mixture(10, seed=3)
    assert generate_gaussian_mixture(10, seed=np.int64(3)).features.tobytes() == expected.features.tobytes()


def _marsaglia_normals(seed, count):
    """The first count normals of the polar method run pair by pair in Python on
    the PCG64 uniforms of seed, in stream order."""
    rng, out = np.random.Generator(np.random.PCG64(seed)), []
    while len(out) < count:
        u, v = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            factor = math.sqrt(-2.0 * math.log(s) / s)
            out += [u * factor, v * factor]
    return np.array(out[:count])


@pytest.mark.parametrize("cells", [None, 1, 3])
def test_polar_normals_follow_the_stream_pair_by_pair(monkeypatch, cells):
    # one pair per batch meets batches that accept nothing; three pairs per batch put
    # batch ends inside the generator's one-sample blocks
    if cells is not None:
        monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
    count = 3000
    expected = _marsaglia_normals(17, count)
    drawn, normals = [], data_io._polar_normals(np.random.Generator(np.random.PCG64(17)))
    while sum(map(len, drawn)) < count:
        drawn.append(next(normals))
    # numpy's log and sqrt may round otherwise than the C library's, by an ulp or so
    ulps = 4 * np.spacing(np.abs(expected))
    assert np.all(np.abs(np.concatenate(drawn)[:count] - expected) <= ulps)
    ds = generate_gaussian_mixture(count // 3, mean_neg=np.zeros(3), mean_pos=np.zeros(3), seed=17)
    assert np.all(np.abs(ds.features.reshape(-1) - expected) <= ulps)


def test_generator_custom_means():
    ds = generate_gaussian_mixture(2_000, mean_neg=(-3.0, 0.0), mean_pos=(3.0, 0.0), seed=5)
    assert ds.features[:1000, 0].mean() < -2.5
    assert ds.features[1000:, 0].mean() > 2.5


def test_generator_bytes_are_pinned_at_fifty_features():
    ds = generate_gaussian_mixture(1000, mean_neg=-0.2 * np.ones(50), mean_pos=0.2 * np.ones(50), seed=0)
    digest = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()
    assert digest == "fd9d41b9a28097becd3eff7dcd89cc7e2d9fa6046f2b347813ee0da52bcac3e1"


@pytest.mark.parametrize(
    "q, expected",
    [
        (1, "76de181ceca15120ce18707b3e350226c1aaae3a6782d8934b486e5e5c276f93"),
        (2, "4829e3cc2c90e42c0ffe5ee82f06fec27a8c7fc3518fdca8a9679defbd265bb3"),
    ],
)
def test_generator_bytes_are_pinned_at_one_and_two_features(q, expected):
    # CI's draw (n = 40 000, seed 2017): several batches of pairs, and blocks that
    # end inside a batch
    ds = generate_gaussian_mixture(40_000, mean_neg=-np.ones(q), mean_pos=np.ones(q), seed=2017)
    assert hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest() == expected


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


@pytest.mark.parametrize("q", [1, 2, 50])
def test_generator_blocks_are_their_own_arrays(q):
    # every block is collected before any is used: three whole blocks and a short one, the
    # classes meeting inside one, and together they are the generated dataset's design
    step = data_io._WRITE_CELLS // q
    n = 3 * step + 2 - step % 2
    means = -np.ones(q), np.ones(q)
    _q, blocks = data_io._mixture_blocks(n, *means, seed=q)
    labels, rows = zip(*blocks)
    assert len(rows) == 4
    ds = generate_gaussian_mixture(n, *means, seed=q)
    assert np.concatenate(rows).tobytes() == ds.features.tobytes()
    assert np.concatenate(labels).tobytes() == ds.labels.tobytes()


@pytest.mark.parametrize("n, q", [(200_000, 2), (20_000, 50)])
def test_generator_holds_little_besides_its_output(n, q):
    # the output, which is the Dataset's design, one batch of pairs and one block; a
    # transform over arrays as long as the output held 3.4 and 4.8 times it, and a
    # Dataset that copied the generated features 2 times
    held = {}
    peak = traced_peak(lambda: held.update(ds=generate_gaussian_mixture(n, mean_neg=-np.ones(q), mean_pos=np.ones(q))))
    output = held["ds"].features.nbytes + held["ds"].labels.nbytes
    assert peak <= 1.25 * output + 2**20


def _source_csv(tmp_path, n, eol):
    """A generated dataset of n samples as a CSV whose lines end at eol."""
    source = tmp_path / "d.csv"
    write_dataset_csv(generate_gaussian_mixture(n, seed=3), source)
    source.write_bytes(source.read_bytes().replace(b"\n", eol))
    return source


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_predict_reads_its_source_once_and_holds_one_block_and_one_window(tmp_path, monkeypatch, eol):
    # of the source (8.5 MB with LF endings) the step holds one parsed block, a byte per label and
    # one window of the copy, whatever the line endings. Holding the source's bytes through the parse
    # and the copy took 7.3 MiB more; a parse of the whole file, then a second read, more again
    n = 200_000
    source = _source_csv(tmp_path, n, eol)
    opened, path_open = [], pathlib.Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(self)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counted_open)
    theta = ModelParams(alpha=0.25, beta=[1.0, -0.5])
    out = tmp_path / "p.csv"
    peak = traced_peak(lambda: data_io.write_predictions_csv(theta, source, out))
    assert opened.count(source) == 1
    assert peak <= 3 * 2**20
    assert out.read_bytes().count(b"\n") == n + 1


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_holds_the_design_and_one_block(tmp_path, eol):
    # the design, sized by the file's lines, and one parsed block (1.2 MiB); keeping every block
    # until the last, as a design sized by the blocks' rows must, held 4.7 MiB more at this n
    n = 200_000
    source, held = _source_csv(tmp_path, n, eol), {}
    peak = traced_peak(lambda: held.update(ds=load_dataset_csv(source)))
    assert held["ds"].n == n
    assert peak <= held["ds"]._design.nbytes + 2 * 2**20


def test_wide_data_is_written_and_loaded_within_the_block_budget(tmp_path):
    # at q = 50 the writer rebuilds at most _BLOCK_BYTES of feature rows at a time, and the loader parses
    # at most _BLOCK_BYTES a block: whole 16 384-row blocks peaked at 8.7 MB and at the design + 20.1 MB
    q, path, held = 50, tmp_path / "wide.csv", {}
    dataset = generate_gaussian_mixture(20_000, mean_neg=-0.3 * np.ones(q), mean_pos=0.3 * np.ones(q), seed=4)
    assert traced_peak(lambda: write_dataset_csv(dataset, path)) <= 2 * _BLOCK_BYTES + 2**20
    assert traced_peak(lambda: held.update(ds=load_dataset_csv(path))) <= dataset._design.nbytes + 4 * _BLOCK_BYTES
    assert held["ds"]._design.tobytes() == dataset._design.tobytes()


@pytest.mark.parametrize("cells", [1, 2, data_io._WRITE_CELLS])
def test_line_count_counts_the_lines_csv_reads(cells, monkeypatch):
    # an LF, a CRLF, a lone CR or the end of the bytes ends a line; the count reads _WRITE_CELLS *
    # _CELL bytes at a time (48 for one cell), and a CRLF may straddle two reads
    monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
    texts = [b"", b"x", b"\r", b"\n", b"\r\n", b"\n\r", b"x\r\r\ny\rz\n\n", b"x\ry", b"x,y\r\n1,1\r\n\r\n-1,-1"]
    texts += [b"x" * k + end + b"y" * tail for k in range(100) for end in (b"\r\n", b"\r", b"\r\r\n") for tail in (0, 1)]
    for text in texts:
        lines = sum(1 for _ in io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline=""))
        assert data_io._line_count(io.BytesIO(text)) == (lines, False), text
        assert data_io._line_count(io.BytesIO(text + b'"')) == (lines + (text[-1:] in b"\r\n"), True), text


# lines that hold no record of their own: blank lines, line breaks in quoted cells; a design sized by
# the file's lines is copied down to the records that come, whose values, errors and row numbers
# are as before. In blocks of two rows, and with the line count read 48 bytes at a time, as well
@pytest.mark.parametrize(
    "text, expected",
    [
        ("x1,y\n1,1\n\n\n-1,-1\n\n", [1, -1]),
        ("x1,y\r\n1,1\r\n\r\n-1,-1\r\n", [1, -1]),
        ("x1,y\r1,1\r\r\r-1,-1", [1, -1]),
        ('"x\n1",y\n1,1\n-1,-1\n', [1, -1]),
        ('x1,y\n"1\n",1\n" -1",-1\n-1,"-1\r\n"\n', [1, -1, -1]),
        ("x1,y\n1,1\n-1,-1", [1, -1]),
        ("x1  ,y\r\n" + "1,1\r\n-1,-1\r\n" * 30, [1, -1] * 30),
        ("x1,x2,y\n1,2,1\n\n\n1,oops,-1\n", "non-numeric cell at row 4, column 'x2'"),
        ("x1,y\r\n1,1\r\n\r\n2,0\r\n", "label at row 3 is '0', must be -1 or 1"),
        ('x1,y\n"1\n\n",1\n\n-1,inf\n', "label at row 3 is 'inf', must be -1 or 1"),
        ("x1,y\n\n\r\n", "no samples"),
    ],
    ids=[
        "blank-lines", "crlf-blank-lines", "lone-cr-blank-lines-and-no-final-line-end", "quoted-header-line-break",
        "quoted-line-breaks", "no-final-line-end", "crlf-at-a-count-chunk-boundary", "bad-cell-after-blank-lines",
        "bad-label-after-blank-lines", "bad-label-after-quoted-line-breaks", "blank-lines-only",
    ],
)
def test_load_copies_a_design_sized_by_lines_down_to_its_records(tmp_path, monkeypatch, text, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    for block_rows, cells in [(core._BLOCK_ROWS, data_io._WRITE_CELLS), (2, 1)]:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
        if isinstance(expected, str):
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                load_dataset_csv(path)
            continue
        ds = load_dataset_csv(path)
        assert ds.labels.tolist() == expected and ds.features.tolist() == [[v] for v in expected]
        assert ds._design.flags.c_contiguous and not ds._design.flags.writeable


def test_trajectory_reader_reports_a_cell_over_the_csv_field_limit(tmp_path):
    # numpy's reader parses a 1 and 140 000 zeros as inf, and csv.reader takes no field that long
    path = tmp_path / "t.csv"
    path.write_text("iteration,exact_risk,smoothed_risk\n0,1" + "0" * 140_000 + ",1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: unreadable CSV (field larger than field limit")):
        read_trajectory_csv(path)


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


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["new", "existing"])
@pytest.mark.parametrize("writer", ["trajectory", "model"])
def test_an_interrupted_write_leaves_its_path_as_it_was(tmp_path, monkeypatch, writer, existing):
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    result = fit(spec, make_dataset(seed=43, n=30, q=2))
    path = tmp_path / "out"
    if existing is not None:
        path.write_bytes(existing)
    if writer == "trajectory":
        interrupt_on_call(monkeypatch, data_io, "_row_bytes", 1)  # after the header
    else:
        keys = data_io._model_keys

        def interrupted(q):  # five lines, then a ^C
            yield from keys(q)[:5]
            raise KeyboardInterrupt

        monkeypatch.setattr(data_io, "_model_keys", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_trajectory_csv(result, path) if writer == "trajectory" else write_model(result, spec, path)
    assert sorted(tmp_path.iterdir()) == ([] if existing is None else [path])
    if existing is not None:
        assert path.read_bytes() == existing


def test_staged_outputs_replace_their_paths_together_at_the_end(tmp_path):
    spec = RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1)
    result = fit(spec, make_dataset(seed=43, n=30, q=2))
    model, trajectory = tmp_path / "m.model", tmp_path / "m.trajectory.csv"
    with data_io.staged_outputs():
        write_model(result, spec, model)
        write_trajectory_csv(result, trajectory)
        assert sorted(path.name for path in tmp_path.iterdir()) == [f".{path.name}.{os.getpid()}.tmp" for path in (model, trajectory)]
    assert sorted(tmp_path.iterdir()) == [model, trajectory]
    assert read_trajectory_csv(trajectory)[1].tobytes() == result.exact_risk_trajectory.tobytes()


def test_a_write_replaces_a_symlink_and_leaves_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    write_trajectory_csv(fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), make_dataset(seed=43, n=30, q=2)), link)
    assert not link.is_symlink() and link.read_text().startswith("iteration,")
    assert target.read_bytes() == b"old\n"


def test_csv_readers_drop_one_leading_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" export begins with one; it is not part of the first header name
    result = fit(RiskSpec(Loss.HINGE, Penalty.L2, lam=0.1), make_dataset(seed=43, n=30, q=2))
    trajectory, data = tmp_path / "t.csv", tmp_path / "d.csv"
    write_trajectory_csv(result, trajectory)
    trajectory.write_bytes(codecs.BOM_UTF8 + trajectory.read_bytes())
    _iterations, exact, smoothed = read_trajectory_csv(trajectory)
    assert_array_equal(exact, result.exact_risk_trajectory)
    assert_array_equal(smoothed, result.smoothed_risk_trajectory)
    data.write_bytes(codecs.BOM_UTF8 + b"x1,y\n1_0,1\n-1,-1\n")  # read again from its start, by the cell scan
    assert_array_equal(load_dataset_csv(data).features, [[10.0], [-1.0]])
    data.write_bytes(codecs.BOM_UTF8 * 2 + b"y,x1\n1,1\n-1,-1\n")  # one mark only: the second is text
    with pytest.raises(DataError, match="missing label column 'y'"):
        load_dataset_csv(data)


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



# A read of a regular file of more lines than one parse block (16 384 rows at q = 2), with no quote byte,
# on more than one CPU, is parsed in two processes: a forked child parses from the first LF after the
# file's middle byte on. Its result must be the serial read's in every value, block and error.
SPLIT_N = 40_000
THETA = ModelParams(alpha=0.25, beta=[1.0, -0.5])


@pytest.fixture(scope="module")
def split_lines(tmp_path_factory):
    """The header and the records of a generated dataset of SPLIT_N samples, without line ends."""
    path = tmp_path_factory.mktemp("split") / "d.csv"
    write_dataset_csv(generate_gaussian_mixture(SPLIT_N, seed=3), path)
    return path.read_bytes().split(b"\n")[:-1]


@contextlib.contextmanager
def _one_cpu(monkeypatch):
    """A block in which one CPU is usable, so that every read is serial."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


def _read(path, out):
    """What fit and predict read of path: the design's bytes and the predictions file, or the error."""
    try:
        design = load_dataset_csv(path)._design.tobytes()
    except DataError as err:
        design = str(err)
    try:
        data_io.write_predictions_csv(THETA, path, out)
        return design, out.read_bytes()
    except DataError as err:
        return design, str(err)


def _block_rows(path):
    """The rows of each block that the reader gives fit and predict."""
    with data_io.open_input(path) as handle, data_io._csv_blocks(path, handle) as (_header, _rows, blocks):
        return [len(features) for _labels, features in blocks]


@pytest.mark.parametrize("blank", [None, 5_000, 35_000], ids=["no-blank", "blank-in-first-half", "blank-in-second-half"])
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
@pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_split_read_matches_the_serial_read_of_a_quoted_header_copy(tmp_path, split_lines, forks, eol, bom, blank):
    lines = list(split_lines)
    if blank is not None:
        lines[blank:blank] = [b"", b""]
    split, serial = tmp_path / "split.csv", tmp_path / "serial.csv"
    split.write_bytes(bom + eol.join(lines) + eol)
    # a quote byte anywhere keeps a read serial
    serial.write_bytes(bom + eol.join([b'"x1",x2,y', *lines[1:]]) + eol)
    got = _read(split, tmp_path / "split-p.csv")
    assert len(forks) == 2
    assert got == _read(serial, tmp_path / "serial-p.csv")
    # the blocks a serial read cuts: two of 16 384 rows, then the rest
    assert _block_rows(split) == _block_rows(serial) == [16_384, 16_384, SPLIT_N - 2 * 16_384]
    assert len(forks) == 3
    assert got[1].count(b"\n") == SPLIT_N + 1
    no_child_left()


BAD_RECORDS = {
    "non-numeric": b"0.5,oops,1",
    "non-finite": b"0.5,inf,-1",
    "label-2": b"0.5,0.5,2",
    "short-row": b"0.5,1",
    "non-utf8": b"0.5,\xff,1",
}


@pytest.mark.parametrize("record", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_a_bad_record_in_the_childs_half_gives_the_serial_error(tmp_path, split_lines, forks, monkeypatch, record):
    lines = list(split_lines)
    lines[30_000] = record  # past the middle byte
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    got = _read(path, tmp_path / "p.csv")
    assert len(forks) == 2
    with _one_cpu(monkeypatch):
        assert got == _read(path, tmp_path / "p.csv")
    assert len(forks) == 2
    assert "row 30000" in got[0] or "not UTF-8" in got[0]
    no_child_left()


def test_a_character_cut_short_by_the_split_lf_gives_the_serial_error(tmp_path, split_lines, forks, monkeypatch):
    # the first byte of a 3-byte character, then the LF the child's half starts at: the parent's half
    # ends with that LF, so its decoder meets the same "invalid continuation byte" as a serial read's
    data = b"\n".join(split_lines) + b"\n"
    split = data.index(b"\n", len(data) // 2)
    path = tmp_path / "d.csv"
    path.write_bytes(data[:split] + b"\xe2" + data[split:])
    got = _read(path, tmp_path / "p.csv")
    assert len(forks) == 2
    with _one_cpu(monkeypatch):
        assert got == _read(path, tmp_path / "p.csv")
    assert got[0] == f"{path}: not UTF-8 text (invalid continuation byte)"


def test_a_child_killed_before_it_writes_falls_back_to_the_serial_result(tmp_path, split_lines, forks, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join(split_lines) + b"\n")
    with _one_cpu(monkeypatch):
        serial = _read(path, tmp_path / "p.csv")
    parent, loadtxt, scans, scan_rows = os.getpid(), np.loadtxt, [], data_io._scan_rows

    def killed_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return loadtxt(*args, **kwargs)

    def counted_scan_rows(*args):
        scans.append(args)
        return scan_rows(*args)

    monkeypatch.setattr(np, "loadtxt", killed_in_the_child)
    monkeypatch.setattr(data_io, "_scan_rows", counted_scan_rows)
    assert _read(path, tmp_path / "p.csv") == serial
    assert len(forks) == len(scans) == 2
    no_child_left()


def test_a_fork_that_fails_falls_back_to_the_serial_result(tmp_path, split_lines, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join(split_lines) + b"\n")
    with _one_cpu(monkeypatch):
        serial = _read(path, tmp_path / "p.csv")

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    assert _read(path, tmp_path / "p.csv") == serial


def test_no_child_outlives_a_read(tmp_path, split_lines, forks):
    path, bad = tmp_path / "d.csv", tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(split_lines) + b"\n")
    bad.write_bytes(b"\n".join([*split_lines[:30_000], b"0.5,oops,1", *split_lines[30_001:]]) + b"\n")
    assert load_dataset_csv(path).n == SPLIT_N
    no_child_left()
    with pytest.raises(DataError, match="non-numeric cell at row 30000"):
        load_dataset_csv(bad)
    no_child_left()
    # the width is checked at the first block, while the child still parses
    with pytest.raises(DataError, match="expected 3 features, got 2"):
        data_io.write_predictions_csv(ModelParams(alpha=0.0, beta=[1.0, 1.0, 1.0]), path, tmp_path / "p.csv")
    no_child_left()
    assert len(forks) == 3


def test_a_read_is_split_only_where_a_second_cpu_can_gain(tmp_path, split_lines, forks, monkeypatch):
    rows = data_io._rows_within(3)
    files = {
        "split": b"\n".join(split_lines) + b"\n",
        "quoted": b"\n".join(split_lines) + b'\n0.5,0.5,"1"\n',
        "one-block": b"\n".join(split_lines[:rows]) + b"\n",
        "no-lf-after-the-middle": b"\n".join(split_lines[:10_000]) + b"\r" + b"\r".join(split_lines[10_000:]) + b"\r",
    }
    for name, data in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert load_dataset_csv(path).n == data.count(b"\n") + data.count(b"\r") - 1
        assert len(forks) == 1, name
    with _one_cpu(monkeypatch):
        assert load_dataset_csv(tmp_path / "split.csv").n == SPLIT_N
    # a pipe's bytes, which open_input holds in a BytesIO
    assert data_io._halves(io.BytesIO(files["split"]), SPLIT_N + 1, False, rows) is None
    assert len(forks) == 1
