"""Dataset CSV ingestion, the seeded two-Gaussian generator, and model /
trajectory persistence.

File conventions: CSVs are comma-separated UTF-8 with a header row and LF
line endings; the label column is named "y" and holds -1 or 1; floats are
written with 17 significant digits so values round-trip bit-for-bit. Model
files are flat "key = value" text documents with a fixed key set.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from .core import Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec

MODEL_FORMAT = "irlsvm-model/1"
LABEL_COLUMN = "y"

_FLOAT = "%.17g"
_WRITE_ROWS = 1 << 14  # rows formatted per write; bounds the memory a large file needs


class DataError(ValueError):
    """File-level problem: missing/malformed content, bad labels, bad cells."""


@contextlib.contextmanager
def open_output(path):
    """Open path for writing UTF-8 text, line endings as given; an OSError
    while opening, writing or closing it becomes a DataError naming path."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as err:
        raise DataError(f"{path}: cannot write: {err.strerror or err}") from err


def _fmt(value: float) -> str:
    return _FLOAT % float(value)


def load_features_csv(path, labeled: bool = False) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Read a CSV with a header row: returns (header, features, labels).

    Every column except the label column "y" is a feature, in header order.
    With labeled=True the "y" column is required and must hold -1 or 1;
    otherwise it is optional, ignored, and labels is None. A header naming
    "y" twice is a DataError. Blank lines are skipped. A non-finite feature
    ("nan", "inf") is a DataError naming its row and column.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            try:
                header = [name.strip() for name in next(csv.reader(handle))]
            except StopIteration:
                raise DataError(f"{path}: empty file, header required") from None
            if header.count(LABEL_COLUMN) > 1:
                raise DataError(f"{path}: label column '{LABEL_COLUMN}' appears more than once")
            if labeled and LABEL_COLUMN not in header:
                raise DataError(f"{path}: missing label column '{LABEL_COLUMN}'")
            label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
            feature_idx = [i for i in range(len(header)) if i != label_idx]
            if not feature_idx:
                raise DataError(f"{path}: no feature columns")
            values = _parse_body(handle, len(header))
    except OSError as err:
        raise DataError(f"{path}: {err.strerror}") from err
    if not labeled:
        label_idx = None  # an unlabeled read ignores a "y" column
    features = None
    if values is not None and (not labeled or np.isin(values[:, label_idx], (-1.0, 1.0)).all()):
        # row-major like a row-by-row fill: BLAS sums in an order that
        # depends on the layout, and fits must repeat bit for bit
        features = np.ascontiguousarray(values[:, feature_idx])
        labels = None if label_idx is None else values[:, label_idx]
    if features is None or not np.isfinite(features).all():
        features, labels = _scan_rows(path, header, feature_idx, label_idx)
    if features.shape[0] == 0:
        raise DataError(f"{path}: no samples")
    return header, features, labels


def _parse_body(handle, width: int) -> np.ndarray | None:
    """The rows after the header as an (n, width) matrix, parsed by numpy's C
    reader; None when that reader rejects them. comments=None keeps a "#"
    inside a cell from silently cutting the row short."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is reported as "no samples"
            values = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width else None


def _scan_rows(path: Path, header, feature_idx, label_idx) -> tuple[np.ndarray, np.ndarray | None]:
    """Read the rows one cell at a time with Python's float, raising a
    DataError that names the first bad row and column.

    Runs only when the bulk parse fails or finds a bad label or a non-finite
    feature ("nan", "inf", "1e999"), which it reports by cell. It also returns
    the values of the few files Python's float accepts and numpy's reader
    does not, such as "1_000" cells, lone-CR line endings, or a non-numeric
    "y" column that an unlabeled read ignores.
    """
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            rows = [(r, row) for r, row in enumerate(reader, start=1) if row]
    except OSError as err:
        raise DataError(f"{path}: {err.strerror}") from err
    features = np.empty((len(rows), len(feature_idx)))
    labels = None if label_idx is None else np.empty(len(rows))
    for k, (r, row) in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feature_idx):
            try:
                features[k, c] = float(row[i])
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {r}, column '{header[i]}'") from None
            if not math.isfinite(features[k, c]):
                raise DataError(f"{path}: non-finite cell at row {r}, column '{header[i]}'")
        if label_idx is None:
            continue
        try:
            label = float(row[label_idx])
        except ValueError:
            raise DataError(f"{path}: non-numeric label at row {r}") from None
        if label not in (-1.0, 1.0):
            raise DataError(f"{path}: label at row {r} is {row[label_idx]!r}, must be -1 or 1")
        labels[k] = label
    return features, labels


def load_dataset_csv(path) -> Dataset:
    """Read a labeled dataset; the header must name the label column "y"."""
    _header, features, labels = load_features_csv(path, labeled=True)
    try:
        return Dataset(features=features, labels=labels)
    except ValueError as err:
        raise DataError(f"{path}: {err}") from err


def _write_rows(path, header, fmt: str, columns) -> None:
    """Write the header, then row k = fmt % (column[k] for each column),
    formatted a block of rows at a time."""
    line = fmt + "\n"
    columns = [np.asarray(column) for column in columns]
    with open_output(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            block = zip(*(column[start : start + _WRITE_ROWS].tolist() for column in columns))
            handle.write("".join(map(line.__mod__, block)))


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset with columns x1..xq then y."""
    header = [f"x{j + 1}" for j in range(dataset.q)] + [LABEL_COLUMN]
    _write_rows(path, header, ",".join([_FLOAT] * dataset.q + ["%d"]), [*dataset.features.T, dataset.labels])


def _csv_records(lines):
    """Group an iterator of lines into CSV records as csv.reader does and yield the text of
    each non-blank record without its line ending. A record continues past a
    line ending only inside a quoted cell, so only lines holding a quote are
    handed to csv.reader."""
    for line in lines:
        if '"' in line:
            taken = [line]

            def record_lines():
                yield line
                for more in lines:
                    taken.append(more)
                    yield more

            next(csv.reader(record_lines()))  # pulls exactly the lines of one record
            line = "".join(taken)
        line = line.rstrip("\r\n")
        if line:
            yield line


def write_predictions_csv(source, header: list[str], labels, path) -> None:
    """Copy the CSV at source to path with a "predicted" column appended.

    Each data record keeps its text, with an LF line ending, and gains
    ",<label>"; labels holds one -1/1 entry per non-blank record, in order.
    The header is written as the given cell list plus "predicted".
    """
    with Path(source).open(newline="", encoding="utf-8") as src:
        lines = src.readlines()  # read in full first: path may name the same file
    suffixes = (",-1\n", ",1\n")
    positive = (np.asarray(labels) > 0).tolist()
    records = _csv_records(iter(lines))
    next(records)  # the header record
    with open_output(path) as out:
        csv.writer(out, lineterminator="\n").writerow(header + ["predicted"])
        for start in range(0, len(positive), _WRITE_ROWS):
            block = itertools.islice(records, _WRITE_ROWS)
            ends = map(suffixes.__getitem__, positive[start : start + _WRITE_ROWS])
            out.write("".join(map(str.__add__, block, ends)))


def _polar_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via the Marsaglia polar transform.

    Uniform doubles are consumed strictly in pairs (u, v) from the stream;
    pairs with u^2 + v^2 outside (0, 1) are rejected; accepted pairs yield two
    normals each, taken in stream order. The output therefore depends only on
    the generator stream, not on internal batch sizes.
    """
    out = np.empty(count)
    filled = 0
    while filled < count:
        pairs_needed = (count - filled + 1) // 2
        draw = 2 * (pairs_needed + max(8, pairs_needed // 4))
        u = 2.0 * rng.random(draw) - 1.0
        a, b = u[0::2], u[1::2]
        s = a * a + b * b
        keep = (s > 0.0) & (s < 1.0)
        factor = np.sqrt(-2.0 * np.log(s[keep]) / s[keep])
        accepted = np.empty(2 * factor.size)
        accepted[0::2] = a[keep] * factor
        accepted[1::2] = b[keep] * factor
        take = min(accepted.size, count - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def generate_gaussian_mixture(n: int, mean_neg=(-1.0, -1.0), mean_pos=(1.0, 1.0), seed: int = 0) -> Dataset:
    """Two balanced spherical-Gaussian classes: the first n/2 samples carry
    label -1 around mean_neg, the rest label +1 around mean_pos.

    Deterministic given the seed: normals come from a PCG64 stream through
    the polar transform, filled row-major (sample by sample, coordinate by
    coordinate).
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    mean_neg = np.asarray(mean_neg, dtype=float).ravel()
    mean_pos = np.asarray(mean_pos, dtype=float).ravel()
    if mean_neg.shape != mean_pos.shape:
        raise ValueError("class means must have equal length")
    q = mean_neg.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = _polar_normals(rng, n * q).reshape(n, q)
    half = n // 2
    features = np.empty((n, q))
    features[:half] = mean_neg + noise[:half]
    features[half:] = mean_pos + noise[half:]
    labels = np.concatenate([-np.ones(half), np.ones(half)])
    return Dataset(features=features, labels=labels)


def write_model(result: FitResult, spec: RiskSpec, path) -> None:
    """Persist a fitted model as "key = value" lines."""
    path = Path(path)
    lines = [
        f"format = {MODEL_FORMAT}",
        f"loss = {spec.loss.value}",
        f"penalty = {spec.penalty.value}",
        f"lambda = {_fmt(spec.lam)}",
        f"mu = {_fmt(spec.mu)}",
        f"epsilon = {_fmt(spec.epsilon)}",
        f"alpha = {_fmt(result.theta.alpha)}",
    ]
    lines += [f"beta_{j + 1} = {_fmt(v)}" for j, v in enumerate(result.theta.beta)]
    lines += [
        f"iterations_run = {result.iterations_run}",
        f"terminal_exact_risk = {_fmt(result.exact_risk_trajectory[-1])}",
        f"terminal_smoothed_risk = {_fmt(result.smoothed_risk_trajectory[-1])}",
    ]
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


_SCALAR_MODEL_KEYS = {
    "format",
    "loss",
    "penalty",
    "lambda",
    "mu",
    "epsilon",
    "alpha",
    "iterations_run",
    "terminal_exact_risk",
    "terminal_smoothed_risk",
}


def read_model(path) -> tuple[ModelParams, RiskSpec]:
    """Read a model file back; unknown keys and format mismatches are errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(f"{path}: {err.strerror}") from err
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}: line {lineno} is not a 'key = value' entry")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise DataError(f"{path}: duplicate key '{key}'")
        if key not in _SCALAR_MODEL_KEYS and not key.startswith("beta_"):
            raise DataError(f"{path}: unknown key '{key}'")
        entries[key] = value

    missing = _SCALAR_MODEL_KEYS - entries.keys()
    if missing:
        raise DataError(f"{path}: missing keys {sorted(missing)}")
    if entries["format"] != MODEL_FORMAT:
        raise DataError(f"{path}: format {entries['format']!r} not supported (expected {MODEL_FORMAT!r})")

    beta_keys = sorted(k for k in entries if k.startswith("beta_"))
    q = len(beta_keys)
    expected = [f"beta_{j + 1}" for j in range(q)]
    if q == 0 or beta_keys != sorted(expected):
        raise DataError(f"{path}: beta entries must be beta_1..beta_q, got {beta_keys}")

    def as_float(key):
        try:
            return float(entries[key])
        except ValueError:
            raise DataError(f"{path}: value for '{key}' is not numeric") from None

    lam, mu, epsilon, alpha = (as_float(key) for key in ("lambda", "mu", "epsilon", "alpha"))
    beta = np.array([as_float(k) for k in expected])
    # an unknown name or an out-of-range value is a bad file, not a bad command line
    try:
        spec = RiskSpec(Loss(entries["loss"]), Penalty(entries["penalty"]), lam=lam, mu=mu, epsilon=epsilon)
        theta = ModelParams(alpha=alpha, beta=beta)
    except ValueError as err:
        raise DataError(f"{path}: {err}") from None
    return theta, spec


def write_trajectory_csv(result: FitResult, path) -> None:
    """One row per recorded iterate: iteration, exact_risk, smoothed_risk."""
    exact, smoothed = result.exact_risk_trajectory, result.smoothed_risk_trajectory
    header = ["iteration", "exact_risk", "smoothed_risk"]
    _write_rows(path, header, f"%d,{_FLOAT},{_FLOAT}", [np.arange(len(exact)), exact, smoothed])


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a trajectory file: (iterations, exact risks, smoothed risks)."""
    header, values, _labels = load_features_csv(path)
    if header != ["iteration", "exact_risk", "smoothed_risk"]:
        raise DataError(f"{path}: unexpected trajectory header {header}")
    return values[:, 0].astype(int), values[:, 1], values[:, 2]
