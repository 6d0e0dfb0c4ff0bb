"""Row-by-row CSV reading and writing as they were before the bulk numpy
paths: every cell read goes through csv.reader and Python's float, and every
row written is one '%' format of its values. Kept as the reference the bulk
implementations must agree with, apart from blank lines, which these readers
reject as rows of 0 cells. Both readers report a non-finite feature cell by
its record number and column, as the bulk reader does.
"""

import csv
from pathlib import Path

import numpy as np

from irlsvm import DataError, Dataset

LABEL_COLUMN = "y"


def load_dataset_csv(path) -> Dataset:
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header required") from None
            rows = list(reader)
    except OSError as err:
        raise DataError(f"{path}: {err.strerror}") from err

    header = [name.strip() for name in header]
    if LABEL_COLUMN not in header:
        raise DataError(f"{path}: missing label column '{LABEL_COLUMN}'")
    label_idx = header.index(LABEL_COLUMN)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns")
    if not rows:
        raise DataError(f"{path}: no samples")

    features = np.empty((len(rows), len(feature_idx)))
    labels = np.empty(len(rows))
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feature_idx):
            try:
                features[r - 1, c] = float(row[i])
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {r}, column '{header[i]}'") from None
            if not np.isfinite(features[r - 1, c]):
                raise DataError(f"{path}: non-finite cell at row {r}, column '{header[i]}'")
        try:
            label = float(row[label_idx])
        except ValueError:
            raise DataError(f"{path}: non-numeric label at row {r}") from None
        if label not in (-1.0, 1.0):
            raise DataError(f"{path}: label at row {r} is {row[label_idx]!r}, must be -1 or 1")
        labels[r - 1] = label
    try:
        return Dataset(features=features, labels=labels)
    except ValueError as err:
        raise DataError(f"{path}: {err}") from err


def load_feature_rows_csv(path) -> tuple[list[str], list[list[str]], np.ndarray]:
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file, header required") from None
            rows = list(reader)
    except OSError as err:
        raise DataError(f"{path}: {err.strerror}") from err
    feature_idx = [i for i, name in enumerate(header) if name != LABEL_COLUMN]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns")
    if not rows:
        raise DataError(f"{path}: no samples")
    features = np.empty((len(rows), len(feature_idx)))
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feature_idx):
            try:
                features[r - 1, c] = float(row[i])
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {r}, column '{header[i]}'") from None
            if not np.isfinite(features[r - 1, c]):
                raise DataError(f"{path}: non-finite cell at row {r}, column '{header[i]}'")
    return header, rows, features


def write_predictions(header, rows, labels, path) -> None:
    """The predict verb's output: every raw cell re-serialised by csv.writer."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header + ["predicted"])
        for row, label in zip(rows, labels):
            writer.writerow(row + [str(int(label))])


def write_rows(path, header, fmt, columns) -> None:
    """The header, then row k as fmt % (column[k] for each column)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in zip(*(np.asarray(column).tolist() for column in columns)):
            handle.write(fmt % row + "\n")


def write_dataset_csv(dataset, path) -> None:
    header = [f"x{j + 1}" for j in range(dataset.q)] + [LABEL_COLUMN]
    write_rows(path, header, ",".join(["%.17g"] * dataset.q + ["%d"]), [*dataset.features.T, dataset.labels])


def write_trajectory_csv(result, path) -> None:
    exact, smoothed = result.exact_risk_trajectory, result.smoothed_risk_trajectory
    header = ["iteration", "exact_risk", "smoothed_risk"]
    write_rows(path, header, "%d,%.17g,%.17g", [np.arange(len(exact)), exact, smoothed])
