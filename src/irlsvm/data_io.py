"""Dataset CSV ingestion, the seeded two-Gaussian generator, and model /
trajectory persistence.

File conventions: CSVs are comma-separated UTF-8 with a header row and LF
line endings; the label column is named "y" and holds -1 or 1; a float cell
is exactly Python's '%.17g' % value, so values round-trip bit-for-bit. Model
files are flat "key = value" text documents whose keys _model_keys lists.

CSV floats are formatted a block at a time by integer arithmetic
(_float_cells). A finite x with 1e-11 < |x| < 2**50 is M * 2**e with M a
53-bit integer, and with E its decimal exponent and k = 16 - E its 17 digits
are D = round-half-even(M * 5**k / 2**(-e - k)). That range keeps k in
[1, 27], so 5**k fits in 63 bits, and the shift in [1, 62], so D comes from
the 116-bit product, summed exactly from 32-bit limbs in uint64. E starts
from floor(log10|x|), which may be one off next to a power of ten: it is the
smallest exponent whose D is below 10**17, so digits that round up to 10**17
move it up by one. Zeros take the same path; other values (non-finite, huge
or tiny) go through Python's '%' one at a time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import numbers
import warnings
from pathlib import Path

import numpy as np

from .core import _BLOCK_ROWS, Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, _predictions

MODEL_FORMAT = "irlsvm-model/1"
LABEL_COLUMN = "y"
_TRAJECTORY_HEADER = ["iteration", "exact_risk", "smoothed_risk"]

_FLOAT = "%.17g"
# cells formatted per write, and normal pairs drawn per batch; bounds the memory a large file needs
_WRITE_CELLS = 1 << 13


class DataError(ValueError):
    """File-level problem: missing/malformed content, bad labels, bad cells."""


@contextlib.contextmanager
def open_input(path, binary: bool = False):
    """Open path for reading UTF-8 text, line endings as they are, or bytes; an
    OSError, or text that is not UTF-8, while opening or reading it becomes a
    DataError naming Path(path), as the readers' own errors do. Every reader opens its file here."""
    try:
        with Path(path).open("rb") if binary else Path(path).open(newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as err:
        raise DataError(f"{Path(path)}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{Path(path)}: not UTF-8 text ({err.reason})") from err


@contextlib.contextmanager
def open_output(path):
    """Open path for writing UTF-8 text, line endings as given; an OSError
    while opening, writing or closing it becomes a DataError naming path."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as err:
        raise DataError(f"{path}: cannot write: {err.strerror or err}") from err


def _csv_blocks(path, handle, labeled: bool = False):
    """The header of the CSV text on handle, and a generator of the rows after it
    as (labels, features) blocks of up to _BLOCK_ROWS rows; every column but "y"
    is a feature, and labeled=True requires labels of -1 or 1 (else they are None).
    numpy's C reader parses each block where the last stopped (comments=None keeps
    a "#" from cutting a row short). At the first block it rejects, or that fails a
    check, _scan_rows reads handle again to report the bad cell or supply the rest."""
    try:
        header = [name.strip() for name in next(csv.reader(handle))]
    except StopIteration:
        raise DataError(f"{path}: empty file, header required") from None
    if header.count(LABEL_COLUMN) > 1:
        raise DataError(f"{path}: label column '{LABEL_COLUMN}' appears more than once")
    if labeled and LABEL_COLUMN not in header:
        raise DataError(f"{path}: missing label column '{LABEL_COLUMN}'")
    label_idx = header.index(LABEL_COLUMN) if labeled else None
    feature_idx = [i for i, name in enumerate(header) if name != LABEL_COLUMN]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns")

    def blocks():
        done, count = 0, _BLOCK_ROWS
        while count == _BLOCK_ROWS:  # a short block is the last
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty read is a block of no rows
                    values = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2, max_rows=_BLOCK_ROWS)
                values = values.reshape(len(values), len(header))  # another width fails; an empty read is (0, 1)
                # row-major, as predict_batch's sums depend on the layout and must repeat bit for bit
                features = values.take(feature_idx, axis=1)
                labels = None if label_idx is None else values[:, label_idx].copy()
                count = len(values)
                checked = np.isfinite(features).all() and (labels is None or np.isin(labels, (-1.0, 1.0)).all())
            except UnicodeDecodeError:  # for open_input to report
                raise
            except ValueError:
                checked = False
            if not checked:
                handle.seek(0)
                features, labels = _scan_rows(path, handle, header, feature_idx, label_idx)
                features, labels, count = features[done:], None if labels is None else labels[done:], 0
            yield labels, features
            done += len(features)
        if not done:
            raise DataError(f"{path}: no samples")

    return header, blocks()


def _scan_rows(path: Path, handle, header, feature_idx, label_idx) -> tuple[np.ndarray, np.ndarray | None]:
    """Read the rows on handle from its start, a cell at a time with Python's float;
    a DataError names the first bad row and column. Returns the values of the few
    files that float accepts and numpy's reader does not, such as "1_000" cells, or
    a non-numeric "y" column that an unlabeled read ignores."""
    reader = csv.reader(handle)
    next(reader)
    rows = [(r, row) for r, row in enumerate(reader, start=1) if row]
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
    with open_input(path) as handle:
        header, blocks = _csv_blocks(Path(path), handle, labeled=True)
        blocks = list(blocks)  # the row count sizes the Dataset
    # the blocks have passed the checks Dataset._fill makes, so its errors cannot arise here
    return Dataset._filled(sum(len(labels) for labels, _ in blocks), len(header) - 1, blocks)


# A cell is _CELL bytes: a '%.17g' text in fixed slots, NUL where one is
# empty, then ",": byte 0 the sign, 1-5 the "0.000" of fixed notation below
# 1, 6 + 2i digit i of 17 and 7 + 2i the point after it, 40-43 the "e-XX" of
# scientific notation. It is built as six 8-byte words from tables of words.
_CELL, _TEXT = 48, 44  # a fallback text takes at most 24 bytes
_MIN_EXP, _MAX_EXP = -11, 15  # the decimal exponents of the vector path
_EXPONENTS = np.arange(_MIN_EXP, _MAX_EXP + 1)  # row r is exponent _MIN_EXP + r
_POINT_AFTER = np.where(_EXPONENTS >= 0, _EXPONENTS, np.where(_EXPONENTS >= -4, -1, 0))  # -1: "0.0..."
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _words(table: bytes, width: int) -> np.ndarray:
    """Entries of width bytes as uint64 words, word j of entry i at [j, i]."""
    return np.ascontiguousarray(np.frombuffer(table, np.uint64).reshape(-1, width // 8).T).squeeze()


def _frame(exponent, point, keep):  # a cell's prefix, point, suffix and separator
    prefix = b"0." + b"0" * (-exponent - 1) if -4 <= exponent < 0 else b""
    slots = b"\0" * (1 + 2 * point) + b"." if 0 <= point < keep else b""
    suffix = b"e-%02d" % -exponent if exponent < -4 else b""
    return b"\0" + prefix.ljust(5, b"\0") + slots.ljust(34, b"\0") + suffix.ljust(4, b"\0") + b",\0\0\0"


@functools.cache
def _tables():
    """The word tables of _float_cells, built on the first write: by 4-digit
    group (digit, NUL, ...) with each group's trailing zeros, by lead digit +
    10 * sign, by the last digit kept (a mask of the later digits), and by
    exponent row and last digit kept (_frame)."""
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    frames = (_frame(x, p, keep) for x, p in zip(_EXPONENTS.tolist(), _POINT_AFTER.tolist()) for keep in range(17))
    return (
        _words(np.stack([digits, 0 * digits], axis=2).astype(np.uint8), 8),
        np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1).sum(axis=1, dtype=np.uint8),
        _words(b"".join(bytes([45 * sign, 0, 0, 0, 0, 0, 48 + d, 0]) for sign in (0, 1) for d in range(10)), 8),
        _words(b"".join(bytes(255 * (i % 2 == 0 and i // 2 < keep) for i in range(32)) for keep in range(17)), 32),
        _words(b"".join(frames), _CELL),
    )


def _scaled_digits(mant, shift, k):
    """round-half-even(mant * 5**k / 2**shift) for 53-bit mant, k in [1, 27]
    and shift in [1, 62]: the product, below 2**116, is hi * 2**64 + lo, its
    32-bit limb products each below 2**64."""
    m0, m1 = mant & 0xFFFFFFFF, mant >> 32
    power = np.take(_POW5, k)
    p0, p1 = power & 0xFFFFFFFF, power >> 32
    mid = m1 * p0 + m0 * p1  # below 2**53 + 2**63
    low = m0 * p0
    lo = low + (mid << 32)  # wraps modulo 2**64; the carry goes to hi
    hi = m1 * p1 + (mid >> 32) + (lo < low)
    scale = np.left_shift(1, 64 - shift, dtype=np.uint64)
    digits = hi * scale + (lo >> shift)  # the quotient is below 2**64, so hi loses only 0 bits
    rest = lo * scale  # the bits shifted out, at the top of a word
    return digits + ((rest | (digits & 1)) > 2**63)  # up above a half, or at a half when odd


def _decimal(magnitude):
    """For magnitudes in (1e-11, 2**50), the 17 digits of '%.17g' and the
    exponent row of E, with magnitude about digits * 10**(E - 16): the lead
    digit, the words and trailing zeros of the four 4-digit groups after it,
    and E - _MIN_EXP."""
    bits = magnitude.view(np.uint64)
    mant, exp = (bits & (2**52 - 1)) | 2**52, (bits >> 52).astype(np.int64) - 1075
    e10 = np.clip(np.floor(np.log10(magnitude)).astype(np.int64), _MIN_EXP, _MAX_EXP)

    def digits_at(index, e):
        return _scaled_digits(mant[index], (e - 16 - exp[index]).astype(np.uint64), 16 - e)

    digits = digits_at(slice(None), e10)
    # the exponent is the smallest whose digits are below 10**17: log10 low
    # or a rounding carry move it up, and digits of at most 10**16 (log10
    # high, or a power of ten) move it down unless the lower exponent's reach 10**17
    up = np.flatnonzero(digits >= 10**17)
    if up.size:
        e10[up] += 1
        digits[up] = digits_at(up, e10[up])
    down = np.flatnonzero(digits <= 10**16)
    down = down[e10[down] > _MIN_EXP]
    if down.size:
        lower = digits_at(down, e10[down] - 1)
        down, lower = down[lower < 10**17], lower[lower < 10**17]
        e10[down] -= 1
        digits[down] = lower

    high = digits // 10**8
    lead = high // 10**8
    halves = np.stack([high - lead * 10**8, digits - high * 10**8])
    quarters = halves // 10**4
    groups = np.stack([quarters, halves - quarters * 10**4], axis=1).reshape(4, -1)
    group_words, group_zeros = _tables()[:2]
    return lead, np.take(group_words, groups), np.take(group_zeros, groups), e10 - _MIN_EXP


def _float_cells(values: np.ndarray) -> np.ndarray:
    """An (m, _CELL) uint8 array: the '%.17g' text of each of the m float64
    values in the slots of a cell, and ","."""
    magnitude = np.abs(values)
    exact = (magnitude > 1e-11) & (magnitude < 2.0**50)
    zero = magnitude == 0
    np.copyto(magnitude, 1.0, where=~exact)  # a zero is formatted as 1, then its digit set to 0
    lead, words, zeros, row = _decimal(magnitude)
    trailing = zeros[3]
    for j, full in ((2, 4), (1, 8), (0, 12)):
        trailing = trailing + (trailing == full) * zeros[j]
    keep = np.maximum(16 - trailing, np.take(_POINT_AFTER, row))  # the last digit written
    # word j of every cell in row j, so that each operation is contiguous
    lead_words, mask_words, frame_words = _tables()[2:]
    cells = np.take(frame_words, row * 17 + keep, axis=1)
    cells[0] |= np.take(lead_words, lead * ~zero + (values.view(np.uint64) >> 63) * 10)
    words &= np.take(mask_words, keep, axis=1)
    cells[1:5] |= words
    cells = cells.T.copy().view(np.uint8)
    other = np.flatnonzero(~(exact | zero))
    if other.size:
        texts = [(_FLOAT % v).encode() for v in values[other].tolist()]
        cells[other, :_TEXT] = np.array(texts, dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    return cells


def _write_rows(path, header, blocks) -> None:
    """Write the header, then the rows of each block in turn, a block being a
    list of columns: its row k is the k-th value of each column as '%.17g'
    text (so an integer below 2**50 as %d), or the column itself where it is
    a str. Formatted about _WRITE_CELLS cells at a time."""
    with open_output(path) as handle:
        handle.write(",".join(header) + "\n")
        for columns in blocks:
            columns = [c if isinstance(c, str) else np.asarray(c, dtype=float) for c in columns]
            n = min(len(c) for c in columns if not isinstance(c, str))
            step = max(1, _WRITE_CELLS // len(columns))
            for start in range(0, n, step):
                count = min(step, n - start)
                stop = start + count
                values = np.stack([np.zeros(count) if isinstance(c, str) else c[start:stop] for c in columns], 1)
                cells = _float_cells(values.reshape(-1)).reshape(count, len(columns), _CELL)
                for j, text in enumerate(columns):
                    if isinstance(text, str):
                        cells[:, j, :_TEXT] = np.frombuffer(text.encode().ljust(_TEXT, b"\0"), np.uint8)
                cells[:, -1, _TEXT] = ord("\n")
                handle.write(cells.tobytes().translate(None, b"\0").decode("ascii"))


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset with columns x1..xq then y, its features computed
    from the design (Dataset) _BLOCK_ROWS samples at a time."""
    header = [f"x{j + 1}" for j in range(dataset.q)] + [LABEL_COLUMN]
    _write_rows(path, header, ([*(block[1:] * block[0]), block[0]] for block in dataset._blocks()))


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


def write_predictions_csv(theta: ModelParams, source, path) -> int:
    """Copy the CSV at source to path with a "predicted" column of theta's labels and
    return their count. source is read once, in full before path opens (it may name
    source), then parsed a block at a time, keeping each record's label alone. A
    non-finite decision value is a DataError naming its row among non-blank records."""
    with open_input(source, binary=True) as handle:
        data = handle.read()
        header, blocks = _csv_blocks(Path(source), io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        labels, done = [], 0
        for _labels, features in blocks:
            if features.shape[1] != theta.q:
                raise DataError(f"{source}: model expects {theta.q} features, file has {features.shape[1]}")
            try:
                labels.append(_predictions(theta, features, done + 1).astype(np.int8))
            except ValueError as err:
                raise DataError(f"{source}: {err}") from None
            done += len(features)
    _write_labelled_copy(data, header, np.concatenate(labels), path)
    return done


def _write_labelled_copy(data: bytes, header: list[str], labels, path) -> None:
    """Write the header's cells and "predicted" to path, then each non-blank record
    of the CSV bytes data with its text, ",<label>" (labels: one -1 or 1 each, in
    order) and an LF ending. A file of ASCII lines with no quote, CR or blank line
    is copied as bytes in blocks of _WRITE_CELLS * _CELL bytes; any other is
    decoded as it goes, record by record through _csv_records."""
    negative = np.asarray(labels) < 0
    plain = data.isascii() and not any(mark in data for mark in (b'"', b"\r", b"\n\n")) and data[:1] != b"\n"
    if not plain:
        records = _csv_records(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        next(records)  # the header record
    with open_output(path) as out:
        csv.writer(out, lineterminator="\n").writerow(header + ["predicted"])
        if plain:
            _copy_labelled_lines(data, negative, out)
        else:
            suffixes, negative = (",1\n", ",-1\n"), negative.tolist()
            for start in range(0, len(negative), _BLOCK_ROWS):
                block = itertools.islice(records, _BLOCK_ROWS)
                ends = map(suffixes.__getitem__, negative[start : start + _BLOCK_ROWS])
                out.write("".join(map(str.__add__, block, ends)))


def _copy_labelled_lines(data: bytes, negative: np.ndarray, out) -> None:
    """Write the lines of data after the first to out, line k with ",1" or
    ",-1" (as negative[k]) before its newline; a last line without one gains
    it. A block may cut a line anywhere, as the insertions sit at newlines."""
    body = np.frombuffer(data, np.uint8)[data.find(b"\n") + 1 or len(data) :]
    step, done = _WRITE_CELLS * _CELL, 0
    for start in range(0, body.size, step):
        chunk = body[start : start + step]
        ends = np.flatnonzero(chunk == ord("\n"))
        sign = negative[done : done + ends.size]
        done += ends.size
        sizes = 2 + sign  # the bytes of ",1" or ",-1"
        first = np.cumsum(sizes) - sizes
        values = np.full(sizes.sum(), ord("1"), np.uint8)
        values[first] = ord(",")
        values[first[sign] + 1] = ord("-")
        out.write(np.insert(chunk, np.repeat(ends, sizes), values).tobytes().decode("ascii"))
    if body.size and body[-1] != ord("\n"):
        out.write(",-1\n" if negative[done] else ",1\n")


def _polar_normals(rng: np.random.Generator):
    """Standard normals via the Marsaglia polar transform, yielded as one flat
    array per batch of _WRITE_CELLS uniform pairs.

    Uniform doubles are consumed strictly in pairs (u, v) from the stream;
    pairs with u^2 + v^2 outside (0, 1) are rejected; accepted pairs yield two
    normals each, in stream order. The normals therefore depend only on the
    generator stream, not on the batch size, which bounds the memory the
    transform needs.
    """
    pairs = np.empty((_WRITE_CELLS, 2))
    while True:
        rng.random(out=pairs)
        pairs *= 2.0
        pairs -= 1.0
        a, b = pairs.T
        s = a * a + b * b
        keep = (s > 0.0) & (s < 1.0)
        s = s[keep]  # contiguous: numpy may round log and sqrt otherwise on strided data
        factor = np.sqrt(-2.0 * np.log(s) / s)
        yield (pairs[keep] * factor[:, None]).reshape(-1)


def generate_gaussian_mixture(n: int, mean_neg=(-1.0, -1.0), mean_pos=(1.0, 1.0), seed: int = 0) -> Dataset:
    """Two balanced spherical-Gaussian classes: the first n/2 samples carry
    label -1 around mean_neg, the rest label +1 around mean_pos.

    Deterministic given the seed: normals come from a PCG64 stream through
    the polar transform, filled row-major (sample by sample, coordinate by
    coordinate). They are staged about _WRITE_CELLS at a time in a row-major
    buffer, a batch's normals that do not fit carried to the next stage, and
    each stage (normal + mean) goes with its labels to the Dataset, which
    checks it and writes it into its design, so the output is never held twice.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n!r}")
    mean_neg = np.asarray(mean_neg, dtype=float).ravel()
    mean_pos = np.asarray(mean_pos, dtype=float).ravel()
    if mean_neg.shape != mean_pos.shape:
        raise ValueError("class means must have equal length")
    if not (np.isfinite(mean_neg).all() and np.isfinite(mean_pos).all()):
        raise ValueError("class means must be finite")
    q, half = mean_neg.shape[0], n // 2
    normals = _polar_normals(np.random.Generator(np.random.PCG64(seed)))
    stage = np.empty((max(1, _WRITE_CELLS // q), q))

    def blocks():
        left = np.empty(0)  # normals drawn and not yet staged
        for start in range(0, n, len(stage)):
            block = stage[: n - start]
            while left.size < block.size:
                left = np.concatenate((left, next(normals)))
            block.reshape(-1)[:] = left[: block.size]
            left = left[block.size :]
            negative = max(0, half - start)  # the block's rows of the first class
            block[:negative] += mean_neg
            block[negative:] += mean_pos
            yield np.where(np.arange(len(block)) < negative, -1.0, 1.0), block

    return Dataset._filled(n, q, blocks())


def _model_keys(q: int) -> list[str]:
    """The keys of a model file with q features, in the order they are written."""
    head = ["format", "loss", "penalty", "lambda", "mu", "epsilon", "alpha"]
    tail = ["iterations_run", "terminal_exact_risk", "terminal_smoothed_risk"]
    return head + [f"beta_{j + 1}" for j in range(q)] + tail


def write_model(result: FitResult, spec: RiskSpec, path) -> None:
    """Persist a fitted model as "key = value" lines, one per _model_keys
    entry: the names as text, the numbers as '%.17g' (so iterations_run as %d)."""
    theta, terminal = result.theta, [result.exact_risk_trajectory[-1], result.smoothed_risk_trajectory[-1]]
    numbers = [spec.lam, spec.mu, spec.epsilon, theta.alpha, *theta.beta, result.iterations_run, *terminal]
    values = [MODEL_FORMAT, spec.loss.value, spec.penalty.value, *(_FLOAT % number for number in numbers)]
    with open_output(path) as handle:
        handle.writelines(f"{key} = {value}\n" for key, value in zip(_model_keys(theta.q), values, strict=True))


def read_model(path) -> tuple[ModelParams, RiskSpec]:
    """Read a model file back: its keys must be _model_keys(q) for some
    q >= 1, in any order, iterations_run a non-negative integer and every
    value after format, loss and penalty a number."""
    path = Path(path)
    with open_input(path) as handle:
        text = handle.read()
    scalar_keys = _model_keys(0)
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
        if key not in scalar_keys and not key.startswith("beta_"):
            raise DataError(f"{path}: unknown key '{key}'")
        entries[key] = value

    missing = set(scalar_keys) - entries.keys()
    if missing:
        raise DataError(f"{path}: missing keys {sorted(missing)}")
    if entries["format"] != MODEL_FORMAT:
        raise DataError(f"{path}: format {entries['format']!r} not supported (expected {MODEL_FORMAT!r})")

    beta_keys = sorted(k for k in entries if k.startswith("beta_"))
    keys = _model_keys(len(beta_keys))
    if not beta_keys or entries.keys() != set(keys):
        raise DataError(f"{path}: beta entries must be beta_1..beta_q, got {beta_keys}")

    def number(key):
        if key == "iterations_run" and not entries[key].isdecimal():
            raise DataError(f"{path}: value for '{key}' is not a non-negative integer")
        try:
            return float(entries[key])
        except ValueError:
            raise DataError(f"{path}: value for '{key}' is not numeric") from None

    lam, mu, epsilon, alpha, *beta, _iterations, _exact, _smoothed = map(number, keys[3:])
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
    _write_rows(path, _TRAJECTORY_HEADER, [[np.arange(len(exact)), exact, smoothed]])


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a trajectory file: (iterations, exact risks, smoothed risks).
    The iteration column must count 0, 1, ..., n - 1 over the non-blank rows."""
    with open_input(path) as handle:
        header, blocks = _csv_blocks(Path(path), handle)
        values = np.concatenate([features for _labels, features in blocks])
    if header != _TRAJECTORY_HEADER:
        raise DataError(f"{path}: unexpected trajectory header {header}")
    iterations = np.arange(len(values))
    bad = np.flatnonzero(values[:, 0] != iterations)
    if bad.size:
        k = bad[0]
        raise DataError(f"{path}: iteration at non-blank row {k + 1} is {values[k, 0]}, expected {k}")
    return iterations, values[:, 1], values[:, 2]
