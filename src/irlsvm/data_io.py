"""Dataset CSV ingestion, the seeded two-Gaussian generator, and model /
trajectory persistence: the package's one file boundary. Every file is read as
bytes through open_input and decoded in one place (_text), and written through
open_output, which replaces its path only once the file is written in full, and
inside staged_outputs only once every output of the block is.

File conventions: CSVs are comma-separated UTF-8 with a header row and LF
line endings; the label column is named "y" and holds -1 or 1; a float cell
is exactly Python's '%.17g' % value, so values round-trip bit-for-bit. Model
files are flat "key = value" text documents whose keys _model_keys lists.
Input may begin with a byte-order mark, and its lines may end at an LF, a CRLF
or a lone CR; every CSV read counts them, and the loader sizes a Dataset's
design by them (_line_count). predict opens its input once, parses it, then
copies its records as bytes from the start, a window at a time, with one path
for every line ending (_write_labelled_copy).

Every CSV is parsed by one block reader (_csv_blocks), serially or, where it can
gain, in two processes: a regular file of more lines than one parse block, with
no quote byte and an LF after its middle byte, read where fork works and a second
CPU is usable, is parsed up to that LF here while a forked child parses the rest
through the same descriptor and sends its values back through a pipe as float64
(_split_blocks). The child runs through core's one fork helper (_forked), which
engine's pass worker shares. Both halves' blocks go through the same checks in
sample order, cut as a serial read cuts them, and any failure, the child's or the
fork's included, falls back to the serial read's cell-by-cell scan, so every value
and error is the serial read's.

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

import codecs
import contextlib
import contextvars
import csv
import functools
import io
import math
import numbers
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np

from .core import Dataset, FitResult, Loss, ModelParams, Penalty, RiskSpec, _predictions, _rows_within
from .core import _forked, _received, _second_cpu, _sent

MODEL_FORMAT = "irlsvm-model/1"
LABEL_COLUMN = "y"
_TRAJECTORY_HEADER = ["iteration", "exact_risk", "smoothed_risk"]

_FLOAT = "%.17g"
# cells formatted per write, and normal pairs drawn per batch; bounds the memory a large file needs
_WRITE_CELLS = 1 << 13


class DataError(ValueError):
    """File-level problem: missing/malformed content, bad labels, bad cells."""


@contextlib.contextmanager
def open_input(path):
    """Open path for reading bytes (a pipe's read in full, as the CSV readers read theirs twice);
    an OSError, text that is not UTF-8 or a csv.Error (a cell over csv's field size limit) while
    opening or reading it becomes a DataError naming Path(path), as the readers' own errors do."""
    try:
        with Path(path).open("rb") as handle:
            yield handle if handle.seekable() else io.BytesIO(handle.read())
    except OSError as err:
        raise DataError(f"{Path(path)}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{Path(path)}: not UTF-8 text ({err.reason})") from err
    except csv.Error as err:
        raise DataError(f"{Path(path)}: unreadable CSV ({err})") from err


def _text(handle) -> io.TextIOWrapper:
    """The UTF-8 text on handle, line ends kept, after one leading byte-order mark (also after seek(0))."""
    return io.TextIOWrapper(handle, encoding="utf-8-sig", newline="")


# each path that open_output wrote in the current staged_outputs block, with its temporary file
_STAGED: contextvars.ContextVar[dict[Path, Path] | None] = contextvars.ContextVar("staged", default=None)


@contextlib.contextmanager
def open_output(path):
    """Open for writing bytes a temporary file beside path that replaces path (a symlink or
    read-only file too) when the block ends without error, or inside staged_outputs when that
    block does, and is removed when either raises, so path may name a file the block reads and
    an error or interrupt leaves path as it was. A path that names something other than a
    regular file, such as /dev/null or a pipe, is written in place. An OSError becomes a
    DataError naming path."""
    if _STAGED.get() is None:  # a lone output is staged alone
        with staged_outputs(), open_output(path) as handle:
            yield handle
        return
    path = Path(path)
    in_place = path.exists() and not path.is_file()
    temporary = path if in_place else path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with temporary.open("wb") as handle:
            yield handle
    except BaseException as err:
        if not in_place:
            with contextlib.suppress(OSError):
                temporary.unlink()
        if isinstance(err, OSError):
            raise _write_error(path, err) from err
        raise
    if not in_place:
        _STAGED.get()[path] = temporary


def _write_error(path, err: OSError) -> DataError:
    return DataError(f"{path}: cannot write: {err.strerror or err}")


@contextlib.contextmanager
def staged_outputs():
    """Hold back the replacement of every path that open_output writes in the block (a command's
    outputs) until the block ends without error, then replace them in the order they were written.
    Every temporary file not renamed by then is removed, so a block that raises leaves every path
    as it was. The renames are not one atomic step: an error between two leaves the earlier made."""
    staged: dict[Path, Path] = {}
    token = _STAGED.set(staged)
    try:
        yield
        for path in list(staged):
            try:
                os.replace(staged[path], path)
            except OSError as err:
                raise _write_error(path, err) from err
            del staged[path]
    finally:
        _STAGED.reset(token)
        for temporary in staged.values():
            with contextlib.suppress(OSError):
                temporary.unlink()


@contextlib.contextmanager
def _csv_blocks(path, handle, labeled: bool = False):
    """Read the CSV bytes on handle: a block yielding its header, the count of its lines but the
    header's (at least its records), and a generator of the rows after the header as (labels,
    features) blocks of up to _BLOCK_ROWS rows, fewer where a parsed block would exceed _BLOCK_BYTES
    (core._rows_within); every column but "y" is a feature, and labeled=True requires labels of -1
    or 1 (else they are None). numpy's C reader parses the blocks (_value_blocks), in two processes
    where _halves finds the file worth it (_split_blocks), and every block is checked here in sample
    order. At the first block it rejects, or that fails a check, or that a failed child did not
    send, _scan_rows reads the text from its start to report the bad cell or supply the rest. The
    child, if any, is ended and reaped when the block ends; handle stays open."""
    lines, quoted = _line_count(handle)
    handle.seek(0)
    text = _text(handle)
    try:
        header = [name.strip() for name in next(csv.reader(text))]
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

    rows, width = _rows_within(len(header)), len(header)
    halves = _halves(handle, lines, quoted, rows)

    def blocks(parsed):
        done = 0
        for values in parsed:
            checked = values is not None
            if checked:
                # row-major, as predict_batch's sums depend on the layout and must repeat bit for bit
                features = values.take(feature_idx, axis=1)
                labels = None if label_idx is None else values[:, label_idx].copy()
                del values  # the next block is parsed without it
                checked = np.isfinite(features).all() and (labels is None or np.isin(labels, (-1.0, 1.0)).all())
            if not checked:
                text.seek(0)
                features, labels = _scan_rows(path, text, header, feature_idx, label_idx)
                features, labels = features[done:], None if labels is None else labels[done:]
            yield labels, features
            done += len(features)
            if not checked:
                break
        text.detach()
        if not done:
            raise DataError(f"{path}: no samples")

    if halves is None:
        parse = contextlib.nullcontext(_all_blocks(text, rows, width))
    else:
        parse = _split_blocks(handle.fileno(), *halves, rows, width)
    with parse as parsed:
        yield header, lines - 1, blocks(parsed)


def _value_blocks(text, rows: int, width: int):
    """Parse the rows of text from where it stands with numpy's C reader (comments=None keeps a "#"
    from cutting a row short) into arrays of rows x width values: yield each block of rows rows,
    and return the first of fewer, or None where the reader rejects a block."""
    while True:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty read is a block of no rows
                values = np.loadtxt(text, delimiter=",", comments=None, quotechar='"', ndmin=2, max_rows=rows)
            values = values.reshape(len(values), width)  # another width fails; an empty read is (0, 1)
        except UnicodeDecodeError:  # for open_input to report
            raise
        except ValueError:
            return None
        if len(values) < rows:
            return values
        yield values
        del values  # the next block is parsed without it


def _all_blocks(text, rows: int, width: int):
    """The blocks of _value_blocks, then the one it returns."""
    yield (yield from _value_blocks(text, rows, width))


def _halves(handle, lines: int, quoted: bool, rows: int) -> tuple[int, int] | None:
    """(split, size) where the read of the CSV bytes on handle is parsed in two processes, the
    parent's up to the LF at split and a child's from it, else None: the bytes are a regular file
    of size bytes (not a pipe's, held in a BytesIO) with more lines than one block of rows, no quote
    (so the LF ends a record and no quoted cell runs across it) and an LF at or after its middle
    byte (split is the first), and a forked child can gain (core._second_cpu)."""
    if quoted or lines <= rows or not _second_cpu():
        return None
    try:
        fd = handle.fileno()
    except io.UnsupportedOperation:
        return None
    info, step = os.fstat(fd), _WRITE_CELLS * _CELL
    if not stat.S_ISREG(info.st_mode):
        return None
    for start in range(info.st_size // 2, info.st_size, step):
        if (found := os.pread(fd, step, start).find(b"\n")) >= 0:
            return start + found, info.st_size
    return None


class _Span(io.RawIOBase):
    """The bytes from start to stop of the file open on the descriptor fd, read with os.pread,
    which leaves the descriptor's offset where it is."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


@contextlib.contextmanager
def _split_blocks(fd: int, split: int, size: int, rows: int, width: int):
    """The value blocks of a CSV file's rows as _value_blocks gives them, parsed in two processes: a
    block yielding the parent's blocks, up to and with the LF at split, then the child's, from that
    LF (a blank line) to size, which a forked child parsed meanwhile (_parse_in_child); they are
    re-cut as a serial read cuts them, so each but the last has rows rows. A block the parent's
    reader rejects ends them as None, and so does a child that failed or was not started (sent no
    rows). The child runs through core._forked, which ends it when the block ends."""
    with _forked(_parse_in_child, fd, split, size, rows, width) as (read_end, _):
        part = _text(io.BufferedReader(_Span(fd, 0, split + 1)))
        next(csv.reader(part))  # the header, which _csv_blocks has read
        yield _joined(part, read_end, rows, width)


def _parse_in_child(fd: int, start: int, stop: int, rows: int, width: int, _receive: int, send: int):
    """The forked child's whole work: parse the bytes of fd from start to stop into blocks
    (_value_blocks), holding them all so that the parent's parse goes on meanwhile, then, if none
    was rejected, write their row count (an int64) and their values (float64, row by row) to send."""
    blocks = list(_all_blocks(_text(io.BufferedReader(_Span(fd, start, stop))), rows, width))
    if blocks[-1] is not None:
        _sent(send, np.array([sum(map(len, blocks))], np.int64), *blocks)


def _joined(part, read_end: int, rows: int, width: int):
    """The parent's value blocks of the text part, then, from its last (of fewer than rows rows) on,
    the child's rows read from read_end a block at a time, in blocks of rows rows but the last; None
    in place of the rest where the parent's reader rejects a block or the pipe ends before the
    child's row count or rows do."""
    values = yield from _value_blocks(part, rows, width)
    count = np.empty(1, np.int64)
    if values is None or not _received(read_end, count):
        yield None
        return
    left = int(count[0])
    while True:
        block = np.empty((min(rows, len(values) + left), width))
        block[: len(values)] = values
        if not _received(read_end, block[len(values) :]):
            yield None
            return
        left -= len(block) - len(values)
        values = block[:0].copy()  # the parent's last rows are not held on
        yield block
        if len(block) < rows:
            return
        del block  # the next block is read without it


def _scan_rows(path: Path, text, header, feature_idx, label_idx) -> tuple[np.ndarray, np.ndarray | None]:
    """Read the rows of text from its start, a cell at a time with Python's float;
    a DataError names the first bad row and column. Returns the values of the few
    files that float accepts and numpy's reader does not, such as "1_000" cells, or
    a non-numeric "y" column that an unlabeled read ignores."""
    reader = csv.reader(text)
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


def _line_count(handle) -> tuple[int, bool]:
    """The lines of the bytes read from handle as csv counts them, each ended by an LF, a CRLF, a lone
    CR or the end of the bytes, and whether a quote is among the bytes; they are read _WRITE_CELLS *
    _CELL at a time into one buffer."""
    buffer = bytearray(_WRITE_CELLS * _CELL)
    chunks, lines, last, quoted = np.frombuffer(buffer, np.uint8), 0, ord("\n"), False
    while size := handle.readinto(buffer):
        chunk = chunks[:size]
        lines += np.count_nonzero(chunk == ord("\n")) - (last == ord("\r") and buffer[0] == ord("\n"))
        if buffer.find(b"\r", 0, size) >= 0:  # a CR ends a line unless an LF follows it
            cr = chunk == ord("\r")
            lines += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (chunk[1:] == ord("\n")))
        quoted = quoted or buffer.find(b'"', 0, size) >= 0
        last = buffer[size - 1]
    return lines + (last not in b"\r\n"), quoted


def load_dataset_csv(path) -> Dataset:
    """Read a labeled dataset; the header must name the label column "y". The file's lines, which
    are at least its records, size the design, and each block is written into it as it comes."""
    with open_input(path) as handle, _csv_blocks(Path(path), handle, labeled=True) as (header, rows, blocks):
        # the blocks have passed the checks Dataset._fill makes, so its errors cannot arise here
        return Dataset._filled(rows, len(header) - 1, blocks)


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
    # in place where an operand is done with, so that few arrays of mant's size are live at once
    m0, m1 = mant & 0xFFFFFFFF, mant >> 32
    low = np.take(_POW5, k)
    hi = low >> 32  # p1
    low &= 0xFFFFFFFF  # p0
    mid = m1 * low
    mid += m0 * hi  # below 2**53 + 2**63
    hi *= m1
    low *= m0
    del m0, m1
    lo = mid << 32
    lo += low  # wraps modulo 2**64; the carry goes to hi
    hi += mid >> 32
    hi += lo < low
    del mid, low
    scale = np.left_shift(1, 64 - shift, dtype=np.uint64)
    digits = hi
    digits *= scale  # the quotient is below 2**64, so hi loses only 0 bits
    digits += lo >> shift
    rest = lo
    rest *= scale  # the bits shifted out, at the top of a word
    del scale
    rest |= digits & 1
    digits += rest > 2**63  # up above a half, or at a half when odd
    return digits


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
    del mant, exp

    digits = digits.view(np.int64)  # below 10**17: signed, so that np.take needs no copy of the groups
    high = digits // 10**8
    lead = high // 10**8
    digits -= high * 10**8  # the last 8 digits
    high -= lead * 10**8  # the 8 after the lead digit
    groups = np.empty((4, len(digits)), np.int64)
    for row, half in ((0, high), (2, digits)):
        np.floor_divide(half, 10**4, out=groups[row])
        np.subtract(half, groups[row] * 10**4, out=groups[row + 1])
    del high, digits
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
    del magnitude
    trailing = zeros[3]
    for j, full in ((2, 4), (1, 8), (0, 12)):
        trailing = trailing + (trailing == full) * zeros[j]
    keep = np.maximum(16 - trailing, np.take(_POINT_AFTER, row))  # the last digit written
    # word j of every cell in row j, so that each operation is contiguous
    lead_words, mask_words, frame_words = _tables()[2:]
    words &= np.take(mask_words, keep, axis=1)
    cells = np.take(frame_words, row * 17 + keep, axis=1)
    del zeros, row, trailing, keep
    cells[0] |= np.take(lead_words, lead * ~zero + np.signbit(values) * 10)
    cells[1:5] |= words
    del lead, words
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
    a str. Formatted about _WRITE_CELLS cells at a time (_row_bytes)."""
    with open_output(path) as handle:
        handle.write(",".join(header).encode() + b"\n")
        for columns in blocks:
            columns = [c if isinstance(c, str) else np.asarray(c, dtype=float) for c in columns]
            n = min(len(c) for c in columns if not isinstance(c, str))
            step = max(1, _WRITE_CELLS // len(columns))
            for start in range(0, n, step):
                handle.write(_row_bytes(columns, start, min(start + step, n)))


def _row_bytes(columns, start: int, stop: int) -> bytes:
    """The text of rows start to stop of _write_rows's columns, as ASCII bytes; each array is
    dropped once the next step is done with it, so a chunk holds about two copies of its cells."""
    values = np.stack([np.zeros(stop - start) if isinstance(c, str) else c[start:stop] for c in columns], 1)
    cells = _float_cells(values.reshape(-1)).reshape(stop - start, len(columns), _CELL)
    del values
    for j, text in enumerate(columns):
        if isinstance(text, str):
            cells[:, j, :_TEXT] = np.frombuffer(text.encode().ljust(_TEXT, b"\0"), np.uint8)
    cells[:, -1, _TEXT] = ord("\n")
    text = cells.tobytes()
    del cells
    return text.translate(None, b"\0")


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset with columns x1..xq then y, its feature rows rebuilt from the
    design a block at a time, at most _BLOCK_BYTES of them (Dataset._feature_blocks)."""
    _write_samples(path, dataset.q, dataset._feature_blocks())


def _write_samples(path, q: int, blocks) -> None:
    """Write the samples of (labels, feature rows) blocks, the blocks Dataset._fill takes
    (b labels and a b x q array), with columns x1..xq then y."""
    header = [f"x{j + 1}" for j in range(q)] + [LABEL_COLUMN]
    _write_rows(path, header, ([*features.T, labels] for labels, features in blocks))


def write_predictions_csv(theta: ModelParams, source, path) -> int:
    """Copy the CSV at source to path with a "predicted" column of theta's labels and
    return their count. source is opened once: its lines are counted, it is parsed a block at a
    time, keeping each record's label alone, then read again from its start by the copy, whose output replaces
    path (which may name source) at the end. A width other than theta's, or a non-finite
    decision value, is a DataError (from core._predictions), the latter naming its row among
    non-blank records."""
    with open_input(source) as handle:
        with _csv_blocks(Path(source), handle) as (header, _rows, blocks):
            labels, done = [], 0
            for _labels, features in blocks:
                try:
                    labels.append(_predictions(theta, features, done + 1).astype(np.int8))
                except ValueError as err:
                    raise DataError(f"{source}: {err}") from None
                done += len(features)
        handle.seek(0)
        _write_labelled_copy(handle, header, np.concatenate(labels), path)
    return done


# the rest of the line holding a byte, then the line ends and blank lines after it
_LINE_REST = re.compile(rb"[^\r\n]*[\r\n]*")


def _write_labelled_copy(source, header: list[str], labels, path) -> None:
    """Write the header's cells and "predicted" to path, then each non-blank record of the
    CSV bytes on the binary handle source after the header (and a byte-order mark before it)
    with ",<label>" (labels: one -1 or 1 each, in order) and an LF ending. A line ends at an
    LF, a CRLF or a lone CR and is a record, unless a quote on it starts a record that
    csv.reader ends on a later line. A record's text is what rstrip("\r\n") leaves. The bytes
    are read and copied in windows of about _WRITE_CELLS * _CELL, so about one window is held."""
    size, labels, done = _WRITE_CELLS * _CELL, np.asarray(labels), 0
    data = source.read(len(codecs.BOM_UTF8))  # the bytes in hand, and where csv.reader reads on
    read = len(data) if data == codecs.BOM_UTF8 else 0

    def lines():  # each line from read on, with the blank lines after it, as csv.reader pulls it
        nonlocal data, read
        while True:
            while (end := _LINE_REST.match(data, read).end()) == len(data) and (more := source.read(size)):
                data += more
            if end == read:
                return
            line, read = data[read:end], end
            yield line.decode()

    records, heading = csv.reader(lines()), io.StringIO()
    next(records)  # the header's, which moves read past it
    csv.writer(heading, lineterminator="\n").writerow(header + ["predicted"])
    with open_output(path) as out:
        out.write(heading.getvalue().encode())
        span = size  # the bytes to hold in hand
        while data := data[read:] + source.read(max(0, span - len(data) + read)):
            # the window ends at the start of the last line whose line ends are all in hand, or at the end of source
            read, text = 0, len(data.rstrip(b"\r\n"))
            stop = len(data) if len(data) < span else max(data.rfind(b"\n", 0, text), data.rfind(b"\r", 0, text)) + 1
            # across: the (first byte, text end) of each record that goes on past its first line
            window, across = np.frombuffer(data, np.uint8, stop), []
            if data.find(b'"', 0, stop) >= 0:
                ends = _line_ends(window)
                starts = np.append(0, np.flatnonzero(ends[:-1] > ends[1:]) + 1)  # each line's first byte
                quoted = np.unique(np.searchsorted(starts, np.flatnonzero(window == ord('"')), "right") - 1)
                del ends
                for begin, after in zip(starts[quoted].tolist(), np.append(starts, stop)[quoted + 1].tolist()):
                    if begin >= read:  # the line starts a record, which csv.reader reads to its end
                        read = begin
                        next(records)
                        if read > after:
                            across.append((begin, begin + len(data[begin:read].rstrip(b"\r\n"))))
            if not stop or read > stop:  # no such line in hand, or a record goes on past it: read on
                read, span = 0, len(data) + size
                continue
            span, done, read = size, done + _write_records(out, window, across, labels[done:]), stop


def _line_ends(window: np.ndarray) -> np.ndarray:
    """A mask of the LF and CR bytes of window."""
    return (window == ord("\n")) | (window == ord("\r"))


def _write_records(out, window: np.ndarray, across, labels: np.ndarray) -> int:
    """Write to out each record of window, a text (spanning each (first byte, text end) of across)
    and a run of line-end bytes (none at the end of the source), with the next label; count them.
    Its window-sized arrays are freed on return, before the next window is read."""
    ends = _line_ends(window)
    for begin, end in across:
        ends[begin:end] = False
    edges = np.flatnonzero(ends[1:] != ends[:-1]) + 1
    del ends  # one window-sized mask at a time
    sizes = np.diff(edges, prepend=0, append=[window.size] * 2)
    texts, gaps = sizes[:-1:2], sizes[1::2]
    sign = labels[: texts.size] < 0
    # after its text a record takes its line-end bytes, widened to fit ",1\n" or ",-1\n" over their end
    suffix = 3 + sign
    room = np.maximum(gaps, suffix)
    tails = np.cumsum(texts + room)
    labelled, copied = np.empty(tails[-1], np.uint8), np.ones(tails[-1], bool)
    for back in range(1, 5):  # the widening
        copied[tails[room - gaps >= back] - back] = False
    labelled[copied] = window
    del copied
    labelled[tails - 1], labelled[tails - 2] = ord("\n"), ord("1")
    labelled[tails - 3] = np.where(sign, ord("-"), ord(","))
    labelled[tails[sign] - 4] = ord(",")
    # and line-end bytes that the suffix does not cover are left out
    extra = np.column_stack((tails - room, tails - suffix))[gaps > suffix]
    out.writelines(np.split(labelled, extra.ravel())[::2])
    return texts.size


def _polar_normals(rng: np.random.Generator):
    """Standard normals via the Marsaglia polar transform, yielded as one flat
    array per batch of _WRITE_CELLS uniform pairs.

    Uniform doubles are consumed strictly in pairs (u, v) from the stream;
    pairs with u^2 + v^2 outside (0, 1) are rejected; accepted pairs yield two
    normals each, in stream order. The normals therefore depend only on the
    generator stream, not on the batch size, which bounds the memory the
    transform needs. A batch selects its accepted pairs whole and scales them in place.
    """
    pairs = np.empty((_WRITE_CELLS, 2))
    points, (a, b) = pairs.view(complex).reshape(-1), pairs.T  # a pair is one complex element
    while True:
        rng.random(out=pairs)
        pairs *= 2.0
        pairs -= 1.0
        s = a * a
        s += b * b
        keep = np.flatnonzero((s > 0.0) & (s < 1.0))
        s = s.take(keep)  # contiguous: numpy may round log and sqrt otherwise on strided data
        factor = np.log(s)
        factor *= -2.0
        factor /= s
        accepted = points.take(keep)
        # (u + iv) * f is u*f - v*0 + i(u*0 + v*f): each part rounds as u*f and v*f alone
        accepted *= np.sqrt(factor, out=factor)
        yield accepted.view(float)


# the class means of the benchmark, which simulate draws around
_MEAN_NEG, _MEAN_POS = (-1.0, -1.0), (1.0, 1.0)


def generate_gaussian_mixture(n: int, mean_neg=_MEAN_NEG, mean_pos=_MEAN_POS, seed: int = 0) -> Dataset:
    """Two balanced spherical-Gaussian classes: the first n/2 samples carry
    label -1 around mean_neg, the rest label +1 around mean_pos.

    Deterministic given the seed: normals come from a PCG64 stream through
    the polar transform, filled row-major (sample by sample, coordinate by
    coordinate). Each of _mixture_blocks' blocks goes with its labels to the
    Dataset, which checks it and writes it into its design, so the output is
    never held twice.
    """
    return Dataset._filled(n, *_mixture_blocks(n, mean_neg, mean_pos, seed))


def _mixture_blocks(n: int, mean_neg=_MEAN_NEG, mean_pos=_MEAN_POS, seed: int = 0):
    """q and a generator of generate_gaussian_mixture's samples, with its defaults, as (labels, feature
    rows) blocks; the arguments are checked first. Each block is about _WRITE_CELLS of the normals
    drawn, row-major, a batch's normals beyond it carried to the next block, with the means added in
    place: an array of its own, which no later block overwrites."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    mean_neg = np.asarray(mean_neg, dtype=float).ravel()
    mean_pos = np.asarray(mean_pos, dtype=float).ravel()
    if mean_neg.shape != mean_pos.shape or not mean_neg.size:
        raise ValueError("class means must be non-empty and of equal length")
    if not (np.isfinite(mean_neg).all() and np.isfinite(mean_pos).all()):
        raise ValueError("class means must be finite")
    q, half = mean_neg.shape[0], n // 2
    normals = _polar_normals(np.random.Generator(np.random.PCG64(seed)))
    step = max(1, _WRITE_CELLS // q)

    def blocks():
        left = np.empty(0)  # normals drawn and not yet in a block
        for start in range(0, n, step):
            size = min(step, n - start) * q
            while left.size < size:
                left = np.concatenate((left, next(normals)))
            block, left = left[:size].reshape(-1, q), left[size:]
            negative = max(0, half - start)  # the block's rows of the first class
            block[:negative] += mean_neg
            block[negative:] += mean_pos
            yield np.where(np.arange(len(block)) < negative, -1.0, 1.0), block

    return q, blocks()


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
        handle.writelines(f"{key} = {value}\n".encode() for key, value in zip(_model_keys(theta.q), values, strict=True))


def read_model(path) -> tuple[ModelParams, RiskSpec]:
    """Read a model file back: its keys must be _model_keys(q) for some
    q >= 1, in any order, iterations_run a non-negative integer and every
    value after format, loss and penalty a number."""
    path = Path(path)
    with open_input(path) as handle, _text(handle) as lines:
        text = lines.read()
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
    with open_input(path) as handle, _csv_blocks(Path(path), handle) as (header, _rows, blocks):
        values = np.concatenate([features for _labels, features in blocks])
    if header != _TRAJECTORY_HEADER:
        raise DataError(f"{path}: unexpected trajectory header {header}")
    iterations = np.arange(len(values))
    bad = np.flatnonzero(values[:, 0] != iterations)
    if bad.size:
        k = bad[0]
        raise DataError(f"{path}: iteration at non-blank row {k + 1} is {values[k, 0]}, expected {k}")
    return iterations, values[:, 1], values[:, 2]
