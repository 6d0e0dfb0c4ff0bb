"""The block CSV reader and predict writer against the row-by-row reference in
csv_reference.py: the same arrays, or the same DataError message, for the
same file; the same rows written back by predict. Each property runs twice:
with the reader's block size, where these files are one block, and with
blocks of two rows, where most span several and many are rejected late."""

import csv

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import csv_reference as ref
from irlsvm import DataError, load_dataset_csv
from irlsvm import data_io
from irlsvm.data_io import _csv_blocks, _write_labelled_copy, open_input

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite.map(repr),
    finite.map(lambda v: format(v, ".17g")),
    finite.map(lambda v: format(v, ".3e")),
    st.integers(-(10**6), 10**6).map(str),
)
odd_cells = st.sampled_from(["nan", "inf", "-inf", "NaN", "", "1#2", "#", "abc", "1e999", "1_0", "0x1"])
good_labels = st.sampled_from(["1", "-1", "+1", "1.0", "-1.0", "1e0"])
odd_labels = st.sampled_from(["0", "2", "nan", "", "y", "1#"])


@st.composite
def cells(draw, values, odd_values, odd):
    """A cell, one time in eight drawn from odd_values when odd is set, with
    optional surrounding blanks, optionally quoted, possibly holding a line
    break inside the quotes or a blank outside them."""
    text = draw(odd_values if odd and draw(st.integers(0, 7)) == 0 else values)
    pad = st.sampled_from(["", " ", "\t"])
    text = draw(pad) + text + draw(pad)
    if draw(st.booleans()):
        text = '"' + draw(st.sampled_from(["", "", "\n"])) + text + '"'
        text = draw(st.sampled_from(["", "", " "])) + text + draw(st.sampled_from(["", "", " "]))
    return text


@st.composite
def csv_texts(draw):
    odd = draw(st.booleans())
    q = draw(st.integers(1, 3))
    label_at = draw(st.integers(0, q))
    names = [f"x{j + 1}" for j in range(q)]
    names.insert(label_at, "y")
    pad = st.sampled_from(["", " "])
    lines = [",".join(draw(pad) + name + draw(pad) for name in names)]
    feature, label = cells(numbers, odd_cells, odd), cells(good_labels, odd_labels, odd)
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(feature) for _ in range(q)]
        row.insert(label_at, draw(label))
        if odd and draw(st.integers(0, 15)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


# cases that random files reach only rarely
EXAMPLES = [
    "x1,y\n5,1#\n6,-1\n",
    "y,x1\n1,5#2\n-1,6\n",
    "x1,y\n5,0\n6,-1\n",
    'x1,x2,y\r\n"\n5", 2 ,+1\r\n6,7,"-1.0"\r\n',
    "x1,y\r5,1\r6,-1\r",
]


def _with_examples(test):
    for text in EXAMPLES:
        test = example(text=text)(test)
    return test


def _outcome(load, path):
    try:
        return load(path)
    except DataError as err:
        return str(err)


def _load_features(path):
    """The unlabeled read of predict and the trajectory reader: header, features, labels."""
    with open_input(path) as handle:
        header, blocks = _csv_blocks(path, handle, labeled=False)
        blocks = list(blocks)
    assert all(labels is None for labels, _ in blocks)
    return header, np.concatenate([features for _, features in blocks]), None


def _property(check):
    """A hypothesis test of check(tmp_path, text) over csv_texts and EXAMPLES."""
    return SETTINGS(_with_examples(given(text=csv_texts())(check)))


def _check_dataset_loader(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected, got = _outcome(ref.load_dataset_csv, path), _outcome(load_dataset_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_array_equal(got.features, expected.features)
        assert_array_equal(got.labels, expected.labels)


def _check_feature_loader_and_predict_writer(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected, got = _outcome(ref.load_feature_rows_csv, path), _outcome(_load_features, path)
    if isinstance(expected, str):
        assert got == expected
        return
    header, rows, features = expected
    got_header, got_features, got_labels = got
    assert got_header == header and got_labels is None
    assert_array_equal(got_features, features)

    labels = np.where(np.arange(len(rows)) % 3 == 0, 1.0, -1.0)
    ref.write_predictions(header, rows, labels, tmp_path / "expected.csv")
    _write_labelled_copy(path.read_bytes(), header, labels, tmp_path / "got.csv")
    expected_bytes, got_bytes = (tmp_path / "expected.csv").read_bytes(), (tmp_path / "got.csv").read_bytes()
    if '"' not in text and "\r" not in text:
        assert got_bytes == expected_bytes
    with (tmp_path / "got.csv").open(newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [header + ["predicted"]] + [row + [str(int(v))] for row, v in zip(rows, labels)]


@_property
def test_dataset_loader_matches_reference(tmp_path, text):
    _check_dataset_loader(tmp_path, text)


@_property
def test_feature_loader_and_predict_writer_match_reference(tmp_path, text):
    _check_feature_loader_and_predict_writer(tmp_path, text)


@_property
def test_dataset_loader_matches_reference_in_blocks_of_two_rows(tmp_path, monkeypatch, text):
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", 2)
    _check_dataset_loader(tmp_path, text)


@_property
def test_feature_loader_and_predict_writer_match_reference_in_blocks_of_two_rows(tmp_path, monkeypatch, text):
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", 2)
    _check_feature_loader_and_predict_writer(tmp_path, text)
