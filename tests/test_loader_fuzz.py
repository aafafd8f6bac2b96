"""Mutated CSV, ARFF and params files at the loaders and at ``semisom train``.

Each file starts valid and takes a few byte edits: a byte replaced,
inserted or deleted, drawn from the bytes the formats give a meaning to
and from any byte at all. A loader must read the result or raise
``DataFormatError``: any other exception, a bare ``ValueError`` included,
fails. A CSV or ARFF file it reads must give the data set the row-by-row
reference of ``helpers.py`` gives, bit for bit, so a misread byte fails
too, and a file it refuses the reference must refuse. ``semisom train``
must exit 0 or 2 (data error), and on a params file also 1, the
parameter-error code, when a value lies outside its domain, which it
names as ``HyperParams.validate`` does.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semisom import DataFormatError, load_arff, load_csv
from semisom.cli import _read_params_file, main
from helpers import reference_load_arff, reference_load_csv

CSV = b"x,y,class\n0.1,0.2,a\n0.8,0.9,b\n0.15,0.25,a\n0.85,0.8,b\n"
ARFF = (b"% four points\n@relation r\n@attribute x numeric\n"
        b"@attribute 'y y' real\n@attribute class {a,b}\n@data\n"
        b"0.1,0.2,a\n0.8,0.9,b\n% a note\n0.15,0.25,a\n0.85,0.8,b\n")
PARAMS = (b"a_t = 0.9\nlp = 0.01\nbeta = 0.1\nage_wins = 8\ne_b = 0.1\n"
          b"e_w = 0.01\ne_n = 0.005\neps_beta = 0.05\nminwd = 0.25\n"
          b"epochs = 2\nn_max = 4  # all of them\nseed = 3\n")

# bytes with a meaning in one of the formats, and bytes that are not UTF-8
_MEANINGFUL = b"\xff\xc3\xe9\x00\x1c\t\r\n ,\"'%#@={}-+.eE0159naifINF_"


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(_MEANINGFUL),
                              st.integers(0, 255)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@contextlib.contextmanager
def _file(name: str, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        yield path


def _reads_or_refuses(read, name: str, data: bytes, reference=None):
    """``read`` the file ``data``. Given a ``reference``, the two agree:
    both refuse the file, or both read it, and what ``read`` reads equals
    what ``reference`` reads. ``read`` refuses with ``DataFormatError``;
    the reference, which decodes as it reads, refuses a file that is not
    UTF-8 with ``UnicodeDecodeError``."""
    with _file(name, data) as path:
        try:
            ds = read(path)
        except DataFormatError:
            if reference is not None:
                with pytest.raises((DataFormatError, UnicodeDecodeError)):
                    reference(path)
            return
        if reference is not None:
            want = reference(path)
            assert np.array_equal(ds.patterns.view(np.uint64),
                                  want.patterns.view(np.uint64))
            assert ds.labels.tolist() == want.labels.tolist()
            assert ds.class_names == want.class_names
            assert ds.dim_names == want.dim_names


@settings(max_examples=300, deadline=None)
@given(_mutated(CSV))
def test_load_csv_reads_or_refuses_a_mutated_file(data):
    _reads_or_refuses(load_csv, "d.csv", data, reference_load_csv)


@settings(max_examples=300, deadline=None)
@given(_mutated(ARFF))
def test_load_arff_reads_or_refuses_a_mutated_file(data):
    _reads_or_refuses(load_arff, "d.arff", data, reference_load_arff)


@settings(max_examples=300, deadline=None)
@given(_mutated(PARAMS))
def test_params_file_reads_or_refuses_a_mutated_file(data):
    _reads_or_refuses(_read_params_file, "params.txt", data)


def _train(data_path: Path, *args: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", str(data_path), "-o",
                     str(data_path.with_name("m.json")), "--quiet", *args])
    return code, err.getvalue()


_SHORT = ["--epochs", "2", "--age-wins", "8", "--seed", "1"]


@settings(max_examples=100, deadline=None)
@given(_mutated(CSV))
def test_train_on_a_mutated_csv_exits_0_or_2(data):
    with _file("d.csv", data) as path:
        code, err = _train(path, *_SHORT)
    assert code in (0, 2), err


@settings(max_examples=100, deadline=None)
@given(_mutated(ARFF))
def test_train_on_a_mutated_arff_exits_0_or_2(data):
    with _file("d.arff", data) as path:
        code, err = _train(path, *_SHORT)
    assert code in (0, 2), err


@settings(max_examples=100, deadline=None)
@given(_mutated(PARAMS))
def test_train_with_a_mutated_params_file_exits_0_1_or_2(data):
    """Exit 1 only for a value outside its domain. Files that ask for more
    than 10,000 presentations are valid but only long, and left out."""
    with _file("params.txt", data) as params:
        try:
            values = _read_params_file(params)
        except DataFormatError:
            values = {}
        assume(values.get("epochs", 10) * 4 + 2 * values.get("age_wins", 40)
               <= 10_000)
        data_path = params.with_name("d.csv")
        data_path.write_bytes(CSV)
        code, err = _train(data_path, "--params-file", str(params))
    assert code in (0, 2) or (code == 1 and re.match(
        r"error: \w+ must (be|lie)", err)), (code, err)
