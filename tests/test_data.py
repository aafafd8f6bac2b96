import importlib.util
import math
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semisom import (NO_CLASS, DataFormatError, Dataset, _kernel, apply_norm,
                     data, kfold_split, load_arff, load_csv, mask_labels,
                     normalize)
from semisom.data import _arff_directive
from helpers import reference_load_arff, reference_load_csv

ARFF_OK = """\
% golden fixture
@RELATION tiny

@ATTRIBUTE width NUMERIC
@ATTRIBUTE height real
@ATTRIBUTE class {small,large}

@DATA
1.0,2.0,small
3.5,4.0,large
% trailing comment
5.0,6.5,small
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- ARFF --------------------------------------------------------------------

def test_arff_golden_fixture(tmp_path):
    ds = load_arff(write(tmp_path, "tiny.arff", ARFF_OK))
    assert ds.dim == 2 and len(ds) == 3
    assert ds.dim_names == ("width", "height")
    assert ds.class_names == ("small", "large")
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.patterns[1] == pytest.approx([3.5, 4.0])


def test_arff_keywords_are_case_insensitive(tmp_path):
    text = ARFF_OK.replace("@RELATION", "@relation").replace(
        "@ATTRIBUTE", "@attribute").replace("@DATA", "@data")
    ds = load_arff(write(tmp_path, "case.arff", text))
    assert len(ds) == 3


def test_arff_quoted_attribute_names_may_hold_spaces(tmp_path):
    text = """@relation glass
@attribute 'RI index' numeric
@attribute "Na %" real
@attribute 'Type' {'build wind float',headlamps}
@data
1.52,13.6,'build wind float'
1.51,14.1,headlamps
"""
    ds = load_arff(write(tmp_path, "quoted.arff", text))
    assert ds.dim_names == ("RI index", "Na %")
    assert ds.class_names == ("build wind float", "headlamps")
    assert np.array_equal(ds.labels, [0, 1])


def test_arff_class_attribute_found_by_name_not_position(tmp_path):
    text = """@relation t
@attribute Class {a,b}
@attribute f numeric
@data
a,1.5
b,2.5
"""
    ds = load_arff(write(tmp_path, "front.arff", text))
    assert ds.dim == 1 and ds.class_names == ("a", "b")
    assert np.array_equal(ds.labels, [0, 1])


def test_arff_only_class_attribute_is_error(tmp_path):
    text = "@relation t\n@attribute class {a,b}\n@data\na\n"
    with pytest.raises(DataFormatError):
        load_arff(write(tmp_path, "solo.arff", text))


def test_arff_numeric_last_attribute_means_no_class(tmp_path):
    text = "@relation t\n@attribute f numeric\n@attribute g numeric\n@data\n1,2\n"
    with pytest.raises(DataFormatError):
        load_arff(write(tmp_path, "noclass.arff", text))


def test_arff_unknown_nominal_value_reports_line(tmp_path):
    text = ARFF_OK + "7.0,8.0,medium\n"
    with pytest.raises(DataFormatError, match=":13"):
        load_arff(write(tmp_path, "bad.arff", text))


def test_arff_extra_nominal_feature_is_error(tmp_path):
    text = """@relation t
@attribute f numeric
@attribute color {red,blue}
@attribute class {a,b}
@data
1,red,a
"""
    with pytest.raises(DataFormatError, match="color"):
        load_arff(write(tmp_path, "nom.arff", text))


def test_arff_wrong_field_count_reports_line(tmp_path):
    text = ARFF_OK + "1.0,small\n"
    with pytest.raises(DataFormatError, match=":13"):
        load_arff(write(tmp_path, "ragged.arff", text))


def test_arff_non_numeric_value_is_error(tmp_path):
    text = ARFF_OK.replace("3.5", "wide")
    with pytest.raises(DataFormatError, match="wide"):
        load_arff(write(tmp_path, "nan.arff", text))


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_arff_non_finite_value_reports_line(tmp_path, token):
    text = ARFF_OK + f"7.0,{token},large\n"
    with pytest.raises(DataFormatError, match=r":13: non-finite .*'height'"):
        load_arff(write(tmp_path, "nan.arff", text))


def arff_outcome(load, path):
    """What an ARFF loader makes of a file: the data, bit for bit, or its
    error."""
    try:
        ds = load(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return ("ok", ds.patterns.shape, ds.patterns.tobytes(), ds.labels.tolist(),
            ds.class_names, ds.dim_names)


ARFF_HEAD = "@relation t\n@attribute f1 numeric\n@attribute class {a,b}\n@data\n"


@pytest.mark.parametrize("body", [
    '1,a\n"2\n",b\n',  # one quoted field over two lines
    "1,a\n2\x1c,b\n",  # a control character float() refuses
    "1,a\n2,'b\n",
    "1,a\n2_0,b,\n",
    "1,a\n1e309,b\n",
])
def test_arff_fallback_names_the_bad_line(tmp_path, body):
    path = write_bytes(tmp_path, "t.arff", ARFF_HEAD + body)
    with pytest.raises(DataFormatError, match="t.arff:6: "):
        load_arff(path)
    assert arff_outcome(load_arff, path) == arff_outcome(reference_load_arff,
                                                         path)


ARFF_CLASSES = ["a", "b", "c d", "e", '"f,g"']
ODD_ARFF_CLASSES = [" a ", "'c d'", '"e"', "'b'", '"c d"', '" a"', '"a,b"',
                    "'a", "z", "", '"g""h"', '"a"b', "A"]


@st.composite
def arff_files(draw):
    """ARFF text around the spellings and layouts the two readers differ on."""
    n_features = draw(st.integers(1, 3))
    names = [f"f{i}" for i in range(n_features)]
    class_name = draw(st.sampled_from(["class", "Class", "label"]))
    at = (draw(st.integers(0, n_features)) if class_name != "label"
          else n_features)
    names.insert(at, class_name)
    head = ["% generated", "@relation gen"]
    for name in names:
        head.append(f"@attribute {name} "
                    + ("{a,b,'c d',\"e\",'f,g'}" if name == class_name
                       else draw(st.sampled_from(["numeric", "REAL"]))))
    head.append(draw(st.sampled_from(["@data", "@DATA"])))
    number = st.one_of(st.integers(-9, 9).map(str),
                       st.floats(allow_nan=False,
                                 allow_infinity=False).map(repr))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [rarely(draw, st.sampled_from(ODD_ARFF_CLASSES),
                         st.sampled_from(ARFF_CLASSES))
                  if name == class_name
                  else rarely(draw, st.sampled_from(ODD_NUMBERS) | NON_FINITE,
                              number) for name in names]
        fields = rarely(draw, st.sampled_from([fields[:-1], fields + ["1"]]),
                        st.just(fields))
        rows.append(",".join(fields))
        rows += rarely(draw, st.sampled_from([[""], ["% note"], ["  "],
                                              ["\xa0"], [" %a,1"]]),
                       st.just([]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(head + rows) + end


@settings(max_examples=500, deadline=None)
@given(text=arff_files())
@example(text='@attribute f numeric\n@attribute class {a}\n@data\n"1\n",a\n')
@example(text="@attribute f numeric\n@attribute class {a}\n@data\n\x1c1,a\n")
@example(text="@attribute class {a,b}\n@attribute f numeric\n@data\n"
              "b,1\n 'a' ,2\n")
def test_load_arff_matches_the_row_reference(tmp_path_factory, text):
    path = write_bytes(tmp_path_factory.mktemp("arff"), "gen.arff", text)
    assert arff_outcome(load_arff, path) == arff_outcome(reference_load_arff,
                                                         path)


def test_arff_nominal_values_may_hold_commas_inside_quotes(tmp_path):
    text = ("@relation t\n@attribute f numeric\n"
            "@attribute class {'a,b', c,\"d, e\",'f}\n@data\n1,c\n")
    path = write(tmp_path, "commas.arff", text)
    assert load_arff(path).class_names == ("a,b", "c", "d, e", "'f")
    assert reference_load_arff(path).class_names == ("a,b", "c", "d, e",
                                                     "'f")


def test_arff_row_may_spell_a_class_that_holds_a_comma(tmp_path):
    text = ('@relation t\n@attribute f numeric\n@attribute class {"a,b",c}\n'
            '@data\n1,"a,b"\n2,c\n')
    path = write_bytes(tmp_path, "spelled.arff", text)
    ds = load_arff(path)
    assert ds.class_names == ("a,b", "c") and ds.labels.tolist() == [0, 1]
    assert arff_outcome(load_arff, path) == arff_outcome(reference_load_arff,
                                                         path)


@pytest.mark.parametrize("values, twice", [("a,a", "a"), ("a,b,'b'", "b"),
                                           ("' x',\" x\",y", " x")])
def test_arff_nominal_value_listed_twice_is_error(tmp_path, values, twice):
    text = ("@relation t\n@attribute f numeric\n"
            f"@attribute class {{{values}}}\n@data\n1,y\n")
    path = write(tmp_path, "twice.arff", text)
    message = f"twice.arff:3: nominal value {twice!r} listed twice"
    for load in (load_arff, reference_load_arff):
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load(path)


@pytest.mark.parametrize("first, second, name", [
    ("f1", "f1", "f1"), ("f1", "'f1'", "f1"), ("'f 1'", '"f 1"', "f 1")])
def test_arff_attribute_declared_twice_is_error(tmp_path, first, second,
                                                name):
    """Names compare after unquoting, and exactly."""
    text = (f"@relation t\n@attribute {first} numeric\n"
            f"@attribute {second} numeric\n@attribute class {{a}}\n"
            "@data\n1,2,a\n")
    path = write(tmp_path, "twice.arff", text)
    message = f"twice.arff:3: repeated attribute name {name!r}"
    for load in (load_arff, reference_load_arff):
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load(path)


def test_names_that_differ_only_in_case_are_two(tmp_path):
    arff = write(tmp_path, "case.arff", "@relation t\n@attribute f1 numeric\n"
                 "@attribute F1 numeric\n@attribute class {a}\n@data\n1,2,a\n")
    csv = write(tmp_path, "case.csv", "f1,F1,class\n1,2,a\n")
    assert load_arff(arff).dim_names == ("f1", "F1")
    assert load_csv(csv).dim_names == ("f1", "F1")
    assert arff_outcome(load_arff, arff) == arff_outcome(reference_load_arff,
                                                         arff)
    assert csv_outcome(load_csv, csv) == csv_outcome(reference_load_csv, csv)


ARFF_HEADS = {
    "class-last": "@attribute f numeric\n@attribute class {a,b,%2}\n",
    "class-first": "@attribute class {a,b,%2}\n@attribute f numeric\n",
}


@pytest.mark.parametrize("head, body", [
    ("class-last", "1,a\n% note\n2,b\n"),  # comment lines
    ("class-first", "a,1\n%2,2\n"),  # a comment that spells a class
    ("class-first", "a,1\n %2,2\n\xa0%2,3\n"),
    ("class-last", "1,a\n\n\n2,b\n\r\n"),  # blank lines
    ("class-last", "1,a\n   \n\t\n2,b\n"),  # lines of spaces and tabs
    ("class-last", "1,a\r2,b\r"),  # lone carriage returns
    ("class-first", "a,1\r\nb,2\ra,3\n"),
    ("class-last", "\xa01,a\n2,b\xa0\n"),  # no-break spaces
    ("class-first", "\xa0a,1\xa0\n\xa0 b ,\xa02\xa0\n"),
    ("class-last", "\u20031,a\u2003\n1,a\x1c\n\x1c2,b\n"),
    ("class-last", " 1 , a \n\t2\t,\tb\t\n"),  # padding the scanner reads
    ("class-first", " a , 1 \n\tb\t,\t2\t\n"),
])
def test_arff_body_reads_as_the_line_reader_reads_it(tmp_path, head, body):
    text = "@relation t\n" + ARFF_HEADS[head] + "@data\n" + body
    path = write_bytes(tmp_path, "body.arff", text)
    want = arff_outcome(reference_load_arff, path)
    assert want[0] == "ok", want
    assert arff_outcome(load_arff, path) == want


@pytest.mark.needs_library
def test_clean_arff_body_takes_the_scanner_alone(tmp_path, monkeypatch):
    """The bytes after ``@data`` go to the scanner as they stand, CRLF line
    ends, blank lines and a byte order mark included."""
    text = ("\ufeff% head\r\n@relation t\r\n\r\n@attribute f numeric\r\n"
            "@attribute class {a,'b c'}\r\n@data\r\n1.5,a\r\n\r\n"
            "-2e-3,'b c'\r\n 7 ,\"b c\"")
    path = write_bytes(tmp_path, "clean.arff", text)
    want = arff_outcome(reference_load_arff, path)
    monkeypatch.setattr(data, "_read_rows", _no_row_reader)
    assert arff_outcome(load_arff, path) == want
    assert want[3] == [0, 1, 1]


@pytest.mark.needs_library
@pytest.mark.parametrize("head, body", [
    ("class-last", "% first\n1,a\n% note\r\n2,%2\n%last"),  # and a class
    ("class-first", "a,1\n%2,2\n \t%2,3\r\n\xa0%2,4\nb,5\n"),  # padded
    ("class-first", "%2,1\n%2,2\n\u2003%\n%2,3\r\nb,4\n"),  # runs of them
    ("class-last", "1,a\n2,b\r\n% \xe9t\xe9\n"),  # UTF-8 after the '%'
])
def test_arff_comment_lines_take_the_scanner_alone(tmp_path, monkeypatch,
                                                   head, body):
    """Comment lines in the body, whatever precedes their ``%``, are cut
    out before the scan, and the file reads as the row reference reads it."""
    text = "@relation t\n" + ARFF_HEADS[head] + "@data\n" + body
    path = write_bytes(tmp_path, "comments.arff", text)
    want = arff_outcome(reference_load_arff, path)
    assert want[0] == "ok", want
    monkeypatch.setattr(data, "_read_rows", _no_row_reader)
    assert arff_outcome(load_arff, path) == want


# -- CSV ---------------------------------------------------------------------


def test_csv_with_class_header(tmp_path):
    ds = load_csv(write(tmp_path, "t.csv", "f1,f2,class\n1,2,a\n3,4,b\n"))
    assert ds.dim == 2 and len(ds) == 2
    assert ds.class_names == ("a", "b")
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_without_label_column_is_unlabeled(tmp_path):
    ds = load_csv(write(tmp_path, "t.csv", "f1,f2\n1,2\n3,4\n"))
    assert np.all(ds.labels == NO_CLASS)
    assert ds.class_names == ()


def test_csv_explicit_label_column(tmp_path):
    ds = load_csv(write(tmp_path, "t.csv", "f1,target\n1,x\n2,y\n"),
                  label_column="target")
    assert ds.dim == 1 and ds.class_names == ("x", "y")


def test_csv_missing_label_column_is_error(tmp_path):
    with pytest.raises(DataFormatError):
        load_csv(write(tmp_path, "t.csv", "f1\n1\n"), label_column="target")


@pytest.mark.parametrize("header, name", [("f1,f1,class", "f1"),
                                          ("f1,class,class", "class"),
                                          ('f1," f1",class', "f1")])
def test_csv_column_named_twice_is_error(tmp_path, header, name):
    """Names compare after the ``csv`` unquoting and stripping."""
    path = write(tmp_path, "twice.csv", header + "\n1,2,a\n")
    message = f"twice.csv: repeated column name {name!r}"
    for load in (load_csv, reference_load_csv):
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load(path)


def test_csv_empty_file_is_error(tmp_path):
    with pytest.raises(DataFormatError):
        load_csv(write(tmp_path, "t.csv", ""))


def test_csv_ragged_row_reports_line(tmp_path):
    with pytest.raises(DataFormatError, match=":3"):
        load_csv(write(tmp_path, "t.csv", "f1,f2\n1,2\n3\n"))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_csv_non_finite_value_reports_line(tmp_path, token):
    text = f"a,b,class\n1,2,x\n3,4,y\n5,{token},x\n"
    with pytest.raises(DataFormatError, match=r":4: non-finite .*'b'"):
        load_csv(write(tmp_path, "nan.csv", text))


def test_csv_non_numeric_feature_is_error(tmp_path):
    with pytest.raises(DataFormatError, match="oops"):
        load_csv(write(tmp_path, "t.csv", "f1,f2\n1,oops\n"))


def csv_outcome(load, path, label_column=None):
    """What a loader makes of a file: the data, bit for bit, or its error."""
    try:
        ds = load(path, label_column)
    except DataFormatError as exc:
        return "error", str(exc)
    return ("ok", ds.patterns.shape, ds.patterns.tobytes(), ds.labels.tolist(),
            ds.class_names, ds.dim_names)


def write_bytes(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text, line", [
    ("f1,f2\n1,2\n3,x", 3),
    ("f1,f2\n1,2\n3,x\n", 3),
    ("f1,f2\n\n1,2\n\n\n3,oops\n", 6),
    ("\r\nf1,f2\r\n\r\n1,2\r\n\r\n5,nan\r\n", 6),
    ("f1,class\n1,a\n\n\n2", 5),
    ('f1,class\n1,"x\ny"\noops,a\n', 4),  # a quoted field over two lines
    ('f1,class\n1,"x\ny"\nnan,a\n', 4),
])
def test_csv_fallback_names_the_bad_line(tmp_path, text, line):
    path = write_bytes(tmp_path, "t.csv", text)
    with pytest.raises(DataFormatError, match=f"t.csv:{line}: "):
        load_csv(path)
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv,
                                                      path)


def test_csv_float_spelling_the_c_reader_refuses_still_loads(tmp_path):
    path = write_bytes(tmp_path, "t.csv", "f1,f2,class\n1_0,2,a\n3,4_5.5,b\n")
    with pytest.raises(ValueError):
        data._read_csv_table(path, None)
    ds = load_csv(path)
    assert ds.patterns.tolist() == [[10.0, 2.0], [3.0, 45.5]]
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv,
                                                      path)


def test_csv_table_reader_handles_clean_files_alone(tmp_path):
    text = ('\r\nf1 ,"f,2",class\r\n\r\n 1.5 ,"2"," x,y "\r\n'
            '+.5e-3,-0, z\r\n1e-320,"1e5","x,y"\r\n')
    path = write_bytes(tmp_path, "t.csv", text)
    want = csv_outcome(reference_load_csv, path)
    assert want[0] == "ok" and want[3:] == ([0, 1, 0], ("x,y", "z"),
                                            ("f1", "f,2"))
    assert csv_outcome(data._read_csv_table, path) == want


ODD_NUMBERS = [" 3 ", "+1", ".5", "-0", "+.5e-3", "4.", "1e-320", "1e309",
               "2.2250738585072014e-308", "\t7\t", "\xa01", "\x1c1", "1\x1f",
               "123456789012345678901234567890.123456", "1_0",
               '"8"', '" 9 "', '"1,5"', '"6"x', "0x1", "abc", "", "1e", " "]
PLAIN_CLASSES = ["a", "b", "c", "B", "k1"]
ODD_CLASSES = [" a ", "a ", '"c,d"', '"e f"', '" a"', '"g""h"', "", '"x\ny"',
               "i j", '"b"']


# nan, inf and infinity in any letter case, with or without a sign
NON_FINITE = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["nan", "inf", "infinity"]).flatmap(
        lambda word: st.tuples(*(st.sampled_from([c, c.upper()])
                                 for c in word)).map("".join)),
).map("".join)


def rarely(draw, odd, plain):
    """Mostly ``plain``: a file with a single oddity reaches the scanner."""
    return draw(odd if draw(st.integers(0, 9)) == 0 else plain)


@st.composite
def csv_files(draw):
    """CSV text around the spellings and layouts the two readers differ on."""
    n_features = draw(st.integers(1, 3))
    label = draw(st.sampled_from(["none", "class", "Class", "chosen"]))
    names = [rarely(draw, st.sampled_from([f" f{i} ", f'"f{i}"']),
                    st.just(f"f{i}")) for i in range(n_features)]
    label_column = None
    if label != "none":
        names.insert(draw(st.integers(0, n_features)),
                     "target" if label == "chosen" else label)
        label_column = "target" if label == "chosen" else None
    number = st.one_of(st.integers(-9, 9).map(str),
                       st.floats(allow_nan=False,
                                 allow_infinity=False).map(repr))
    short = len(names) > 1 and draw(st.integers(0, 4)) == 0
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [rarely(draw, st.sampled_from(ODD_CLASSES),
                         st.sampled_from(PLAIN_CLASSES))
                  if name in ("target", "class", "Class")
                  else rarely(draw, st.sampled_from(ODD_NUMBERS) | NON_FINITE,
                              number) for name in names]
        if short:
            fields = fields[:-1]
        else:
            fields = rarely(draw, st.sampled_from([fields[:-1],
                                                   fields + ["1"]]),
                            st.just(fields))
        rows.append(",".join(fields))
    lines = [line for row in [",".join(names)] + rows
             for line in [row] + rarely(draw, st.sampled_from([[""], [" "]]),
                                        st.just([]))]
    lines = rarely(draw, st.sampled_from([[""], ["", ""], ["\t"]]),
                   st.just([])) + lines
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + end, label_column


@settings(max_examples=500, deadline=None)
@given(case=csv_files())
@example(case=("f1,f2\n1,\x1c2\n", None))
@example(case=("f1,f2,f3\n1,2\n3,4\n", None))
@example(case=("f1,class\n1,b\n2,a\n3,b\n", None))
@example(case=("f1,class\r\n\r\n1, b\r\n2,b \r\n3,a\r\n", None))
def test_load_csv_matches_the_row_reference(tmp_path_factory, case):
    text, label_column = case
    path = write_bytes(tmp_path_factory.mktemp("csv"), "gen.csv", text)
    assert (csv_outcome(load_csv, path, label_column)
            == csv_outcome(reference_load_csv, path, label_column))


def test_csv_with_thousands_of_distinct_labels(tmp_path):
    rng = np.random.default_rng(5)
    tags = [f"t{i}" for i in rng.permutation(6000)] + [
        f"t{i}" for i in rng.integers(6000, size=3000)]
    lines = [f"{x!r},{tag}"
             for x, tag in zip(rng.random(len(tags)).tolist(), tags)]
    path = write(tmp_path, "many.csv", "f1,class\n" + "\n".join(lines))
    ds = load_csv(path)
    assert len(ds.class_names) == 6000
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv,
                                                      path)


@pytest.mark.needs_library
def test_csv_label_spellings_are_one_class(tmp_path, monkeypatch):
    """``a``, ``"a"`` and `` a `` are three label fields to the scanner and
    one class to the class rule."""
    path = write(tmp_path, "spell.csv",
                 'f1,class\n1,a\n2,"a"\n3, a \n4,b\n5,"a"\n6,a\n')
    monkeypatch.setattr(data, "_read_rows", _no_row_reader)
    ds = load_csv(path)
    assert ds.class_names == ("a", "b")
    assert ds.labels.tolist() == [0, 0, 0, 1, 0, 0]
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv,
                                                      path)
    raw = path.read_bytes()
    _, codes, fields = _kernel.scan(raw, raw.index(b"\n") + 1, 2, 1)
    assert codes.tolist() == [0, 1, 2, 3, 1, 0]
    assert fields == [b"a", b'"a"', b" a ", b"b"]


@pytest.mark.parametrize("name, text, position", [
    ("l.csv", b"f1,class\n1,a\n2,b\xffc\n", 16),
    ("l.arff", b"@relation r\n@attribute f numeric\n"
               b"@attribute class {a,b}\n@data\n1,a\n2,b\xff\n", 69),
])
def test_label_that_is_not_utf8_names_the_file(tmp_path, name, text,
                                               position):
    path = tmp_path / name
    path.write_bytes(text)
    load = load_csv if name.endswith(".csv") else load_arff
    with pytest.raises(DataFormatError) as error:
        load(path)
    assert str(error.value) == (
        f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        f"position {position}: invalid start byte")
    if _kernel.compiled() is not None:
        start = text.index(b"1,a\n")  # the first record of the body
        with pytest.raises(UnicodeDecodeError):
            data._read_table(text, start, 2, 1, lambda field: 0)


def test_arff_comment_line_that_is_not_utf8_is_refused(tmp_path):
    """The scanner path decodes a comment line whole, as the line path
    does."""
    path = tmp_path / "latin1.arff"
    path.write_bytes(b"@relation r\n@attribute f numeric\n"
                     b"@attribute class {a,b}\n@data\n1,a\n"
                     b"% caf\xe9 latin-1\n2,b\n")
    with pytest.raises(DataFormatError) as error:
        load_arff(path)
    assert str(error.value) == (
        f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
        f"position 71: invalid continuation byte")


BIG_BODY = b"".join(b"0.%d,a\n" % i for i in range(2000))


@pytest.mark.parametrize("name, text", [
    ("big.csv", b"f1,class\n" + BIG_BODY + b"1,b\xff\n"),
    ("big.arff", b"@relation r\n@attribute f numeric\n"
                 b"@attribute class {a,b}\n@data\n" + BIG_BODY + b"1,b\xff\n"),
    # a header fault: the byte that is not UTF-8 is still the first fault
    ("fault.arff", b"@relation r\n@attribute f numeric\n"
                   b"@attribute class {a,b}\n@bogus\n@data\n" + BIG_BODY
                   + b"1,b\xff\n"),
], ids=["csv", "arff", "arff-header-fault"])
def test_not_utf8_past_the_first_8_kb_names_its_offset_in_the_file(
        tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    position = text.index(b"\xff")
    assert position > 8192
    load = load_csv if name.endswith(".csv") else load_arff
    with pytest.raises(DataFormatError) as error:
        load(path)
    assert str(error.value) == (
        f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        f"position {position}: invalid start byte")


def test_arff_header_is_parsed_once_when_the_scanner_refuses_the_body(
        tmp_path, monkeypatch):
    path = write(tmp_path, "once.arff", ARFF_HEAD + "1_0,a\n2,b\n")
    want = arff_outcome(reference_load_arff, path)
    lines = []

    def directive(path, lineno, line, attrs):
        lines.append(lineno)
        return _arff_directive(path, lineno, line, attrs)

    monkeypatch.setattr(data, "_arff_directive", directive)
    assert arff_outcome(load_arff, path) == want
    assert want[0] == "ok" and lines == [1, 2, 3, 4]


# -- byte order mark ---------------------------------------------------------

BOM = "\ufeff"


@pytest.mark.parametrize("body", ["1,x\n2.5,y\n", "1_0,x\n2.5,y\n"],
                         ids=["scanner", "row-reader"])
def test_csv_with_a_byte_order_mark(tmp_path, body):
    """Excel's "CSV UTF-8" starts the file with U+FEFF; it is not part of
    the first column's name, on either reader."""
    path = write(tmp_path, "bom.csv", BOM + "f1,class\n" + body)
    ds = load_csv(path)
    assert ds.dim_names == ("f1",) and ds.class_names == ("x", "y")
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv,
                                                      path)


@pytest.mark.parametrize("text", [ARFF_OK, ARFF_OK.replace("3.5", "3_5")],
                         ids=["scanner", "row-reader"])
def test_arff_with_a_byte_order_mark(tmp_path, text):
    path = write(tmp_path, "bom.arff", BOM + text)
    ds = load_arff(path)
    assert ds.dim_names == ("width", "height") and len(ds) == 3
    assert arff_outcome(load_arff, path) == arff_outcome(reference_load_arff,
                                                         path)


# -- the scanner -------------------------------------------------------------

def scan_token(text: str):
    """The scanner's value of ``text`` as the one field of a record, or
    ``None`` when it refuses it."""
    try:
        values = _kernel.scan(text.encode() + b"\n", 0, 1, None)[0]
    except ValueError:
        return None
    return float(values[0, 0]) if len(values) else None


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def assert_reads_as_float(text: str) -> None:
    got = scan_token(text)
    assert got is not None, f"the scanner refused {text!r}"
    assert float_bits(got) == float_bits(float(text)), text


@pytest.mark.needs_library
@settings(max_examples=1000, deadline=None)
@given(st.text("0123456789.eE+-_xnaif \t", max_size=12))
@example("0.3")
@example("1e")
@example(" -0.0\t")
def test_scanner_reads_a_token_as_float_does_or_refuses_it(text):
    got = scan_token(text)
    if got is not None:
        assert float_bits(got) == float_bits(float(text)), text


@pytest.mark.needs_library
@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 20))
@example(0.3, 0)
@example(-0.0, 0)
@example(5e-324, 17)
@example(2.2250738585072014e-308, 20)
@example(1.7976931348623157e308, 3)
# above 2^53, this mantissa rounds once to a double and again in the divide
@example(0.12088995980580641, 1)
def test_scanner_reads_every_spelling_of_a_finite_float(x, p):
    """``repr`` and the ``e`` and ``g`` formats at every precision; those
    that round past the largest double are not finite and refused."""
    for text in (repr(x), format(x, f".{p}e"), format(x, f".{p}g")):
        if math.isfinite(float(text)):
            assert_reads_as_float(text)
        else:
            assert scan_token(text) is None


@pytest.mark.needs_library
@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 30 + 1, 10 ** 30 - 1))
def test_scanner_reads_integers_of_up_to_30_digits(n):
    assert_reads_as_float(str(n))


@st.composite
def midpoints(draw):
    """An exact midpoint between two adjacent doubles, as ``(n, e)`` with
    value ``n * 10**e`` and ``n`` free of trailing zeros: ``o * 2**f`` for
    an odd ``o`` of 54 bits. ``o`` is drawn as a multiple of ``5**k``, so
    that ``n`` is short for every ``k``: those are the midpoints that the
    long-mantissa path (Eisel-Lemire) meets."""
    k = draw(st.integers(0, 23))
    low, high = 2 ** 53 // 5 ** k + 1, (2 ** 54 - 1) // 5 ** k
    j = draw(st.integers(low, high))
    if j % 2 == 0:
        j += 1 if j < high else -1
    o, f = j * 5 ** k, draw(st.integers(-4, 3 * k + 9))
    if f < 0:
        return o * 5 ** -f, f
    n, e = o << f, 0
    while n % 10 == 0:
        n, e = n // 10, e + 1
    return n, e


@st.composite
def wide_decimals(draw):
    """Decimals of 16 to 19 significant digits, with exponents from -23 to
    23 (the edges of the long-mantissa path drawn often), most of their
    mantissas above 2**53; or midpoints and their neighbours one unit away
    in the last digit. The point is put anywhere in the digits."""
    if draw(st.booleans()):
        digits = draw(st.integers(16, 19))
        n = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
        e = draw(st.sampled_from([-23, -22, -21, 21, 22, 23])
                 | st.integers(-23, 23))
    else:
        n, e = draw(midpoints())
        n += draw(st.sampled_from([-1, 0, 1]))
    digits = str(n)
    cut = draw(st.integers(0, len(digits)))
    e += len(digits) - cut
    sign = draw(st.sampled_from(["", "-", "+"]))
    return f"{sign}{digits[:cut]}.{digits[cut:]}e{e}"


@pytest.mark.needs_library
@settings(max_examples=1000, deadline=None)
@given(wide_decimals())
# exponents at and past the edges of the long-mantissa path
@example("1234567890123456789e-21")
@example("1234567890123456789e-22")
@example("1234567890123456789e-23")
@example("1234567890123456789e19")
@example("1234567890123456789e20")
@example("1234567890123456789e22")
@example("1234567890123456789e23")
@example("9999999999999999999e-21")
@example("9999999999999999999e-22")
@example("9999999999999999999e19")
@example("9999999999999999999e22")
# the first mantissa above 2**53: a tie, which rounds down to even
@example("9007199254740993")
@example("9007199254740993e-21")
@example("9007199254740993e19")
# ties that round up to even
@example("9007199254740995")
@example("4503599627370496.5")
@example("4503599627370497.5")
# just above a tie in the dropped bits: these round up
@example("5269035566698195805e-21")
@example("4226010351029896654e-20")
@example("9733964066433964946e-19")
# 20 significant digits: past the long-mantissa path
@example("12345678901234567890")
@example("99999999999999999999")
def test_scanner_reads_wide_mantissas_as_float_does(text):
    assert_reads_as_float(text)


@pytest.mark.builds("ubsan", "ubsan-no-int128",
                    ids=["int128", "no-int128"])
def test_scanner_draws_make_no_undefined_behaviour(capfd):
    """The scanner's draws on the sanitizing builds, which report on stderr:
    the long-mantissa path stays defined with a 128-bit integer type and
    without it (with 32-bit products), and reads as float() does."""
    test_scanner_reads_wide_mantissas_as_float_does()
    test_scanner_reads_every_spelling_of_a_finite_float()
    test_scanner_reads_a_token_as_float_does_or_refuses_it()
    assert "runtime error:" not in capfd.readouterr().err


@pytest.mark.needs_library
@pytest.mark.parametrize("text", ["4.", ".5", "+.5e-3", "1e-400", "-1e-400",
                                  "0e999", "00012.50", " 7\t", "1E+22",
                                  "9007199254740993", "1e23"])
def test_scanner_reads_the_spellings_of_its_grammar(text):
    assert_reads_as_float(text)


@pytest.mark.needs_library
@pytest.mark.parametrize("text", ["1e309", "-1e309", "0x1p3", "1_0", "inf",
                                  "nan", "", " ", "1e", "1e+", ".", "+",
                                  "1.2.3", "--1", "1 2", "e5", "\xa01"])
def test_scanner_refuses_what_is_outside_its_grammar(text):
    assert scan_token(text) is None


@pytest.mark.needs_library
@pytest.mark.parametrize("digits", ["12345678", "1234567812345678",
                                    "0.12345678", ".1234567812345678",
                                    "12345678.12345678", "-1234567812345678"])
def test_scanner_reads_runs_of_eight_digits_to_a_closing_quote(
        tmp_path, monkeypatch, digits):
    """Runs that fill whole 8-byte loads up to the field's end: a closing
    quote, a comma, or the end of the text."""
    text = f'class,f1,f2\na,"{digits}",{digits}\n"{digits}","{digits}",{digits}'
    path = write(tmp_path, "runs.csv", text)
    want = csv_outcome(reference_load_csv, path)
    monkeypatch.setattr(data, "_read_rows", _no_row_reader)
    assert csv_outcome(load_csv, path) == want
    assert want[2] == np.full((2, 2), float(digits)).tobytes()


def test_scanner_power_table_is_the_exact_one(capsys):
    """The table of powers of ten of ``_kernel.c`` is the one
    ``scripts/pow10_table.py`` derives from exact integers and checks."""
    script = Path(__file__).parents[1] / "scripts" / "pow10_table.py"
    runpy.run_path(str(script), run_name="__main__")
    table = capsys.readouterr().out
    assert table.startswith("static const uint64_t POW10_128[][2] = {")
    assert table.count("\n") == 46
    assert table.rstrip("\n") in _kernel._SOURCE.read_text()


@pytest.mark.parametrize("start, label", [(-1, None), (3, None), (0, 1),
                                          (0, -1)])
def test_scan_checks_its_arguments_before_the_c_code(start, label):
    with pytest.raises(IndexError):
        _kernel.scan(b"1\n", start, 1, label)


def perfbench_inputs():
    """``perfbench/inputs.py``, which writes the benchmark's data files."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# How a clean file may be laid out: as written, with CRLF line ends, with
# every field quoted, or with every field padded by spaces and tabs.
LAYOUTS = {
    "plain": lambda line: line,
    "crlf": lambda line: line + "\r",
    "quoted": lambda line: ",".join(f'"{f}"' for f in line.split(",")),
    "padded": lambda line: ",".join(f" {f}\t" for f in line.split(",")),
}


def lay_out(path: Path, layout: str) -> None:
    """Rewrite the data lines of ``path`` (those after the CSV header or
    ``@data``) in ``layout``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    first = (lines.index("@data") if path.suffix == ".arff" else 0) + 1
    lines[first:] = [LAYOUTS[layout](line) if line else line
                     for line in lines[first:]]
    path.write_text("\n".join(lines), encoding="utf-8")


def _no_row_reader(*args):
    raise AssertionError("a clean file reached the row reader")


@pytest.mark.needs_library
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("writer", ["perfbench", "golden"])
@pytest.mark.parametrize("suffix", [".csv", ".arff"])
def test_clean_files_take_the_scanner_alone(tmp_path, monkeypatch, suffix,
                                            writer, layout):
    """Files as the benchmark and the golden tests write them, ``repr``
    floats of every magnitude, load through the table readers without a
    fallback, an ARFF body as the bytes after ``@data``, and bit for bit
    as the row reference loads them."""
    rng = np.random.default_rng(7)
    patterns = rng.uniform(0.0, 1.0, size=(40, 5))
    patterns[:, 1] = rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30,
                                                                      40)
    patterns[:4, 2] = [5e-324, -0.0, 1.7976931348623157e308, 1e22]
    labels = rng.integers(3, size=40)
    names = ["k0", "k1", "k2"]
    path = tmp_path / ("data" + suffix)
    if writer == "golden":
        from test_golden import _write_table
        _write_table(path, patterns, [names[c] for c in labels])
    elif suffix == ".arff":
        perfbench_inputs().write_arff(path, patterns, labels, names)
    else:
        perfbench_inputs().write_csv(path, patterns,
                                     [names[c] for c in labels])
    lay_out(path, layout)
    monkeypatch.setattr(data, "_read_rows", _no_row_reader)
    load, reference = ((load_csv, reference_load_csv) if suffix == ".csv"
                       else (load_arff, reference_load_arff))
    got, want = load(path), reference(path)
    assert np.array_equal(got.patterns.view(np.uint64),
                          want.patterns.view(np.uint64))
    assert np.array_equal(got.patterns.view(np.uint64),
                          patterns.view(np.uint64))
    assert got.labels.tolist() == want.labels.tolist()
    assert (got.class_names, got.dim_names) == (want.class_names,
                                                want.dim_names)


# -- normalization -----------------------------------------------------------

def make_ds(patterns, labels=None):
    patterns = np.asarray(patterns, dtype=float)
    if labels is None:
        labels = np.zeros(len(patterns), dtype=int)
    return Dataset(patterns, labels, ("a",),
                   tuple(f"f{i}" for i in range(patterns.shape[1])))


def test_normalize_scales_columns():
    ds = normalize(make_ds([[0.0], [5.0], [10.0]]))
    assert np.array_equal(ds.patterns[:, 0], [0.0, 0.5, 1.0])
    assert ds.norm_stats.mins[0] == 0.0 and ds.norm_stats.maxs[0] == 10.0


def test_normalize_constant_column_is_half():
    ds = normalize(make_ds([[7.0, 1.0], [7.0, 3.0]]))
    assert np.array_equal(ds.patterns[:, 0], [0.5, 0.5])


def test_apply_norm_clamps_out_of_range():
    ds = normalize(make_ds([[0.0], [10.0]]))
    out = apply_norm(ds.norm_stats, np.array([[-5.0], [15.0], [2.5]]))
    assert np.array_equal(out[:, 0], [0.0, 1.0, 0.25])


def test_apply_norm_divides_by_a_subnormal_range_without_warning():
    """A probe outside a subnormal range overflows the division to inf,
    which the clamp turns into 1."""
    stats = data.NormStats(mins=np.array([0.0]), maxs=np.array([5e-324]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_norm(stats, np.array([[1.0], [0.0]]))
    assert out.tolist() == [[1.0], [0.0]]


def test_apply_norm_refuses_rows_of_another_width():
    stats = data.NormStats(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match=r"shape \(2, 1\) .* 3 dimensions"):
        apply_norm(stats, [[0.5], [0.2]])


def test_apply_norm_refuses_complex_values():
    stats = data.NormStats(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="patterns holds complex values"):
        apply_norm(stats, [[0.1 + 2j, 0.2]])


@settings(max_examples=100, deadline=None)
@given(
    train=arrays(float, (4, 2), elements=st.floats(-50, 50)),
    probe=arrays(float, (3, 2), elements=st.floats(-500, 500)),
)
def test_apply_norm_always_lands_in_unit_box(train, probe):
    stats = normalize(make_ds(train)).norm_stats
    out = apply_norm(stats, probe)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=100, deadline=None)
@given(arrays(float, (5, 3), elements=st.floats(-100, 100)))
def test_normalize_is_idempotent(patterns):
    once = normalize(make_ds(patterns))
    twice = normalize(once)
    assert np.allclose(once.patterns, twice.patterns, atol=1e-12)
    assert np.all(once.patterns >= 0.0) and np.all(once.patterns <= 1.0)


# -- masking -----------------------------------------------------------------

def labeled_ds(n, classes=3):
    rng = np.random.default_rng(0)
    return Dataset(rng.random((n, 2)), rng.integers(0, classes, n),
                   tuple(f"c{i}" for i in range(classes)), ("f0", "f1"))


def test_mask_full_fraction_keeps_everything():
    ds = labeled_ds(30)
    assert np.array_equal(mask_labels(ds, 1.0, seed=1).labels, ds.labels)


def test_mask_zero_fraction_hides_everything():
    assert np.all(mask_labels(labeled_ds(30), 0.0, seed=1).labels == NO_CLASS)


def test_mask_count_is_rounded_fraction():
    ds = labeled_ds(300)
    masked = mask_labels(ds, 0.01, seed=7)
    assert int((masked.labels != NO_CLASS).sum()) == 3


def test_mask_keeps_at_least_one_label_for_positive_fraction():
    masked = mask_labels(labeled_ds(10), 0.001, seed=3)
    assert int((masked.labels != NO_CLASS).sum()) == 1


def test_mask_preserves_patterns_and_kept_labels():
    ds = labeled_ds(50)
    masked = mask_labels(ds, 0.4, seed=11)
    assert masked.patterns is ds.patterns or np.array_equal(masked.patterns,
                                                            ds.patterns)
    kept = masked.labels != NO_CLASS
    assert np.array_equal(masked.labels[kept], ds.labels[kept])


def test_mask_rejects_bad_fraction_and_partial_labels():
    ds = labeled_ds(10)
    with pytest.raises(ValueError):
        mask_labels(ds, 1.5, seed=0)
    partial = mask_labels(ds, 0.5, seed=0)
    with pytest.raises(ValueError):
        mask_labels(partial, 0.5, seed=0)


# -- folds -------------------------------------------------------------------

def test_kfold_three_by_three_yields_nine_pairs():
    plan = kfold_split(labeled_ds(30), repeats=3, k=3, seed=1)
    assert len(list(plan.iter_folds())) == 9


def test_kfold_sizes_differ_by_at_most_one():
    plan = kfold_split(labeled_ds(10), repeats=1, k=3, seed=2)
    sizes = sorted(len(plan.test_indices(0, f)) for f in range(3))
    assert sizes == [3, 3, 4]


def test_kfold_test_folds_partition_the_dataset():
    plan = kfold_split(labeled_ds(25), repeats=3, k=4, seed=5)
    for repeat in range(3):
        seen = np.concatenate([plan.test_indices(repeat, f)
                               for f in range(4)])
        assert sorted(seen.tolist()) == list(range(25))
        for f in range(4):
            test = set(plan.test_indices(repeat, f).tolist())
            train = set(plan.train_indices(repeat, f).tolist())
            assert not (test & train)
            assert len(test | train) == 25


def test_kfold_too_few_patterns_errors():
    with pytest.raises(ValueError):
        kfold_split(labeled_ds(2), repeats=1, k=3, seed=0)


def test_dataset_refuses_complex_patterns():
    with pytest.raises(ValueError, match="patterns holds complex values"):
        Dataset([[0.1 + 2j, 0.2]], [0], ("a",), ("f0", "f1"))


def test_dataset_refuses_a_fractional_label():
    with pytest.raises(ValueError,
                       match=r"pattern 1: label 1.7 is not an integer"):
        Dataset(np.zeros((2, 2)), [0, 1.7], ("a", "b"), ("f0", "f1"))


@pytest.mark.parametrize("labels, message", [
    pytest.param([5, 5, 5], r"pattern 0 has label 5, outside \[-1, 2\)",
                 id="past-the-classes"),
    pytest.param([0, -7, 1], r"pattern 1 has label -7, outside \[-1, 2\)",
                 id="below-no-class"),
])
def test_dataset_refuses_labels_outside_the_classes(labels, message):
    """Such a dataset would train a map whose model file ``load_model``
    refuses."""
    with pytest.raises(ValueError, match=message):
        Dataset(np.zeros((3, 2)), labels, ("a", "b"), ("f0", "f1"))


def test_normalize_scales_a_range_wider_than_the_largest_float():
    """``1e308 - (-1e308)`` overflows; the column is scaled by halves, and
    a column whose range fits keeps its bytes."""
    patterns = np.array([[1e308, 0.25], [-1e308, 0.5], [0.0, 0.75]])
    ds = Dataset(patterns, np.full(3, NO_CLASS), (), ("a", "b"))
    out = normalize(ds).patterns
    assert out[:, 0].tolist() == [1.0, 0.0, 0.5]
    assert np.array_equal(out[:, 1], (patterns[:, 1] - 0.25) / 0.5)


@pytest.mark.parametrize("name, text", [
    ("d.csv", "a,b,class\n0.1,0.2,x\n0.3,0.\xff4,y\n"),
    ("d.arff", ARFF_OK.replace("3.5", "3.\xff5")),
])
def test_loaders_name_a_file_that_is_not_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    load = load_csv if name.endswith(".csv") else load_arff
    with pytest.raises(DataFormatError, match=f"{path}: not UTF-8"):
        load(path)


@pytest.mark.parametrize("repeats, k", [(1, 1), (1, 0), (0, 2), (-1, 2)])
def test_kfold_split_rejects_fewer_than_two_folds_or_one_repeat(repeats, k):
    with pytest.raises(ValueError, match="must be >= "):
        kfold_split(labeled_ds(10), repeats=repeats, k=k, seed=0)
