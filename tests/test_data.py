import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semisom import (NO_CLASS, DataFormatError, Dataset, apply_norm, data,
                     kfold_split, load_arff, load_csv, mask_labels, normalize)
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
    "1,a\n2\x1c,b\n",  # a character numpy skips and float() refuses
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


ARFF_CLASSES = ["a", "b", "c d", "e"]
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
                    + ("{a,b,'c d',\"e\"}" if name == class_name
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
        rows += rarely(draw, st.sampled_from([[""], ["% note"], ["  "]]),
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
    """Mostly ``plain``: a file with a single oddity reaches the C reader."""
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
