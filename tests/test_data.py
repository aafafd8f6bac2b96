import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semisom import (NO_CLASS, DataFormatError, Dataset, apply_norm,
                     kfold_split, load_arff, load_csv, mask_labels, normalize)

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


# -- CSV ---------------------------------------------------------------------

@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_arff_non_finite_value_reports_line(tmp_path, token):
    text = ARFF_OK + f"7.0,{token},large\n"
    with pytest.raises(DataFormatError, match=r":13: non-finite .*'height'"):
        load_arff(write(tmp_path, "nan.arff", text))


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
