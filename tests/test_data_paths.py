"""The loader tests of ``test_data.py`` on the baseline-only build and
with no library, where the table readers refuse every file and the row
readers load it."""

import pytest

from semisom import _kernel, data, load_csv
from test_data import (  # noqa: F401  (collected here on both builds)
    test_arff_body_reads_as_the_line_reader_reads_it,
    test_arff_class_attribute_found_by_name_not_position,
    test_arff_extra_nominal_feature_is_error,
    test_arff_fallback_names_the_bad_line, test_arff_golden_fixture,
    test_arff_keywords_are_case_insensitive,
    test_arff_non_finite_value_reports_line,
    test_arff_nominal_value_listed_twice_is_error,
    test_arff_nominal_values_may_hold_commas_inside_quotes,
    test_arff_non_numeric_value_is_error,
    test_arff_numeric_last_attribute_means_no_class,
    test_arff_only_class_attribute_is_error,
    test_arff_quoted_attribute_names_may_hold_spaces,
    test_arff_row_may_spell_a_class_that_holds_a_comma,
    test_arff_unknown_nominal_value_reports_line,
    test_arff_with_a_byte_order_mark, test_arff_wrong_field_count_reports_line,
    test_clean_files_take_the_scanner_alone, test_csv_empty_file_is_error,
    test_csv_explicit_label_column, test_csv_fallback_names_the_bad_line,
    test_csv_float_spelling_the_c_reader_refuses_still_loads,
    test_csv_missing_label_column_is_error,
    test_csv_non_finite_value_reports_line,
    test_csv_non_numeric_feature_is_error, test_csv_ragged_row_reports_line,
    test_csv_with_a_byte_order_mark, test_csv_with_class_header,
    test_csv_with_thousands_of_distinct_labels,
    test_csv_without_label_column_is_unlabeled,
    test_load_arff_matches_the_row_reference,
    test_label_that_is_not_utf8_names_the_file,
    test_load_csv_matches_the_row_reference,
    test_loaders_name_a_file_that_is_not_utf8,
    test_scanner_reads_a_token_as_float_does_or_refuses_it,
    test_scanner_reads_every_spelling_of_a_finite_float,
    test_scanner_reads_integers_of_up_to_30_digits,
    test_scanner_reads_the_spellings_of_its_grammar,
    test_scanner_reads_wide_mantissas_as_float_does,
    test_scanner_refuses_what_is_outside_its_grammar, write)

pytestmark = pytest.mark.builds("default-only", "no-library")


def test_csv_table_reader_needs_the_library(tmp_path):
    path = write(tmp_path, "t.csv", "f1,class\n1.5,x\n")
    if _kernel.compiled() is None:
        with pytest.raises(ValueError, match="no compiled scanner"):
            data._read_csv_table(path, None)
    else:
        assert data._read_csv_table(path, None).patterns.tolist() == [[1.5]]
    assert load_csv(path).patterns.tolist() == [[1.5]]
