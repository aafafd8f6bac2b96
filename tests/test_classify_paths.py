"""The classify tests of ``test_inference.py`` on the other two block
passes: the numpy twin ``inference._classify_block``, which maps bind when
no library builds, and ``som_classify`` with its baseline clone alone."""

import pytest

from semisom import SomMap, _kernel
from test_inference import (  # noqa: F401  (collected here once per pass)
    test_classify_batch_is_exact,
    test_classify_batch_is_exact_on_a_trained_map,
    test_classify_batch_sees_an_overflowing_term_of_zero_relevance,
    test_exact_ties_go_to_the_lowest_index,
    test_unlabeled_winner_falls_back_to_labeled_above_threshold)

pytestmark = pytest.mark.builds("numpy", "default-only")


def test_maps_bind_the_named_pass():
    som = SomMap(1, 1)
    if _kernel.compiled() is None:
        assert som._view is None and som._classify is None
    else:
        assert som._classify.args[0] is _kernel.compiled()
