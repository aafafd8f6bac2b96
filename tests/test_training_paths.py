"""The step-rule tests of ``test_training.py`` on the numpy training loop
``_train_numpy``, which maps bind when no library builds."""

import pytest

from semisom import SomMap
from semisom.model import _train_numpy
from test_training import (  # noqa: F401  (collected here on the twin)
    test_supervised_low_activation_inserts_labeled_node,
    test_supervised_unlabeled_winner_adopts_label_and_rewires,
    test_supervised_wrong_winner_full_map_changes_nothing,
    test_supervised_wrong_winner_no_second_inserts,
    test_supervised_wrong_winner_pushes_and_rewards_second,
    test_unsupervised_full_budget_updates_instead_of_inserting,
    test_unsupervised_high_activation_updates_winner,
    test_unsupervised_low_activation_inserts)

pytestmark = pytest.mark.builds("numpy")


def test_maps_bind_the_numpy_loop():
    assert SomMap(1, 1)._train.func is _train_numpy
