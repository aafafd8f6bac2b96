"""The step-rule tests of ``test_training.py`` on the numpy training loop.

``test_training.py`` runs them on the loop the package loads, the compiled
``som_train``. This module runs the same tests, unchanged, on its numpy
twin ``_train_numpy``, which maps bind when no library builds.
"""

import pytest

from semisom import SomMap, _kernel
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


@pytest.fixture(scope="module", autouse=True)
def numpy_loop(tmp_path_factory):
    """Maps made while it is active bind the numpy twin: the loader is
    pointed at a compiler that does not exist, so building the library
    fails as on a machine without one."""
    with pytest.MonkeyPatch.context() as mp:
        cache = tmp_path_factory.mktemp("no-compiler")
        mp.setattr(_kernel, "_cache_dirs", lambda: [cache])
        lib = _kernel.load(compiler=str(cache / "no-such-cc"))
        assert lib is None
        mp.setattr(_kernel, "compiled", lambda: lib)
        yield


def test_maps_bind_the_numpy_loop():
    assert SomMap(1, 1)._train.func is _train_numpy
