"""The exactness tests of bulk classification, on every block pass.

``test_inference.py`` runs them on the pass the package loads: the compiled
``som_classify``, on its AVX2 clone where the CPU has AVX2. This module runs
the same two tests, unchanged, on the other two passes: the numpy twin
``inference._classify_block``, which maps bind when no library builds, and
``som_classify`` built with its baseline clone alone. The overflow case
of ``test_inference.py`` runs on each pass too.
"""

import pytest

from semisom import SomMap, _kernel
from test_inference import (  # noqa: F401  (collected here once per pass)
    test_classify_batch_is_exact,
    test_classify_batch_is_exact_on_a_trained_map,
    test_classify_batch_sees_an_overflowing_term_of_zero_relevance)
from test_kernel import default_only  # noqa: F401  (fixture)


@pytest.fixture(scope="module", autouse=True,
                params=["numpy", "default-only"])
def block_pass(request, tmp_path_factory):
    """Maps made while it is active bind this pass.

    For ``numpy`` the loader is pointed at a compiler that does not exist,
    so building the library fails as on a machine without one.
    """
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "numpy":
            cache = tmp_path_factory.mktemp("no-compiler")
            mp.setattr(_kernel, "_cache_dirs", lambda: [cache])
            lib = _kernel.load(compiler=str(cache / "no-such-cc"))
            assert lib is None
        else:
            lib = request.getfixturevalue("default_only")
        mp.setattr(_kernel, "compiled", lambda: lib)
        yield request.param


def test_maps_bind_the_named_pass(block_pass):
    som = SomMap(1, 1)
    if block_pass == "numpy":
        assert som._view is None and som._classify is None
    else:
        assert som._classify.args[0] is _kernel.compiled()
