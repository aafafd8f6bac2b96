"""The kernel builds the suite runs on, and the ``builds`` marker.

The package loads ``clones``: ``_kernel.c`` built so that its ``CLONES``
carry an AVX2 body and a baseline one on x86-64. This module alone builds
the others (``BUILDS``) and switches to them.

``@pytest.mark.builds(name, ...)`` on a test or its module runs the test
once per named build, with ``_kernel.compiled`` returning that build's
library for the whole test. The build leads the test's ID (``ids=``
renames it); a marker naming one build keeps the plain name. A test that
wants the build after its other IDs parametrizes ``kernel_build``
indirectly instead, one marked ``needs_library`` leaves out the builds
without a library, and one that compares builds switches with ``build``.
Each library is compiled at most once per session.
"""

from __future__ import annotations

import contextlib
import functools
import tempfile
from pathlib import Path

import pytest

from semisom import _kernel

# The flags each build adds to _kernel._FLAGS. None is no library, as
# without a C compiler: one build under two names, for the map kernels and
# for the file readers and writers. no-int128 makes the 64-bit products of
# the scanner's Eisel-Lemire step, of the formatter and of the predictions
# writer from 32-bit ones.
# asan loads only into a process that preloads libasan, so test_asan.py
# runs it in a child process, and ``library`` refuses it.
BUILDS = {
    "clones": (),
    "default-only": ("-DSOM_DEFAULT_ONLY",),  # the baseline bodies alone
    "no-int128": ("-U__SIZEOF_INT128__",),
    "ubsan": ("-fsanitize=undefined",),
    "ubsan-no-int128": ("-fsanitize=undefined", "-U__SIZEOF_INT128__"),
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
    "numpy": None,
    "no-library": None,
}

_package_library = _kernel.compiled


@functools.cache
def _build_dir() -> tempfile.TemporaryDirectory:
    """Where the other builds are compiled; removed at exit."""
    return tempfile.TemporaryDirectory(prefix="semisom-builds-")


@functools.cache
def _load(flags: tuple[str, ...] | None):
    """The library built with ``flags`` added, by ``_kernel.load``; for
    ``None``, what it returns given a compiler that does not exist."""
    if flags == ():
        return _package_library()
    cache = Path(_build_dir().name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_cache_dirs", lambda: [cache])
        if flags is None:
            lib = _kernel.load(compiler=str(cache / "no-such-cc"))
            assert lib is None
            return None
        mp.setattr(_kernel, "_FLAGS", _kernel._FLAGS + flags)
        return _kernel.load()


def library(name: str):
    """The library of build ``name``. One that does not build or load
    fails the test, but skips it for a ``ubsan`` build or where the package
    has no library."""
    if name == "asan":
        raise ValueError("the asan build loads only under a preloaded "
                         "libasan; test_asan.py runs it in a child process")
    lib = _load(BUILDS[name])
    if BUILDS[name] is None:
        return None
    if lib is None and (_package_library() is None
                        or name.startswith("ubsan")):
        pytest.skip(f"the C compiler cannot build or load the {name} build")
    assert lib is not None, f"the {name} build did not build or load"
    if name == "default-only":
        assert lib._name != _package_library()._name
    return lib


@contextlib.contextmanager
def build(name: str):
    """Maps made inside bind build ``name``, and the loaders and
    ``save_model`` use its library; yields the library."""
    lib = library(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "compiled", lambda: lib)
        yield lib


def _builds(node):
    """The builds and IDs that a test's closest ``builds`` marker names."""
    marker = node.get_closest_marker("builds")
    if marker is None:
        return (), None
    if not marker.args or not set(marker.args) <= set(BUILDS):
        raise ValueError(f"builds{marker.args} must name builds among "
                         f"{', '.join(BUILDS)}")
    return marker.args, marker.kwargs.get("ids")


def pytest_generate_tests(metafunc):
    """Parametrizes ``kernel_build`` ahead of the ``parametrize`` markers;
    a ``needs_library`` test leaves out the builds without a library."""
    names, ids = _builds(metafunc.definition)
    if len(names) > 1:
        if metafunc.definition.get_closest_marker("needs_library"):
            names = [name for name in names if BUILDS[name] is not None]
        metafunc.parametrize("kernel_build", names, indirect=True, ids=ids)


@pytest.fixture(autouse=True)
def kernel_build(request):
    """The build a ``builds`` test runs on, active throughout the test; a
    ``needs_library`` test skips where the package has no library."""
    if (request.node.get_closest_marker("needs_library")
            and _package_library() is None):
        pytest.skip("no C compiler: there is no library")
    names, _ = _builds(request.node)
    name = getattr(request, "param", names[0] if len(names) == 1 else None)
    with build(name) if name else contextlib.nullcontext():
        yield name
