"""Build and load the compiled presentation kernels of ``_kernel.c``.

The C source is compiled once with the system C compiler into a shared
library whose name carries a hash of the source, the compiler, the flags
and the platform, so an edited source or another machine never picks up a
stale build. The library goes to the package's ``__pycache__`` directory,
or to ``~/.cache/semisom`` when that one is read-only. It is loaded
with ``ctypes.PyDLL``, which keeps the interpreter lock held during a call.

When no library can be built or loaded, ``compiled()`` returns ``None``
and ``bind`` returns no kernels; each map then chooses, once, the numpy
kernels of ``model.py``, which take the same arguments and return codes.
The results are the same bit for bit either way.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
# No -ffast-math or -march=native: both allow contracting a multiply and an
# add into one rounding, or reordering a sum, and the results would drift
# from numpy's.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)

_SIZE = ctypes.c_ssize_t
_PTR = ctypes.c_void_p


class View(ctypes.Structure):
    """Addresses of one map's storage, as ``struct som_view`` in the C file."""

    _fields_ = [("m", _SIZE), ("eps", ctypes.c_double),
                ("centers", _PTR), ("rel", _PTR), ("dist", _PTR),
                ("sums", _PTR), ("acts", _PTR), ("x", _PTR), ("work", _PTR),
                ("lr", _PTR), ("idx", _PTR)]


def _cache_dirs() -> list[Path]:
    return [Path(__file__).with_name("__pycache__"),
            Path.home() / ".cache" / "semisom"]


def _build(compiler: str, target: Path) -> None:
    """Compile to a temporary file beside ``target``, then rename it.

    The rename is atomic, so processes building at the same time never load
    a half-written library.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE), *_LIBS],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(compiler: str = "cc"):
    """Build (once) and load the kernels; ``None`` if either step fails."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(b"\0".join([
        source, compiler.encode(), " ".join(_FLAGS + _LIBS).encode(),
        sysconfig.get_platform().encode(),
    ])).hexdigest()[:16]
    name = f"_kernel-{key}{sysconfig.get_config_var('SHLIB_SUFFIX') or '.so'}"
    for directory in _cache_dirs():
        path = directory / name
        try:
            if not path.exists():
                _build(compiler, path)
            lib = ctypes.PyDLL(str(path))
        except (OSError, subprocess.SubprocessError):
            continue
        lib.som_winner.argtypes = (_PTR, _SIZE)
        lib.som_winner.restype = _SIZE
        lib.som_update.argtypes = (_PTR, _SIZE, _SIZE, _SIZE, ctypes.c_double,
                                   ctypes.c_double)
        lib.som_update.restype = ctypes.c_int
        return lib
    return None


@functools.cache
def compiled():
    """The process's kernel library, loaded on first use, or ``None``."""
    return load()


def bind(m: int, eps: float, **arrays: np.ndarray):
    """The compiled kernels bound to one map's arrays.

    ``arrays`` names every pointer field of ``View``. Returns the view and
    the callables ``winner(n)``, which returns the winner's row, and
    ``update(n, k, lr_step, beta, slope)``, which updates the ``k`` rows
    of ``idx`` one after another and returns -1 (writing nothing) when a
    row lies outside ``[0, n)``, else 0. Returns three ``None`` when no
    library is available; ``SomMap._bind`` then binds the numpy kernels
    instead. The caller keeps the arrays alive and never reallocates them
    while the view is in use.
    """
    lib = compiled()
    if lib is None:
        return None, None, None
    for name, a in arrays.items():
        dtype = np.dtype(np.intp if name == "idx" else np.float64)
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous {dtype} array")
    view = View(m, eps, **{name: a.ctypes.data for name, a in arrays.items()})
    addr = ctypes.addressof(view)
    return (view, functools.partial(lib.som_winner, addr),
            functools.partial(lib.som_update, addr))
