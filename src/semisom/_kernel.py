"""Build and load the compiled kernels of ``_kernel.c``.

The C source is compiled once with the system C compiler into a shared
library whose name carries a hash of the source, the compiler, the flags
and the platform, so an edited source or another machine never picks up a
stale build. The library goes to the package's ``__pycache__`` directory,
or to ``~/.cache/semisom`` when that one is read-only. A build into the
package's own directory removes the libraries of earlier sources there;
the shared one is never pruned, since other checkouts build into it.

The library keeps only long calls, and two small ones the tests compare
with numpy (``som_sum``, ``som_reaches``); it is loaded through one
``ctypes.CDLL`` handle, so every call releases the interpreter lock, and
no call touches a Python object. ``som_train`` runs a whole chunk of a
training run, insertions and pruning sweeps included, so training runs
on several threads at once run in parallel. It runs under its map's
lock, so another thread blocks on the map while it trains, but must not
modify the map's arrays behind the lock's back. ``som_classify``
classifies a block of patterns from the arrays it is passed, so threads
classify in parallel too. ``som_scan`` reads the body of a CSV or ARFF
file (``scan``) into the arrays it is passed. It computes every number of
at most 19 significant digits itself, exactly, when its decimal exponent
lies within -22..22, or within -21..19 for a mantissa above 2**53 (those
need a compiler with a 128-bit integer type). Only the other numbers go
through ``strtod``, which reads the decimal point of the ``LC_NUMERIC``
locale: under a locale whose point is ``,`` those tokens are refused, and
such files are read row by row. That case follows from the code; it is
not tested, since it needs a comma-decimal locale installed.
``som_format`` writes the node vectors of a model file (``format_rows``),
every double as ``float.__repr__`` writes it, from Ryu's shortest
round-trip digits; it reads no locale.

Each training function of ``_kernel.c`` has one numpy mirror in
``model.py`` over the same arrays: ``winner``/``_winner``,
``second_winner``/``_second_winner``, ``update_row``/``_update_numpy``,
``relink``/``_link_numpy``, ``attract``/``_attract_numpy``,
``insert``/``_insert_numpy``, ``sweep``/``_sweep_numpy`` and
``som_train``/``_train_numpy``, line for line. Each per-call method of
``SomMap`` is one of these mirrors run under the map's lock, on either
path.

From 16 dimensions and 32 nodes on, ``som_train`` finds each winner
through a screen (``search``): it keeps a float32 copy of the node rows,
allocated when it starts and freed when it returns, sums each node's
relevance-weighted squared distance in float32, eight nodes at a time, and
computes in double only the nodes whose float sum cannot prove their
activation below a pivot node's (the bound is derived in ``_kernel.c``).
Its winner is ``winner``'s, bit for bit, so ``_winner`` stays the mirror
of both. The activation row holds ``winner``'s values wherever the loop
reads it: the loop completes the row before ``second_winner`` and before
it returns ``INSERT``, and runs ``winner`` for the last draw of each call.
Nothing selects the screen; when its copy cannot be allocated, the loop
runs ``winner`` alone.

When no library can be built or loaded, ``compiled()`` returns
``None``, ``bind`` returns no kernels, and each map binds ``_train_numpy``
instead, with the same counters and return codes and the same results bit
for bit. ``scan`` then raises ``ValueError``, and ``data.py`` reads the
file with its row reader, which gives the same data; ``format_rows``
returns ``None``, and ``persistence`` writes each float with
``float.__repr__``, which gives the same text.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
# No -ffast-math: it allows reordering a sum or fusing a multiply and an
# add into one rounding, and the results would drift from numpy's. No
# -march=native either: the cache key names the platform, not the CPU, so
# such a build could reach an older CPU through a shared cache; the AVX2
# clones of _kernel.c give its speed to the CPUs that have AVX2.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)

_SIZE = ctypes.c_ssize_t
_PTR = ctypes.c_void_p


class View(ctypes.Structure):
    """Addresses of one map's storage, as ``struct som_view`` in the C file."""

    _fields_ = [("m", _SIZE), ("words", _SIZE), ("capacity", _SIZE),
                ("eps", ctypes.c_double),
                ("centers", _PTR), ("rel", _PTR), ("dist", _PTR),
                ("sums", _PTR), ("acts", _PTR), ("wins", _PTR),
                ("labels", _PTR), ("adj", _PTR)]


class Nodes(ctypes.Structure):
    """A batch's node operands for ``som_classify`` (``struct som_nodes``)."""

    _fields_ = [("n", _SIZE), ("m", _SIZE), ("eps", ctypes.c_double),
                ("slack", ctypes.c_double)] + [
        (name, _PTR) for name in ("centers", "rel", "mass", "sq", "sq_floor",
                                  "weight", "labels")]


class Params(ctypes.Structure):
    """The training parameters ``som_train`` reads (``struct som_params``)."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "a_t", "e_b", "e_n", "push_rate", "beta", "slope", "minwd", "lp")] + [
        (name, ctypes.c_int64) for name in (
            "n_max", "age_wins", "allow_insert")]


# The training loop's return codes: every presentation ran, or it stopped
# at a presentation whose insertion needs more storage than the map holds,
# before changing or counting anything of it.
END, INSERT = 0, 1
# The slots of som_train's counter array, used by name: the position in the
# draws, the cycle count (nwins), the presentation count (t), the steps,
# pushes, insertions, removals and sweeps TrainStats adds up under the same
# names, and the node count it returns with.
SLOTS = ("pos", "nwins", "t", "supervised", "unsupervised", "pushes",
         "insertions", "removals", "resets", "n")
# Above any count a run reaches; larger budgets and cycles are clamped to
# it so that they fit a C integer.
NEVER = 2 ** 62

_DTYPES = dict(wins=np.int64, labels=np.int64, adj=np.uint64)

Kernels = collections.namedtuple("Kernels", "view train classify")


def params(hp, allow_insert: bool) -> Params:
    """``Params`` of ``HyperParams`` ``hp``."""
    return Params(hp.a_t, hp.e_b, hp.e_n, hp.push_rate, hp.beta, hp.eps_beta,
                  hp.minwd, hp.lp, min(int(hp.n_max), NEVER),
                  min(int(hp.age_wins), NEVER), allow_insert)


def _cache_dirs() -> list[Path]:
    """Where libraries are built: the package's own directory first."""
    return [Path(__file__).with_name("__pycache__"),
            Path.home() / ".cache" / "semisom"]


def _prune(target: Path) -> None:
    """Remove the ``_kernel-*`` libraries beside ``target`` but itself.

    A process still running an older library keeps its mapping; a build in
    progress is a ``.tmp`` file and stays.
    """
    for old in target.parent.glob("_kernel-*" + target.suffix):
        if old != target:
            try:
                old.unlink()
            except OSError:
                pass


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
    for i, directory in enumerate(_cache_dirs()):
        path = directory / name
        try:
            if not path.exists():
                _build(compiler, path)
                if i == 0:
                    _prune(path)
            lib = ctypes.CDLL(str(path))
        except (OSError, subprocess.SubprocessError):
            continue
        lib.som_train.argtypes = (_PTR, _SIZE, ctypes.POINTER(Params), _PTR,
                                  _PTR, _PTR, _SIZE, _PTR)
        lib.som_train.restype = ctypes.c_int
        lib.som_sum.argtypes = (ctypes.c_int, _PTR, _PTR, _PTR, _SIZE)
        lib.som_sum.restype = ctypes.c_double
        lib.som_classify.argtypes = (_PTR, _SIZE, ctypes.c_double, _PTR, _PTR,
                                     _PTR, _PTR, _PTR, _PTR)
        lib.som_classify.restype = None
        lib.som_reaches.argtypes = (ctypes.c_double,) * 4
        lib.som_reaches.restype = ctypes.c_int
        lib.som_scan.argtypes = (_PTR, _SIZE, _SIZE, _SIZE, _SIZE, _PTR, _PTR)
        lib.som_scan.restype = _SIZE
        lib.som_format.argtypes = (_PTR, _SIZE, _SIZE, _PTR, _PTR)
        lib.som_format.restype = _SIZE
        return lib
    return None


_load_lock = threading.Lock()


@functools.cache
def _library():
    return load()


def compiled():
    """The process's kernel library, loaded on first use, or ``None``.

    The first load runs under a lock, so threads that race to it build the
    library once.
    """
    with _load_lock:
        return _library()


def bind(m: int, eps: float, words: int, capacity: int,
         **arrays: np.ndarray):
    """The compiled kernels bound to one map's arrays, or ``None``.

    ``arrays`` names every pointer field of ``View``, each holding rows for
    ``capacity`` nodes; ``words`` is the length of an adjacency bit row.
    Returns ``Kernels``: the view and the callables

    - ``train(n, params, chunk)``, which runs the presentations of a
      ``Chunk`` from its position on, insertions into the ``capacity`` rows
      and pruning sweeps included (see ``som_train``), and returns ``END``
      or ``INSERT``;
    - ``classify(nodes)``, which binds ``som_classify`` to a batch's node
      operands (see ``_classifier``). It reads only what it is passed,
      never the map's activation row.

    Both release the interpreter lock while they run.

    Returns ``None`` when no library is available; ``SomMap._bind`` then
    binds the numpy kernels instead. The caller keeps the arrays alive and
    binds again after reallocating any of them.
    """
    lib = compiled()
    if lib is None:
        return None
    for name, a in arrays.items():
        dtype = np.dtype(_DTYPES.get(name, np.float64))
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous {dtype} array")
    view = View(m, words, capacity, eps,
                **{name: a.ctypes.data for name, a in arrays.items()})
    addr = ctypes.addressof(view)
    return Kernels(view, functools.partial(_train, lib, addr, m),
                   functools.partial(_classifier, lib, eps))


def _require(a: np.ndarray, dtype, shape: tuple) -> None:
    """Raise ``ValueError`` unless ``a`` is C-contiguous of this type and
    shape, so that its address may go to the C code."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")


def _classifier(lib, eps: float, nodes):
    """``som_classify`` bound to one batch's node operands.

    ``nodes`` holds them as ``inference._NodeArrays`` does: ``centers``,
    ``rel``, ``mass``, ``labels``, ``sq``, ``sq_floor`` and ``slack``; it
    is kept alive with the binding. Returns ``run(x, q, d, a_t, node,
    label, act)``, which classifies the rows of ``x`` from their products
    ``q`` and ``d`` with the node rows (``d`` is overwritten) into
    ``node``, ``label`` and ``act``, as ``inference._classify_block`` does.
    """
    n, m = nodes.rel.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weight = 1.0 / (nodes.mass * nodes.mass)
    operands = dict(centers=nodes.centers, rel=nodes.rel, mass=nodes.mass,
                    sq=nodes.sq, sq_floor=nodes.sq_floor, weight=weight,
                    labels=nodes.labels)
    for name, a in operands.items():
        _require(a, np.int64 if name == "labels" else np.float64,
                 (n, m) if name in ("centers", "rel") else (n,))
    screen = Nodes(n, m, eps, nodes.slack,
                   **{name: a.ctypes.data for name, a in operands.items()})
    return functools.partial(_classify, lib, screen, (nodes, weight))


def _classify(lib, screen: Nodes, keep, x: np.ndarray, q: np.ndarray,
              d: np.ndarray, a_t: float, node: np.ndarray, label: np.ndarray,
              act: np.ndarray) -> None:
    """``som_classify`` on one block, once its arrays are checked; ``keep``
    holds the arrays ``screen`` points into."""
    rows, n = len(x), screen.n
    for a, dtype, shape in ((x, np.float64, (rows, screen.m)),
                            (q, np.float64, (rows, n)),
                            (d, np.float64, (rows, n)),
                            (node, np.intp, (rows,)),
                            (label, np.int64, (rows,)),
                            (act, np.float64, (rows,))):
        _require(a, dtype, shape)
    lib.som_classify(ctypes.addressof(screen), rows, a_t, x.ctypes.data,
                     q.ctypes.data, d.ctypes.data, node.ctypes.data,
                     label.ctypes.data, act.ctypes.data)


class Chunk:
    """One chunk of presentations for the training loop, checked once.

    Holds the patterns (rows of ``m`` values), their labels and the drawn
    row indices (``arrays``), and the counter array, whose slots ``SLOTS``
    names.
    """

    def __init__(self, m: int, patterns: np.ndarray, labels: np.ndarray,
                 draws: np.ndarray):
        rows = len(patterns)
        checks = ((patterns, np.float64, (rows, m)),
                  (labels, np.int64, (rows,)),
                  (draws, np.int64, (len(draws),)))
        for a, dtype, shape in checks:
            _require(a, dtype, shape)
        if len(draws) and not 0 <= draws.min() <= draws.max() < rows:
            raise IndexError(f"draws outside the {rows} patterns")
        self.m, self.k = m, len(draws)
        self.count = np.zeros(len(SLOTS), dtype=np.int64)
        self.arrays = (patterns, labels, draws)
        self._args = (patterns.ctypes.data, labels.ctypes.data,
                      draws.ctypes.data, self.k, self.count.ctypes.data)


def _train(lib, addr: int, m: int, n: int, p: Params, chunk: Chunk) -> int:
    """``som_train`` on ``chunk`` from its position on."""
    if chunk.m != m:
        raise ValueError(f"patterns of {chunk.m} values for a map of {m}")
    if n < 1:
        raise ValueError("map has no nodes")
    pos = chunk.count[SLOTS.index("pos")]
    if not 0 <= pos <= chunk.k:
        raise IndexError(f"position {pos} outside the {chunk.k} draws")
    return lib.som_train(addr, n, ctypes.byref(p), *chunk._args)


def scan(text: bytes, start: int, width: int, label: int | None):
    """The CSV records of ``text[start:]``, read by ``som_scan``.

    Each record holds ``width`` fields; field ``label`` (``None`` for none)
    is the label, the others are numbers. Returns the float matrix of the
    numbers, one row per record, and the ``(start, end)`` offsets in
    ``text`` of each record's label field, quotes included. Raises
    ``ValueError`` when the text leaves the scanner's grammar (see
    ``_kernel.c``) or no library is loaded.
    """
    if not 0 <= start <= len(text):
        raise IndexError(f"start {start} outside the {len(text)} bytes")
    if label is not None and not 0 <= label < width:
        raise IndexError(f"label field {label} outside the {width} fields")
    lib = compiled()
    if lib is None:
        raise ValueError("no compiled scanner")
    base = np.frombuffer(text, np.uint8).ctypes.data + start
    size = len(text) - start
    rows = lib.som_scan(base, size, width, -1, 0, None, None)
    out = np.empty((rows, width - (label is not None)))
    spans = np.empty((rows if label is not None else 0, 2), dtype=np.int64)
    got = lib.som_scan(base, size, width, -1 if label is None else label,
                       rows, out.ctypes.data, spans.ctypes.data)
    if got < 0:
        raise ValueError("outside the scanner's grammar")
    return out[:got], spans[:got] + start


# The most bytes som_format writes for one value, its separator included,
# and for the brackets of one row.
_VALUE_BYTES, _ROW_BYTES = 32, 16


def format_rows(values: np.ndarray) -> list[str] | None:
    """Each row of the ``(rows, m)`` float array ``values`` as the JSON
    array ``persistence._list`` writes of its ``float.__repr__`` texts at
    depth 3, by ``som_format``; ``None`` when no library is loaded. Raises
    ``ValueError`` for a value that is not finite, which JSON cannot hold.
    """
    lib = compiled()
    if lib is None:
        return None
    rows, m = values.shape
    _require(values, np.float64, (rows, m))
    out = np.empty(rows * (_VALUE_BYTES * m + _ROW_BYTES), dtype=np.uint8)
    ends = np.empty(rows, dtype=np.int64)
    size = lib.som_format(values.ctypes.data, rows, m, out.ctypes.data,
                          ends.ctypes.data)
    if size < 0:
        raise ValueError("Out of range float values are not JSON compliant")
    text = out[:size].tobytes().decode("ascii")
    bounds = [0, *ends.tolist()]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]
