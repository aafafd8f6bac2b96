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
classify in parallel too: it reads the block's two float32 screen
products, rules out most pairs with a float32 test whose margins cover
every float rounding (derived in ``_kernel.c``), bounds the pairs it
keeps in double as ``inference._classify_block`` does, and computes in
double the activations of the pairs the bounds cannot rule out.
``som_scan`` reads the body of a CSV or ARFF file (``scan``) into the
arrays it is passed, digits eight bytes at a time. It computes a number
of at most 19 significant digits itself, exactly, when its decimal
exponent lies within -22..22: one IEEE operation for a mantissa of at
most 2**53, else Eisel and Lemire's 64 x 128-bit product. Only the other
numbers, and the rare product that cannot decide the rounding, go through
``strtod``, which reads the decimal point of the ``LC_NUMERIC`` locale:
under a locale whose point is ``,`` those tokens are refused, and such
files are read row by row. That case follows from the code; it is not
tested, since it needs a comma-decimal locale installed. It gives each
record's label field a code, one per distinct field, through a table the
caller passes, so that Python decodes each distinct label once.
``som_write_nodes`` writes the node list of a model file
(``write_nodes``) as ``json.dumps(indent=1, sort_keys=True)`` writes it,
every double as ``float.__repr__`` writes it, from Ryu's shortest
round-trip digits; it reads no locale. ``som_read_nodes`` reads it back
(``read_nodes``) from the same layout constants of ``_kernel.c``, each
value through the scanner's number reader, refusing the first byte off
that layout and every token ``json`` would read otherwise, so that
``persistence.load_model`` takes ``json`` for the whole file whenever it
refuses. ``som_write_predictions`` writes the rows of a
predictions file (``format_predictions``) as ``cli``'s ``"%d,%s,%s,%.6g"``
pass writes them, the ``%.6g`` digits rounded exactly in 64- and 128-bit
integers, so no locale reaches them; it declines an activation outside
``[2**-66, 2**64)`` in size but 0, and ``cli`` then writes with ``%``.

Each training function of ``_kernel.c`` has one numpy mirror in
``model.py`` over the same arrays: ``winner``/``_winner``,
``second_winner``/``_second_winner``, ``update_row``/``_update_numpy``,
``relink``/``_link_numpy``, ``attract``/``_attract_numpy``,
``insert``/``_insert_numpy``, ``sweep``/``_sweep_numpy`` and
``som_train``/``_train_numpy``, line for line. Each per-call method of
``SomMap`` is one of these mirrors run under the map's lock, on either
path.

From 16 dimensions and 32 nodes on, ``som_train`` finds each winner
through the screen of ``som_classify``, run on one pattern (``search``):
it keeps the screen's node operands, the float32 rows of ``rel`` and
``-2 rel * c`` and each node's ``|c|_rel^2``, whole and as a running sum
at every eighth dimension from the 16th on, allocated when it starts and
freed when it returns. It sums the pattern's two float32 products with
them eight nodes at a time: over the first 16 dimensions for every node,
which picks a pivot node, then 8 dimensions more at a time for each block
of 8 nodes until the float test proves all their activations below the
pivot's, so that a map whose relevances gather on a few dimensions
reads only part of each row. It computes in double only the nodes whose
bounds cannot prove their activation below a pivot node's (one
derivation in ``_kernel.c`` serves both passes and every partial sum).
Its winner is
``winner``'s, bit for bit, so ``_winner`` stays the mirror of both. The
activation row holds ``winner``'s values wherever the loop reads it: the
loop completes the row before ``second_winner`` and before it returns
``INSERT``, and runs ``winner`` for the last draw of each call. Nothing
selects the screen; when its operands cannot be allocated, the loop runs
``winner`` alone.

When no library can be built or loaded, ``compiled()`` returns
``None``, ``bind`` returns no kernels, and each map binds ``_train_numpy``
instead, with the same counters and return codes and the same results bit
for bit. ``scan`` then raises ``ValueError``, and ``data.py`` reads the
file with its row reader, which gives the same data; ``write_nodes``
returns ``None``, and ``persistence`` writes the whole model file with
``json``, which gives the same text; ``read_nodes`` returns
``None``, and ``persistence`` reads the whole model file with ``json``;
``format_predictions`` returns ``None``, and ``cli`` writes the rows with
``%``, which gives the same bytes.
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
                                     _PTR, _PTR, _PTR, _PTR, _PTR)
        lib.som_classify.restype = None
        lib.som_reaches.argtypes = (ctypes.c_double,) * 4
        lib.som_reaches.restype = ctypes.c_int
        lib.som_scan.argtypes = (_PTR, _SIZE, _SIZE, _SIZE, _SIZE, _PTR, _PTR,
                                 _PTR, _PTR, _SIZE)
        lib.som_scan.restype = _SIZE
        lib.som_write_nodes.argtypes = (_SIZE, _SIZE) + (_PTR,) * 6
        lib.som_write_nodes.restype = _SIZE
        lib.som_read_nodes.argtypes = (_PTR, _SIZE, _SIZE, _PTR, _PTR, _PTR)
        lib.som_read_nodes.restype = _SIZE
        lib.som_write_predictions.argtypes = (_SIZE, _PTR, _PTR, _PTR, _PTR,
                                              _SIZE, _PTR, _PTR)
        lib.som_write_predictions.restype = _SIZE
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
    label, act)``, which classifies the rows of ``x`` from their float32
    products ``q`` and ``d`` with the node rows into ``node``, ``label``
    and ``act``, as ``inference._classify_block`` does. The pass keeps its
    float operands in a scratch block of the binding, so one binding
    serves one thread.
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
    return functools.partial(_classify, lib, screen,
                             np.empty(4 * n, np.float32), (nodes, weight))


def _classify(lib, screen: Nodes, scratch: np.ndarray, keep, x: np.ndarray,
              q: np.ndarray, d: np.ndarray, a_t: float, node: np.ndarray,
              label: np.ndarray, act: np.ndarray) -> None:
    """``som_classify`` on one block, once its arrays are checked, with the
    scratch block ``scratch``; ``keep`` holds the arrays ``screen`` points
    into."""
    rows, n = len(x), screen.n
    for a, dtype, shape in ((x, np.float64, (rows, screen.m)),
                            (q, np.float32, (rows, n)),
                            (d, np.float32, (rows, n)),
                            (scratch, np.float32, (4 * n,)),
                            (node, np.intp, (rows,)),
                            (label, np.int64, (rows,)),
                            (act, np.float64, (rows,))):
        _require(a, dtype, shape)
    lib.som_classify(ctypes.addressof(screen), rows, a_t, x.ctypes.data,
                     q.ctypes.data, d.ctypes.data, scratch.ctypes.data,
                     node.ctypes.data, label.ctypes.data, act.ctypes.data)


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
    numbers, one row per record; each record's label code, 0, 1, ... in
    order of first appearance (empty without a label); and the bytes of
    each code's label field, quotes included. ``text`` may be any
    contiguous bytes-like object. Raises ``ValueError`` when the text
    leaves the scanner's grammar (see ``_kernel.c``) or no library is
    loaded.
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
    rows = lib.som_scan(base, size, width, -1, 0, None, None, None, None, 0)
    out = np.empty((rows, width - (label is not None)))
    labels = rows if label is not None else 0
    codes = np.empty(labels, dtype=np.int64)
    spans = np.empty((labels, 2), dtype=np.int64)
    # the interning table: a power of two of at least twice the records
    table = np.zeros(1 << (2 * labels - 1).bit_length() if labels else 0,
                     dtype=np.int64)
    got = lib.som_scan(base, size, width, -1 if label is None else label,
                       rows, out.ctypes.data, codes.ctypes.data,
                       spans.ctypes.data, table.ctypes.data, len(table))
    if got < 0:
        raise ValueError("outside the scanner's grammar")
    codes = codes[:got]
    distinct = int(codes.max()) + 1 if len(codes) else 0
    return out[:got], codes, [bytes(text[a:b]) for a, b in
                              (spans[:distinct] + start).tolist()]


def write_nodes(centers: np.ndarray, dist_avgs: np.ndarray,
                labels: np.ndarray, relevances: np.ndarray,
                wins: np.ndarray) -> memoryview | None:
    """The node list of a model file whose node ``j`` holds row ``j`` of
    the ``(n, m)`` float arrays and the ``(n,)`` int64 arrays, by
    ``som_write_nodes``, as a bytes-like object: the bytes
    ``json.dumps(doc, indent=1, sort_keys=True)`` writes between the list's
    ``[`` and its ``\\n ]``. ``None`` when no library is loaded. Raises
    ``ValueError`` for a value that is not finite, which JSON cannot hold.
    """
    lib = compiled()
    if lib is None:
        return None
    n, m = centers.shape
    for a in (centers, dist_avgs, relevances):
        _require(a, np.float64, (n, m))
    for a in (labels, wins):
        _require(a, np.int64, (n,))
    args = (n, m, *(a.ctypes.data for a in (centers, dist_avgs, labels,
                                            relevances, wins)))
    out = np.empty(lib.som_write_nodes(*args, None), dtype=np.uint8)
    size = lib.som_write_nodes(*args, out.ctypes.data)
    if size < 0:
        raise ValueError("Out of range float values are not JSON compliant")
    return out.data[:size]


def read_nodes(text: bytes, start: int, end: int) -> dict | None:
    """The nodes of ``text[start:end]``, the node list of a model file
    between its ``[`` and its ``\\n ]``, read by ``som_read_nodes`` when
    they stand exactly as ``persistence.save_model`` writes them: a dict of
    the float ``(n, dim)`` vectors and int64 ``(n,)`` labels and wins under
    their JSON keys, each value the one ``json.loads`` and numpy make of
    it. ``None`` off that layout, at a token ``som_read_nodes`` leaves to
    ``json`` (see ``_kernel.c``), or when no library is loaded; it never
    raises.
    """
    lib = compiled()
    if lib is None or not 0 <= start <= end <= len(text):
        return None
    # each value takes a line break, four spaces and a byte at least
    room = (end - start) // 6
    vectors = np.empty(room)
    ints = np.empty(room, dtype=np.int64)
    dim = np.zeros(1, dtype=np.intp)
    n = lib.som_read_nodes(np.frombuffer(text, np.uint8).ctypes.data + start,
                           end - start, room, vectors.ctypes.data,
                           ints.ctypes.data, dim.ctypes.data)
    if n < 1:
        return None
    m = int(dim[0])
    rows = vectors[:3 * n * m].reshape(n, 3, m)
    pairs = ints[:2 * n].reshape(n, 2)
    return {"center": rows[:, 0], "dist_avg": rows[:, 1],
            "label": pairs[:, 0], "relevance": rows[:, 2],
            "wins": pairs[:, 1]}


# The most bytes som_write_predictions writes for one row beside its label
# text: two decimals of up to 20 digits, the activation, the separators
# and the line end, and room to spare.
_PREDICTION_BYTES = 64


def format_predictions(node: np.ndarray, pick: np.ndarray,
                       texts: list[bytes], act: np.ndarray):
    """The predictions file's rows, ``"%d,%s,%s,%.6g\\r\\n" % (i, node[i]
    or "" for -1, texts[pick[i]], act[i])`` encoded, by
    ``som_write_predictions``, as a bytes-like object; ``None`` when no
    library is loaded or the writer declines a value (an activation outside
    ``[2**-66, 2**64)`` in size but 0, or not finite; a node below -1; a
    pick outside ``texts``).
    """
    lib = compiled()
    if lib is None:
        return None
    rows = len(node)
    _require(node, np.intp, (rows,))
    _require(pick, np.int64, (rows,))
    _require(act, np.float64, (rows,))
    ends = np.cumsum([len(t) for t in texts], dtype=np.int64)
    blob = b"".join(texts)
    out = np.empty(rows * (_PREDICTION_BYTES + max(map(len, texts),
                                                   default=0)),
                   dtype=np.uint8)
    size = lib.som_write_predictions(
        rows, node.ctypes.data, pick.ctypes.data, blob, ends.ctypes.data,
        len(texts), act.ctypes.data, out.ctypes.data)
    return None if size < 0 else out.data[:size]
