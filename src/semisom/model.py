"""Prototype map with per-dimension relevance weighting.

A map is a flat, growable collection of prototype nodes. Every node carries
three vectors of the input dimensionality: a center (the prototype itself),
a relevance vector that weights each dimension inside the distance metric,
and a running average of the per-dimension distances observed by the node,
from which the relevances are derived. Nodes may hold a class label;
unlabeled nodes use the ``NO_CLASS`` sentinel. Nodes with compatible labels
and similar relevance profiles are linked as neighbors.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import _kernel

NO_CLASS = -1

# Denominator guard in the activation function; keeps the response finite
# when a pattern sits exactly on a center.
ACTIVATION_EPS = 1e-7


class MapFullError(RuntimeError):
    """Raised when a node insertion would exceed the node budget."""


@dataclass(frozen=True)
class HyperParams:
    """Training parameters.

    Attributes:
        a_t: Activation threshold in (0, 1). A pattern activating every node
            below it lies outside all receptive fields: training inserts a
            node there, inference reports an outlier or a rejection.
        lp: Lowest cluster percentage. Nodes winning fewer than
            ``lp * age_wins`` competitions per pruning cycle are removed.
        beta: Rate in (0, 1) of the moving average tracking per-dimension
            distances.
        age_wins: Number of competitions between pruning sweeps.
        e_b: Learning rate of the winner node.
        push_rate: Rate used to push a wrong-class winner away from a
            labeled pattern.
        e_n: Learning rate of the winner's neighbors.
        eps_beta: Slope of the logistic curve turning distance averages into
            relevances; smaller values sharpen the contrast.
        minwd: Connection threshold on relevance-vector similarity.
        epochs: Full passes over the training set during the growth phase.
        n_max: Node budget.
        seed: Seed of the pattern-presentation stream.
    """

    a_t: float
    lp: float
    beta: float
    age_wins: int
    e_b: float
    push_rate: float
    e_n: float
    eps_beta: float
    minwd: float
    epochs: int
    n_max: int
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` if any parameter is outside its domain.

        The counts (``age_wins``, ``epochs``, ``n_max``, ``seed``) must be
        integers, numpy's included; every other value must be a finite
        number. A bool, Python's or numpy's, is neither.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            is_bool = isinstance(value, (bool, np.bool_))
            if f.type in ("int", int):
                if is_bool or not isinstance(value, numbers.Integral):
                    raise ValueError(
                        f"{f.name} must be an integer, got {value!r}")
            elif is_bool:
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            elif not _finite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name, ok, domain in (
                ("a_t", 0.0 < self.a_t < 1.0, "lie in (0, 1)"),
                ("lp", self.lp > 0.0, "be positive"),
                ("beta", 0.0 < self.beta < 1.0, "lie in (0, 1)"),
                ("age_wins", self.age_wins >= 1, "be >= 1"),
                ("e_b", self.e_b > 0.0, "be positive"),
                ("push_rate", self.push_rate >= 0.0, "be >= 0"),
                ("e_n", self.e_n >= 0.0, "be >= 0"),
                ("eps_beta", self.eps_beta > 0.0, "be positive"),
                ("minwd", self.minwd >= 0.0, "be >= 0"),
                ("epochs", self.epochs >= 1, "be >= 1"),
                ("n_max", self.n_max >= 1, "be >= 1"),
                ("seed", self.seed >= 0, "be >= 0")):
            if not ok:
                raise ValueError(
                    f"{name} must {domain}, got {getattr(self, name)}")


def _finite(value) -> bool:
    """``math.isfinite``, false for an integer beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def compute_relevances(dist_avg: np.ndarray, slope: float) -> np.ndarray:
    """Turn per-dimension distance averages into relevance weights.

    Dimensions with a smaller average distance receive a larger weight
    through an inverted logistic curve centered on the mean of the vector.
    When all components are equal the weights degenerate to all ones.

    Accepts a single vector or a batch of row vectors; the transform is
    applied along the last axis.

    Args:
        dist_avg: Non-negative distance averages, shape ``(m,)`` or ``(k, m)``.
        slope: Positive slope of the logistic curve.

    Returns:
        Relevance weights in [0, 1] with the same shape as ``dist_avg``.
    """
    if slope <= 0.0:
        raise ValueError(f"slope must be positive, got {slope}")
    return _relevances(np.asarray(dist_avg, dtype=float), slope)


def _real(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` for complex values,
    whose imaginary parts a cast to float would silently drop."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        raise ValueError(f"{name} holds complex values")
    return values.astype(float, copy=False)


def _require_finite(patterns: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first row holding ``nan`` or ``inf``."""
    if not np.isfinite(patterns).all():
        row = int(np.flatnonzero(~np.isfinite(patterns).all(axis=1))[0])
        raise ValueError(f"pattern {row} holds a non-finite value")


def _relevances(dist_avg: np.ndarray, slope: float) -> np.ndarray:
    """Relevance transform along the last axis; ``slope`` is not checked.

    Works on the transpose, so the statistics of a row batch broadcast
    without reshaping and those of a single vector stay numpy scalars.
    scipy.special is imported here, on first use: the compiled kernels
    never need it, and importing it costs a third of a second.
    """
    from scipy.special import expit

    d = dist_avg.T
    dmin = np.minimum.reduce(d)
    spread = np.maximum.reduce(d) - dmin
    flat = spread == 0.0  # equal components: every weight is one
    has_flat = np.count_nonzero(flat) > 0
    if has_flat:
        spread = np.where(flat, 1.0, spread)
    z = np.add.reduce(d) / d.shape[0] - d
    z /= slope * spread
    rel = expit(z, out=z).T
    if has_flat:
        rel[flat] = 1.0
    return rel


def _squared_distances(centers: np.ndarray, rel: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Relevance-weighted squared distance from ``x`` to each row of
    ``centers``.

    The row sums are numpy's pairwise summation, whose order does not
    depend on the CPU (einsum's does), so ``_kernel.c`` can repeat it.
    """
    diff = centers - x
    np.multiply(diff, diff, out=diff)
    diff *= rel
    return np.add.reduce(diff, axis=1)


def _act_of_sq(sq: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Activation ``mass / (sqrt(sq) + mass + ACTIVATION_EPS)`` of the
    squared distances ``sq``, which it overwrites; ``mass`` holds the
    relevance sums.

    Every step is monotone, so bounds on a squared distance give bounds on
    the activation the kernel computes.
    """
    dist = np.sqrt(sq, out=sq)
    dist += mass
    dist += ACTIVATION_EPS
    return np.divide(mass, dist, out=dist)


def _activations(centers: np.ndarray, rel: np.ndarray, mass: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Activation of each row for ``x``; ``mass`` holds the relevance sums."""
    return _act_of_sq(_squared_distances(centers, rel, x), mass)


def _shift_vectors(centers: np.ndarray, dist_avg: np.ndarray, x: np.ndarray,
                   lr: float, beta: float, slope: float) -> np.ndarray:
    """Node-update kernel on one node's rows; mutates them in place.

    Moves ``centers`` and ``dist_avg`` toward ``x`` at rate ``lr`` and
    returns the recomputed relevance row.
    """
    rate = lr * beta
    dist_avg *= 1.0 - rate
    step = np.subtract(x, centers)
    np.abs(step, out=step)
    step *= rate
    dist_avg += step
    np.maximum(dist_avg, 0.0, out=dist_avg)
    rel = _relevances(dist_avg, slope)
    # convex form of the step toward x: exact at both lr = 0 and lr = 1
    centers *= 1.0 - lr
    centers += lr * x
    return rel


# bit i of an adjacency word, and the bits of word rows as booleans
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _unpack(words: np.ndarray) -> np.ndarray:
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=-1, bitorder="little").view(bool)


def _winner(v: SimpleNamespace, n: int, x: np.ndarray) -> int:
    """``winner`` of ``_kernel.c``: the activations of nodes ``[0, n)`` for
    ``x`` into ``v.acts[:n]``, and the first most activated node. A map
    without nodes has no winner: ``ValueError``."""
    if n == 0:
        raise ValueError("map has no nodes")
    v.acts[:n] = _activations(v.centers[:n], v.rel[:n], v.sums[:n], x)
    return int(np.argmax(v.acts[:n]))


def _second_winner(v: SimpleNamespace, n: int, label: int, a_t: float) -> int:
    """``second_winner`` of ``_kernel.c``: the most activated node of
    ``[0, n)`` of class ``label``, or unlabeled, whose activation in
    ``v.acts`` reaches ``a_t``; -1 when none qualifies."""
    labels, acts = v.labels[:n], v.acts[:n]
    ok = np.flatnonzero(((labels == label) | (labels == NO_CLASS))
                        & (acts >= a_t))
    return int(ok[np.argmax(acts[ok])]) if ok.size else -1


def _update_numpy(v: SimpleNamespace, x: np.ndarray, rows, rates,
                  beta: float, slope: float) -> None:
    """Node update of ``rows`` toward ``x``, one after another, row
    ``rows[i]`` at rate ``rates[i]``, as ``update_row`` of ``_kernel.c``.

    The rows are not checked; a row listed twice is updated twice.
    """
    for j, lr in zip(rows, rates):
        v.rel[j] = _shift_vectors(v.centers[j], v.dist[j], x, lr, beta,
                                  slope)
        v.sums[j] = v.rel[j].sum()


def _link_numpy(v: SimpleNamespace, n: int, j: int, lo: int,
                minwd: float) -> None:
    """The links of node ``j`` with ``[lo, n)``, recomputed in both bit
    rows, as ``relink`` of ``_kernel.c``: two nodes link when their labels
    are compatible and the gap of their relevance rows, summed as in
    ``_squared_distances``, lies below ``minwd * sqrt(m)``."""
    labels, label = v.labels[lo:n], v.labels[j]
    diff = v.rel[lo:n] - v.rel[j]
    np.multiply(diff, diff, out=diff)
    gap = np.sqrt(np.add.reduce(diff, axis=1))
    linked = (((labels == label) | (labels == NO_CLASS) | (label == NO_CLASS))
              & (gap < minwd * math.sqrt(v.rel.shape[1])))
    if lo <= j:
        linked[j - lo] = False
    col = v.adj[lo:n, j // 64]
    col[:] = np.where(linked, col | _BIT[j % 64], col & ~_BIT[j % 64])
    row = _unpack(v.adj[j])
    row[lo:n] = linked
    v.adj[j] = np.packbits(row, bitorder="little").view("<u8")


def _attract_numpy(v: SimpleNamespace, x: np.ndarray, n: int, j: int,
                   p) -> None:
    """``attract`` of ``_kernel.c``: node ``j`` at rate ``e_b``, then its
    neighbors in ascending order at rate ``e_n``, and the win counted."""
    rows = np.flatnonzero(_unpack(v.adj[j])[:n]).tolist()
    _update_numpy(v, x, [j, *rows], [p.e_b] + [p.e_n] * len(rows), p.beta,
                  p.slope)
    v.wins[j] += 1


def _unsupervised_numpy(v: SimpleNamespace, x: np.ndarray, n: int, p,
                        w: int, count: dict) -> bool:
    """The unlabeled step of winner ``w``; returns whether it inserts.

    Below the activation threshold a node is inserted at the pattern when
    inserting is allowed and the budget has room; with no room the winner
    and its neighbors are attracted instead, and with inserting not allowed
    the pattern is skipped. At or above it they are attracted.
    """
    count["unsupervised"] += 1
    below = v.acts[w] < p.a_t
    if below and n < (p.n_max if p.allow_insert else 0):
        return True
    if not below or p.allow_insert:
        _attract_numpy(v, x, n, w, p)
    return False


def _supervised_numpy(v: SimpleNamespace, x: np.ndarray, n: int, p, w: int,
                      label: int, count: dict) -> bool:
    """The labeled step of winner ``w``; returns whether it inserts.

    A winner of the pattern's class, or unlabeled, is attracted with its
    neighbors, adopts the label and is relinked; below the activation
    threshold a labeled node is inserted instead, when allowed and there is
    room. A winner of another class is pushed away and the second winner
    attracted with its neighbors; without one a labeled node is inserted,
    when allowed and there is room.
    """
    count["supervised"] += 1
    room = n < (p.n_max if p.allow_insert else 0)
    if v.labels[w] == label or v.labels[w] == NO_CLASS:
        if v.acts[w] < p.a_t:
            return room
        _attract_numpy(v, x, n, w, p)
        v.labels[w] = label
        _link_numpy(v, n, w, 0, p.minwd)
        return False
    s = _second_winner(v, n, label, p.a_t)
    if s < 0:
        return room
    _attract_numpy(v, x, n, s, p)
    _update_numpy(v, x, [w], [-p.push_rate], p.beta, p.slope)
    count["pushes"] += 1
    return False


def _insert_numpy(v: SimpleNamespace, n: int, x: np.ndarray, label: int,
                  minwd: float) -> None:
    """``insert`` of ``_kernel.c``: a fresh node ``n`` at ``x`` (relevances
    one, distance averages zero, relevance sum ``m``, no wins, the label),
    linked as ``rewire_node`` links it. The caller checks that row ``n``
    lies below the capacity."""
    for a, value in ((v.centers, x), (v.rel, 1.0), (v.dist, 0.0),
                     (v.sums, len(x)), (v.wins, 0), (v.labels, label)):
        a[n] = value
    _link_numpy(v, n + 1, n, 0, minwd)


def _keep_numpy(v: SimpleNamespace, n: int, keep: np.ndarray) -> None:
    """Nodes ``keep`` (ascending) of ``[0, n)`` moved to the front, as
    ``move_node`` of ``_kernel.c`` moves them, and all their links cut."""
    for a in (v.centers, v.rel, v.dist, v.sums, v.wins, v.labels):
        a[:len(keep)] = a[keep]
    v.adj[:n] = 0


def _link_all_numpy(v: SimpleNamespace, n: int, minwd: float) -> None:
    """Every link among nodes ``[0, n)``, which have none, as ``sweep``
    of ``_kernel.c`` relinks them."""
    for j in range(n - 1):
        _link_numpy(v, n, j, j + 1, minwd)


def _sweep_numpy(v: SimpleNamespace, n: int, p) -> int:
    """``sweep`` of ``_kernel.c`` on nodes ``[0, n)``: the nodes of at least
    ``p.lp * p.age_wins`` wins, or else the first of most wins, move to the
    front and are linked anew, and every win count returns to zero.
    Returns the number of nodes kept."""
    wins = v.wins[:n]
    keep = np.flatnonzero(wins >= p.lp * p.age_wins)
    if not keep.size:
        keep = np.array([int(np.argmax(wins))])
    _keep_numpy(v, n, keep)
    _link_all_numpy(v, len(keep), p.minwd)
    v.wins[:len(keep)] = 0
    return len(keep)


def _train_numpy(v: SimpleNamespace, n: int, p, chunk) -> int:
    """``som_train`` in numpy, line for line, on the arrays of ``v``: the
    presentations of the ``_kernel.Chunk`` from its position on, with the
    same insertions, sweeps, counters and return codes."""
    patterns, labels, draws = chunk.arrays
    count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
    code = _kernel.END
    for pos in range(count["pos"], chunk.k):
        x, label = patterns[draws[pos]], int(labels[draws[pos]])
        w = _winner(v, n, x)
        add = (_unsupervised_numpy(v, x, n, p, w, count) if label == NO_CLASS
               else _supervised_numpy(v, x, n, p, w, label, count))
        if add:
            if n == len(v.centers):
                count["unsupervised" if label == NO_CLASS
                      else "supervised"] -= 1
                code = _kernel.INSERT
                break
            _insert_numpy(v, n, x, label, p.minwd)
            n += 1
            count["insertions"] += 1
        if count["nwins"] == p.age_wins:
            kept = _sweep_numpy(v, n, p)
            count["removals"] += n - kept
            count["resets"] += 1
            count["nwins"] = 0
            n = kept
        count["nwins"] += 1
        count["t"] += 1
    else:
        pos = chunk.k
    count["pos"], count["n"] = pos, n
    chunk.count[:] = [count[name] for name in _kernel.SLOTS]
    return code


def _integers(name: str, values, shape: tuple, where) -> np.ndarray:
    """``values`` as int64 of ``shape``. A sequence, or an array of another
    dtype, must hold integers of that range one by one, which a bool is
    not; the error names ``where(k)`` for the ``k``-th value."""
    values = (values if isinstance(values, np.ndarray)
              else np.array(values, dtype=object))
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
    if values.dtype.kind != "i":
        for k, v in enumerate(values.ravel().tolist()):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{where(k)} {v!r} is not an integer")
            if not -2 ** 63 <= v < 2 ** 63:
                raise ValueError(f"{where(k)} {v} outside [-2**63, 2**63)")
    return values.astype(np.int64)


def _check_arrays(node_budget: int, centers, relevances, dist_avgs, wins,
                  labels, connections) -> list[np.ndarray]:
    """The arguments of ``SomMap.from_arrays``, checked, as float
    ``(n, dim)`` vectors, int64 ``(n,)`` wins and labels and int64 pairs."""
    centers = _real(centers, "centers")
    if centers.ndim != 2:
        raise ValueError(f"centers has shape {centers.shape}, expected "
                         f"(n, dim)")
    n, dim = centers.shape
    if n > node_budget:
        raise ValueError(f"{n} nodes exceed the node budget of {node_budget}")
    arrays = [_real(v, name) for v, name in zip(
        (centers, relevances, dist_avgs), ("centers", "relevances",
                                           "dist_avgs"))]
    for name, values in zip(("center", "relevance", "dist_avg"), arrays):
        if values.shape != (n, dim):
            raise ValueError(f"{name}s has shape {values.shape}, expected "
                             f"{(n, dim)}")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ValueError(f"node {np.argmin(finite)} {name} holds a "
                             f"non-finite value")
    for name, values, low in (("wins", wins, 0), ("label", labels, NO_CLASS)):
        values = _integers(name, values, (n,), lambda j: f"node {j}: {name}")
        if (values < low).any():
            j = np.argmax(values < low)
            raise ValueError(f"node {j} has {name} {values[j]}, below {low}")
        arrays.append(values)
    given = (np.array(connections, dtype=object) if len(connections)
             else np.empty((0, 2), np.int64))
    pairs = _integers("connections", given, (len(given), 2), lambda k: (
        f"connection {tuple(given[k // 2].tolist())}: node id"))
    i, j = pairs.T
    # the first listing of each pair, in either order
    _, first = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                         return_index=True)
    repeated = ~np.isin(np.arange(len(pairs)), first)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    for bad, what in ((outside, f"names a node outside the {n} nodes"),
                      (i == j, "joins a node to itself"),
                      (repeated, "is listed twice")):
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(f"connection ({i[k]}, {j[k]}) {what}")
    return arrays + [pairs]


def _rows(name: str, doc: str) -> property:
    """A ``SomMap`` property: a copy of the node rows of array ``name``."""
    return property(lambda som: getattr(som._arrays, name)[:som._n].copy(),
                    doc=doc)


# rows allocated by a new map; the capacity doubles from here
_FIRST_CAPACITY = 16


class SomMap:
    """Growable map of prototype nodes with relevance-based connections.

    Nodes are addressed by their index in insertion order; removals compact
    the index range. Storage holds rows for a capacity of nodes that
    doubles, up to ``node_budget``, as nodes are added, so memory follows
    the nodes present; the hot loops work on contiguous array slices.
    Connections are bit rows: bit ``i`` of node ``j``'s row is set when
    ``i`` and ``j`` are linked.
    """

    def __init__(self, dim: int, node_budget: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        self.dim = dim
        self.node_budget = node_budget
        self.nwins = 0
        self._n = 0
        self._lock = threading.Lock()
        self._arrays = SimpleNamespace()
        self._grow(min(node_budget, _FIRST_CAPACITY))

    def _grow(self, capacity: int) -> None:
        """Reallocate node storage for ``capacity`` nodes, keeping the nodes.

        ``_arrays`` is the storage: one array per pointer field of
        ``_kernel.View``, one row per node. The compiled loop and the numpy
        mirrors of its functions, which the per-call methods run, read and
        write these arrays alone.
        """
        n, m, v = self._n, self.dim, self._arrays
        with self._lock:
            for name, shape, dtype in (
                    ("centers", (capacity, m), float),
                    ("rel", (capacity, m), float),
                    ("dist", (capacity, m), float),
                    ("sums", capacity, float),
                    ("wins", capacity, np.int64),
                    ("labels", capacity, np.int64),
                    ("adj", (capacity, -(-capacity // 64)), np.uint64),
                    ("acts", capacity, float)):
                new = np.zeros(shape, dtype)
                if n:
                    old = getattr(v, name)[:n]
                    new[tuple(map(slice, old.shape))] = old
                setattr(v, name, new)
            self._bind()

    def _bind(self) -> None:
        """Choose the long calls: compiled if the library loads, else numpy.

        ``_grow`` binds again after each reallocation while holding the
        lock, so the addresses taken here stay valid while ``som_train``
        uses them. The lock serializes every write to the node rows with
        the searches that read them. The numpy path binds the mirror of
        the training loop, ``_train_numpy``, and no classify pass
        (``None``): inference then runs its numpy twin. On either path a
        per-call method runs one mirror under the lock: ``_winner`` of
        ``winner``, ``_second_winner`` of ``second_winner``,
        ``_update_numpy`` of ``update_row``, ``_link_numpy`` of ``relink``,
        or the compaction and relinking of ``_sweep_numpy``.
        """
        v = self._arrays
        kernels = _kernel.bind(self.dim, ACTIVATION_EPS, v.adj.shape[1],
                               len(v.centers), **vars(v))
        if kernels is None:
            kernels = _kernel.Kernels(
                None, functools.partial(_train_numpy, v), None)
        self._view, self._train, self._classify = kernels

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in ("_lock", "_view", "_train", "_classify"):
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._bind()

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def is_full(self) -> bool:
        return self._n >= self.node_budget

    labels = _rows("labels", "Copy of the per-node labels.")
    wins = _rows("wins", "Copy of the per-node win counters.")
    centers = _rows("centers", "Copy of the node centers, one per row.")
    relevances = _rows("rel", "Copy of the node relevances, one per row.")
    dist_avgs = _rows("dist", "Copy of the distance averages, one per row.")

    @property
    def connections(self) -> list[tuple[int, int]]:
        """Sorted list of connected node pairs ``(i, j)`` with ``i < j``."""
        n = self._n
        adj = self._arrays.adj[:n]
        # only the bit rows of linked nodes are unpacked
        rows = np.flatnonzero(adj.any(axis=1))
        i, j = np.nonzero(_unpack(adj[rows])[:, :n])
        return [(a, b) for a, b in zip(rows[i].tolist(), j.tolist()) if a < b]

    def _check_index(self, j) -> int:
        """Node index ``j`` as an int; ``TypeError`` unless it is an
        integer (a bool is not), ``IndexError`` unless it names a node."""
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise TypeError(
                f"node indices must be integers, got {type(j).__name__}")
        if not 0 <= j < self._n:
            raise IndexError(f"no node {j} in a map of {self._n} nodes")
        return int(j)

    def neighbor_array(self, j: int) -> np.ndarray:
        """Neighbors of ``j`` as a sorted index array."""
        with self._lock:
            row = self._arrays.adj[self._check_index(j)]
            return np.flatnonzero(_unpack(row)[:self._n])

    @classmethod
    def from_arrays(cls, node_budget: int, centers, relevances, dist_avgs,
                    wins, labels, connections=()) -> SomMap:
        """A map of the arrays its properties of the same names return:
        ``(n, dim)`` centers, relevances and distance averages, ``(n,)``
        integer wins and labels, and connected node pairs.

        Raises ``ValueError`` naming the first node or pair at fault: a
        wrong shape, a vector value that is not finite, wins or labels that
        are not integers (a bool is none), negative wins, a label below
        ``NO_CLASS``, more nodes than ``node_budget``, or a connection of
        ids that are not nodes, of a node to itself or listed twice.
        """
        arrays = _check_arrays(node_budget, centers, relevances, dist_avgs,
                               wins, labels, connections)
        n, dim = arrays[0].shape
        som = cls(dim, node_budget)
        v = som._arrays
        if n > len(v.centers):
            som._grow(n)
        for name, values in zip(("centers", "rel", "dist", "wins", "labels"),
                                arrays):
            getattr(v, name)[:n] = values
        v.sums[:n] = v.rel[:n].sum(axis=1)
        som._n = n
        i, j = arrays[-1].T
        np.bitwise_or.at(v.adj, (i, j // 64), _BIT[j % 64])
        np.bitwise_or.at(v.adj, (j, i // 64), _BIT[i % 64])
        return som

    def add_node(self, x: np.ndarray, label: int = NO_CLASS) -> int:
        """Append a fresh node centered at ``x``; relevances start at one.

        Raises:
            MapFullError: if the node budget is already exhausted.
        """
        x = self._pattern(x)
        if self._n == len(self._arrays.centers):
            self._double()
        with self._lock:
            j = self._n
            # minwd 0 links no node, as no gap lies below 0
            _insert_numpy(self._arrays, j, x, label, 0.0)
            self._n += 1
        return j

    def _double(self) -> None:
        """Double the full storage, up to the node budget; ``MapFullError``
        if the map already holds its budget of nodes."""
        if self.is_full:
            raise MapFullError(
                f"map already holds its budget of {self.node_budget} nodes"
            )
        self._grow(min(self.node_budget, 2 * self._n))

    def keep_nodes(self, indices: np.ndarray) -> None:
        """Retain exactly the nodes at ``indices``, drop the rest.

        Connections are cleared; the caller must rebuild them. Raises
        ``TypeError`` or ``IndexError`` for an index that names no node
        (see ``_check_index``), and ``ValueError`` unless the indices
        ascend strictly, before changing the map.
        """
        with self._lock:
            keep = [self._check_index(j) for j in indices]
            if any(a >= b for a, b in zip(keep, keep[1:])):
                raise ValueError(f"node indices must ascend strictly, "
                                 f"got {keep}")
            _keep_numpy(self._arrays, self._n, np.array(keep, dtype=np.intp))
            self._n = len(keep)

    # -- competition -------------------------------------------------------

    def _pattern(self, x) -> np.ndarray:
        x = _real(x, "pattern")
        if x.shape != (self.dim,):
            raise ValueError(f"pattern has shape {x.shape}, map expects ({self.dim},)")
        return x

    def activations(self, x: np.ndarray) -> np.ndarray:
        """Activation of every node for pattern ``x``."""
        x = self._pattern(x)
        with self._lock:
            _winner(self._arrays, self._n, x)
            return self._arrays.acts[:self._n].copy()

    def find_winner(self, x: np.ndarray) -> tuple[int, float]:
        """Most activated node for ``x``; ties go to the lowest index."""
        x = self._pattern(x)
        with self._lock:
            j = _winner(self._arrays, self._n, x)
            return j, float(self._arrays.acts[j])

    def find_winner_for_class(self, x: np.ndarray, label: int,
                              a_t: float) -> int | None:
        """Most activated node compatible with ``label`` and above threshold.

        Only nodes carrying ``label`` or no label at all qualify, and their
        activation must reach ``a_t`` (inclusive). Returns ``None`` when no
        node qualifies.
        """
        x = self._pattern(x)
        with self._lock:
            _winner(self._arrays, self._n, x)
            j = _second_winner(self._arrays, self._n, label, a_t)
        return None if j < 0 else j

    # -- adaptation --------------------------------------------------------

    def update_node(self, j: int, x: np.ndarray, lr: float, beta: float,
                    slope: float) -> None:
        """Apply the node-update step to node ``j`` in place: ``update_nodes``
        of one row."""
        self.update_nodes([j], x, lr, beta, slope)

    def update_nodes(self, indices, x: np.ndarray, lr,
                     beta: float, slope: float) -> None:
        """Apply the node-update step to several rows, in the given order.

        ``lr`` may be a scalar or one rate per row, e.g. a
        ``(len(indices), 1)`` column. A batch equals the same updates
        applied one by one with ``update_node``; a row listed twice is
        updated twice. The indices are checked before anything is written.

        Raises:
            TypeError: if the indices are not integers (bools included).
            IndexError: if an index is not a node of the map.
        """
        rows = np.asarray(indices).reshape(-1).tolist()  # no cast wraps a row
        if not rows:
            return
        rates = np.asarray(lr, dtype=float)
        rates = (np.full(len(rows), rates) if not rates.ndim
                 else rates.reshape(len(rows)))
        x = self._pattern(x)
        with self._lock:
            rows = [self._check_index(j) for j in rows]
            _update_numpy(self._arrays, x, rows, rates.tolist(), beta, slope)

    # -- neighborhood ------------------------------------------------------

    def rebuild_connections(self, minwd: float) -> None:
        """Recompute the full connection set from the pairwise predicate."""
        with self._lock:
            self._arrays.adj[:self._n] = 0
            _link_all_numpy(self._arrays, self._n, minwd)

    def rewire_node(self, j: int, minwd: float) -> None:
        """Recompute only the connections incident to node ``j``."""
        with self._lock:
            _link_numpy(self._arrays, self._n, self._check_index(j), 0,
                        minwd)

    # -- training ----------------------------------------------------------

    def _run_presentations(self, params, chunk) -> int:
        """Present a ``_kernel.Chunk`` in the training loop, ``som_train``
        or ``_train_numpy``, until it returns ``_kernel.END``. At each
        ``INSERT``, which leaves that presentation undone, the storage
        doubles (``MapFullError`` at the node budget) and the loop replays
        it."""
        while True:
            with self._lock:
                code = self._train(self._n, params, chunk)
                self._n = int(chunk.count[_kernel.SLOTS.index("n")])
            if code == _kernel.END:
                return code
            self._double()
