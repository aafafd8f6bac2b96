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
import operator
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
        integers, numpy's included but not bools; every other value must
        be a finite number.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int):
                if (isinstance(value, bool)
                        or not isinstance(value, numbers.Integral)):
                    raise ValueError(
                        f"{f.name} must be an integer, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.a_t < 1.0:
            raise ValueError(f"a_t must lie in (0, 1), got {self.a_t}")
        if self.lp <= 0.0:
            raise ValueError(f"lp must be positive, got {self.lp}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.age_wins < 1:
            raise ValueError(f"age_wins must be >= 1, got {self.age_wins}")
        if self.e_b <= 0.0:
            raise ValueError(f"e_b must be positive, got {self.e_b}")
        if self.push_rate < 0.0:
            raise ValueError(f"push_rate must be >= 0, got {self.push_rate}")
        if self.e_n < 0.0:
            raise ValueError(f"e_n must be >= 0, got {self.e_n}")
        if self.eps_beta <= 0.0:
            raise ValueError(f"eps_beta must be positive, got {self.eps_beta}")
        if self.minwd < 0.0:
            raise ValueError(f"minwd must be >= 0, got {self.minwd}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Node:
    """One prototype of the map.

    Attributes:
        center: Prototype position in the (normalized) input space.
        relevance: Per-dimension weights in [0, 1] used by the distance.
        dist_avg: Moving average of ``|x - center|`` per dimension.
        wins: Competitions won since the last pruning sweep.
        label: Class id, or ``NO_CLASS`` when unlabeled.
    """

    center: np.ndarray
    relevance: np.ndarray
    dist_avg: np.ndarray
    wins: int = 0
    label: int = NO_CLASS


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


def _distances(centers: np.ndarray, rel: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """Relevance-weighted distance from ``x`` to each row of ``centers``.

    The row sums are numpy's pairwise summation, whose order does not
    depend on the CPU (einsum's does), so ``_kernel.c`` can repeat it.
    """
    diff = centers - x
    np.multiply(diff, diff, out=diff)
    diff *= rel
    dist = np.add.reduce(diff, axis=1)
    return np.sqrt(dist, out=dist)


def _activations(centers: np.ndarray, rel: np.ndarray, mass: np.ndarray,
                 x: np.ndarray, eps: float) -> np.ndarray:
    """Activation of each row for ``x``; ``mass`` holds the relevance sums."""
    dist = _distances(centers, rel, x)
    dist += mass
    dist += eps
    return np.divide(mass, dist, out=dist)


def _linked(rel: np.ndarray, labels: np.ndarray, r: np.ndarray, label,
            minwd: float) -> np.ndarray:
    """Which rows of ``(rel, labels)`` qualify as neighbors of ``(r, label)``.

    The gaps are summed as in ``_distances``, so ``_kernel.c`` can repeat
    them.
    """
    diff = rel - r
    np.multiply(diff, diff, out=diff)
    gap = np.sqrt(np.add.reduce(diff, axis=1))
    compat = (labels == label) | (labels == NO_CLASS) | (label == NO_CLASS)
    return compat & (gap < minwd * math.sqrt(rel.shape[-1]))


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


def _winner_numpy(v: SimpleNamespace, n: int) -> int:
    """``som_winner`` in numpy, on the arrays of ``_kernel.View``."""
    v.acts[:n] = _activations(v.centers[:n], v.rel[:n], v.sums[:n], v.x,
                              ACTIVATION_EPS)
    return int(np.argmax(v.acts[:n]))


def _update_numpy(v: SimpleNamespace, n: int, k: int, lr_step: int,
                  beta: float, slope: float) -> int:
    """``som_update`` in numpy: rows one after another, -1 for a missing row."""
    rows = v.idx[:k]
    if np.any((rows < 0) | (rows >= n)):
        return -1
    for i, j in enumerate(rows.tolist()):
        v.rel[j] = _shift_vectors(v.centers[j], v.dist[j], v.x,
                                  v.lr[i * lr_step], beta, slope)
        v.sums[j] = v.rel[j].sum()
    return 0


def _link_numpy(v: SimpleNamespace, n: int, j: int, lo: int,
                minwd: float) -> None:
    """``som_link`` in numpy: the links of node ``j`` with ``[lo, n)``."""
    linked = _linked(v.rel[lo:n], v.labels[lo:n], v.rel[j], v.labels[j],
                     minwd)
    if lo <= j:
        linked[j - lo] = False
    col = v.adj[lo:n, j // 64]
    col[:] = np.where(linked, col | _BIT[j % 64], col & ~_BIT[j % 64])
    row = _unpack(v.adj[j])
    row[lo:n] = linked
    v.adj[j] = np.packbits(row, bitorder="little").view("<u8")


def _attract_numpy(v: SimpleNamespace, n: int, j: int, p) -> None:
    """``attract`` of ``_kernel.c``: node ``j`` at rate ``e_b``, then its
    neighbors in ascending order at rate ``e_n``, and the win counted."""
    rows = np.flatnonzero(_unpack(v.adj[j])[:n])
    k = rows.size + 1
    v.idx[0], v.idx[1:k] = j, rows
    v.lr[0], v.lr[1:k] = p.e_b, p.e_n
    _update_numpy(v, n, k, 1, p.beta, p.slope)
    v.wins[j] += 1


def _unsupervised_numpy(v: SimpleNamespace, n: int, p, w: int,
                        count: dict) -> bool:
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
        _attract_numpy(v, n, w, p)
    return False


def _supervised_numpy(v: SimpleNamespace, n: int, p, w: int, label: int,
                      count: dict) -> bool:
    """The labeled step of winner ``w``; returns whether it inserts.

    A winner of the pattern's class, or unlabeled, is attracted with its
    neighbors, adopts the label and is relinked; below the activation
    threshold a labeled node is inserted instead, when allowed and there is
    room. A winner of another class makes the most activated node of the
    class, or unlabeled, at or above the threshold the second winner: it is
    attracted with its neighbors and the winner is pushed away. Without a
    second winner a labeled node is inserted, when allowed and there is
    room.
    """
    count["supervised"] += 1
    room = n < (p.n_max if p.allow_insert else 0)
    labels, acts = v.labels[:n], v.acts[:n]
    if labels[w] == label or labels[w] == NO_CLASS:
        if acts[w] < p.a_t:
            return room
        _attract_numpy(v, n, w, p)
        labels[w] = label
        _link_numpy(v, n, w, 0, p.minwd)
        return False
    ok = np.flatnonzero(((labels == label) | (labels == NO_CLASS))
                        & (acts >= p.a_t))
    if not ok.size:
        return room
    _attract_numpy(v, n, int(ok[np.argmax(acts[ok])]), p)
    v.idx[0], v.lr[0] = w, -p.push_rate
    _update_numpy(v, n, 1, 0, p.beta, p.slope)
    count["pushes"] += 1
    return False


def _train_numpy(v: SimpleNamespace, n: int, p, chunk) -> int:
    """``som_train`` in numpy, but for the insertions and the sweeps.

    Runs the presentations of the ``_kernel.Chunk`` from its position on:
    the winner search and the supervised or unsupervised step. It stops at
    a step that inserts a node (``INSERT``), or that ends a cycle
    (``SWEEP``), with the step made and the position at that presentation;
    the caller inserts, sweeps and counts it. Returns ``END`` when every
    presentation ran.
    """
    patterns, labels, draws = chunk.arrays
    count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
    code = _kernel.END
    for pos in range(count["pos"], chunk.k):
        i = draws[pos]
        v.x[:] = patterns[i]
        w = _winner_numpy(v, n)
        label = int(labels[i])
        add = (_unsupervised_numpy(v, n, p, w, count) if label == NO_CLASS
               else _supervised_numpy(v, n, p, w, label, count))
        if add or count["nwins"] == p.age_wins:
            code = _kernel.INSERT if add else _kernel.SWEEP
            break
        count["nwins"] += 1
        count["t"] += 1
    else:
        pos = chunk.k
    count["pos"], count["n"] = pos, n
    chunk.count[:] = [count[name] for name in _kernel.SLOTS]
    return code


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
        # scratch for the pattern
        self._x = np.zeros(dim)
        self._lock = threading.Lock()
        self._grow(min(node_budget, _FIRST_CAPACITY))

    def _grow(self, capacity: int) -> None:
        """Reallocate node storage for ``capacity`` nodes, keeping the nodes.

        Each array holds one row per node: the node's vectors, sums, wins,
        label and adjacency bits, its activation in the last competition,
        and scratch for an update's rows and rates.
        """
        n, m = self._n, self.dim
        with self._lock:
            for name, shape, dtype in (
                    ("_centers", (capacity, m), float),
                    ("_rel", (capacity, m), float),
                    ("_dist", (capacity, m), float),
                    ("_rel_sums", capacity, float),
                    ("_wins", capacity, np.int64),
                    ("_labels", capacity, np.int64),
                    ("_adj", (capacity, -(-capacity // 64)), np.uint64),
                    ("_acts", capacity, float), ("_lr", capacity, float),
                    ("_idx", capacity, np.intp)):
                new = np.zeros(shape, dtype)
                if n:
                    old = getattr(self, name)[:n]
                    new[tuple(map(slice, old.shape))] = old
                setattr(self, name, new)
            self._bind()

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` nodes, at most ``node_budget``."""
        capacity = len(self._centers)
        if rows > capacity:
            self._grow(min(self.node_budget, max(rows, 2 * capacity)))

    def _bind(self) -> None:
        """Choose the kernels: compiled if the library loads, else numpy.

        Arrays are only written in place between reallocations, and
        ``_grow`` binds again after each one while holding the lock, so
        the addresses taken here stay valid while a kernel uses them. The
        lock, one object for the map's lifetime, serializes the kernels'
        use of the shared scratch rows. The numpy path binds the twin of
        the training loop, ``_train_numpy``, and no classify pass
        (``None``): inference then runs its numpy twin.
        """
        arrays = dict(centers=self._centers, rel=self._rel, dist=self._dist,
                      sums=self._rel_sums, acts=self._acts, x=self._x,
                      lr=self._lr, idx=self._idx, wins=self._wins,
                      labels=self._labels, adj=self._adj)
        kernels = _kernel.bind(self.dim, ACTIVATION_EPS, self._adj.shape[1],
                               len(self._centers), **arrays)
        if kernels is None:
            view = SimpleNamespace(**arrays)
            kernels = _kernel.Kernels(
                None, functools.partial(_winner_numpy, view),
                functools.partial(_update_numpy, view),
                functools.partial(_link_numpy, view),
                functools.partial(_train_numpy, view), None)
        (self._view, self._winner, self._update, self._link,
         self._train, self._classify) = kernels

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in ("_lock", "_view", "_winner", "_update", "_link",
                     "_train", "_classify"):
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

    @property
    def labels(self) -> np.ndarray:
        """Copy of the per-node labels."""
        return self._labels[:self._n].copy()

    @property
    def wins(self) -> np.ndarray:
        """Copy of the per-node win counters."""
        return self._wins[:self._n].copy()

    @property
    def centers(self) -> np.ndarray:
        """Copy of the node centers, one row per node."""
        return self._centers[:self._n].copy()

    @property
    def relevances(self) -> np.ndarray:
        """Copy of the node relevance vectors, one row per node."""
        return self._rel[:self._n].copy()

    @property
    def connections(self) -> list[tuple[int, int]]:
        """Sorted list of connected node pairs ``(i, j)`` with ``i < j``."""
        pairs = []
        for i in range(self._n):
            nb = self.neighbor_array(i)
            pairs.extend((i, j) for j in nb[nb > i].tolist())
        return pairs

    def label_of(self, j: int) -> int:
        return int(self._labels[j])

    def _check_node(self, j: int) -> None:
        if not 0 <= j < self._n:
            raise IndexError(f"no node {j} in a map of {self._n} nodes")

    def node(self, j: int) -> Node:
        """Detached copy of node ``j``."""
        self._check_node(j)
        return Node(
            center=self._centers[j].copy(),
            relevance=self._rel[j].copy(),
            dist_avg=self._dist[j].copy(),
            wins=int(self._wins[j]),
            label=int(self._labels[j]),
        )

    def neighbors(self, j: int) -> set[int]:
        return set(self.neighbor_array(j).tolist())

    def neighbor_array(self, j: int) -> np.ndarray:
        """Neighbors of ``j`` as a sorted index array."""
        self._check_node(j)
        return np.flatnonzero(_unpack(self._adj[j])[:self._n])

    @classmethod
    def from_nodes(cls, dim: int, node_budget: int, nodes: list[Node],
                   connections: list[tuple[int, int]] = ()) -> SomMap:
        """Rebuild a map from detached nodes and an explicit connection list."""
        som = cls(dim, node_budget)
        for node in nodes:
            j = som.add_node(node.center, node.label)
            som._rel[j] = node.relevance
            som._dist[j] = node.dist_avg
            som._wins[j] = node.wins
        som._rel_sums[:som._n] = som._rel[:som._n].sum(axis=1)
        som.set_connections(connections)
        return som

    def set_connections(self, pairs: list[tuple[int, int]]) -> None:
        adj = self._adj
        adj[:self._n] = 0
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-connection on node {i}")
            if not (0 <= i < self._n and 0 <= j < self._n):
                raise ValueError(f"connection ({i}, {j}) references a dead node")
            adj[i, j // 64] |= _BIT[j % 64]
            adj[j, i // 64] |= _BIT[i % 64]

    def add_node(self, x: np.ndarray, label: int = NO_CLASS) -> int:
        """Append a fresh node centered at ``x``; relevances start at one.

        Raises:
            MapFullError: if the node budget is already exhausted.
        """
        if self.is_full:
            raise MapFullError(
                f"map already holds its budget of {self.node_budget} nodes"
            )
        x = self._pattern(x)
        j = self._n
        self._reserve(j + 1)
        self._centers[j] = x
        self._rel[j] = 1.0
        self._dist[j] = 0.0
        self._wins[j] = 0
        self._labels[j] = label
        self._rel_sums[j] = float(self.dim)
        self._n += 1
        return j

    def keep_nodes(self, indices: np.ndarray) -> None:
        """Retain exactly the nodes at ``indices`` (ascending), drop the rest.

        Connections are cleared; the caller must rebuild them.
        """
        k = len(indices)
        for arr in (self._centers, self._rel, self._dist, self._wins,
                    self._labels, self._rel_sums):
            arr[:k] = arr[indices]
        self._adj[:self._n] = 0
        self._n = k

    def reset_wins(self) -> None:
        self._wins[:self._n] = 0

    def set_label(self, j: int, label: int) -> None:
        self._labels[j] = label

    # -- competition -------------------------------------------------------

    def _pattern(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"pattern has shape {x.shape}, map expects ({self.dim},)")
        return x

    def _compete(self, x: np.ndarray) -> int:
        """Fill the activation row for ``x``; returns its argmax.

        Ties go to the lowest index. The caller holds the lock.
        """
        n = self._n
        if n == 0:
            raise ValueError("map has no nodes")
        self._x[:] = x
        return self._winner(n)

    def activations(self, x: np.ndarray) -> np.ndarray:
        """Activation of every node for pattern ``x``."""
        x = self._pattern(x)
        with self._lock:
            self._compete(x)
            return self._acts[:self._n].copy()

    def find_winner(self, x: np.ndarray) -> tuple[int, float]:
        """Most activated node for ``x``; ties go to the lowest index."""
        x = self._pattern(x)
        with self._lock:
            j = self._compete(x)
            return j, float(self._acts[j])

    def find_winner_for_class(self, x: np.ndarray, label: int,
                              a_t: float) -> int | None:
        """Most activated node compatible with ``label`` and above threshold.

        Only nodes carrying ``label`` or no label at all qualify, and their
        activation must reach ``a_t`` (inclusive). Returns ``None`` when no
        node qualifies.
        """
        x = self._pattern(x)
        with self._lock:
            self._compete(x)
            acts = self._acts[:self._n]
            lab = self._labels[:self._n]
            ok = ((lab == label) | (lab == NO_CLASS)) & (acts >= a_t)
            if not ok.any():
                return None
            idx = np.flatnonzero(ok)
            return int(idx[np.argmax(acts[idx])])

    # -- adaptation --------------------------------------------------------

    def update_node(self, j: int, x: np.ndarray, lr: float, beta: float,
                    slope: float) -> None:
        """Apply the node-update step to node ``j`` in place.

        Raises:
            TypeError: if ``j`` is not an integer (a bool included).
            IndexError: if ``j`` is not a node of the map.
        """
        if isinstance(j, bool):
            raise TypeError("node index must be an integer, got a bool")
        j = operator.index(j)
        x = self._pattern(x)
        with self._lock:
            self._idx[0] = j
            self._lr[0] = lr
            self._run_update(x, 1, 0, beta, slope)

    def update_nodes(self, indices, x: np.ndarray, lr,
                     beta: float, slope: float) -> None:
        """Apply the node-update step to several rows, in the given order.

        ``lr`` may be a scalar or one rate per row, e.g. a
        ``(len(indices), 1)`` column. A batch equals the same updates
        applied one by one with ``update_node``; a row listed twice is
        updated twice. At most ``node_budget`` rows fit in one call.

        Raises:
            TypeError: if the indices are not integers (bools included).
            IndexError: if an index is not a node of the map.
        """
        idx = np.asarray(indices)
        k = idx.size
        if not k:
            return
        if idx.dtype.kind not in "iu":
            raise TypeError(f"node indices must be integers, got {idx.dtype}")
        if k > self.node_budget:
            raise ValueError(f"{k} rows to update, more than the map's "
                             f"budget of {self.node_budget}")
        flat = idx.reshape(-1)
        if flat.dtype.kind == "u" and flat.max() >= self._n:
            # named before the cast to intp, which would wrap it
            raise IndexError(f"no node {flat[flat >= self._n][0]} in a map "
                             f"of {self._n} nodes")
        self._reserve(k)
        rates = np.asarray(lr, dtype=float)
        if rates.ndim:
            rates = rates.reshape(k, 1)
        x = self._pattern(x)
        with self._lock:
            self._idx[:k] = flat
            self._lr[:rates.size] = rates.ravel()
            self._run_update(x, k, int(rates.size > 1), beta, slope)

    def _run_update(self, x: np.ndarray, k: int, lr_step: int, beta: float,
                    slope: float) -> None:
        """Update the ``k`` rows in ``_idx``; the caller holds the lock."""
        self._x[:] = x
        if self._update(self._n, k, lr_step, beta, slope):
            bad = [j for j in self._idx[:k].tolist() if not 0 <= j < self._n]
            raise IndexError(f"no node {bad[0]} in a map of {self._n} nodes")

    # -- neighborhood ------------------------------------------------------

    def rebuild_connections(self, minwd: float) -> None:
        """Recompute the full connection set from the pairwise predicate."""
        n = self._n
        with self._lock:
            self._adj[:n] = 0
            for j in range(n - 1):
                self._link(n, j, j + 1, minwd)

    def rewire_node(self, j: int, minwd: float) -> None:
        """Recompute only the connections incident to node ``j``."""
        self._check_node(j)
        with self._lock:
            self._link(self._n, j, 0, minwd)

    # -- training ----------------------------------------------------------

    def _run_presentations(self, params, chunk) -> int:
        """Present a ``_kernel.Chunk`` in the training loop: ``som_train``,
        which inserts and prunes nodes in place, or ``_train_numpy``.

        Returns ``_kernel.END``, ``INSERT`` or ``SWEEP``.
        """
        with self._lock:
            code = self._train(self._n, params, chunk)
            self._n = int(chunk.count[-1])  # the "n" slot
            return code
