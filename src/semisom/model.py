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

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

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
        """Raise ``ValueError`` if any parameter is outside its domain."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
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


def weighted_distance(x: np.ndarray, node: Node) -> float:
    """Distance from ``x`` to a node's center, weighting each dimension.

    With all relevances at one this is the Euclidean distance; dimensions
    with zero relevance are ignored entirely.
    """
    x = _check_pattern(x, node)
    return float(_distances(node.center[None], node.relevance[None], x)[0])


def activation(x: np.ndarray, node: Node, eps: float = ACTIVATION_EPS) -> float:
    """Radial-basis response of a node to a pattern, in [0, 1).

    Grows toward one as the weighted distance shrinks and as the relevance
    mass grows; a node with all-zero relevance never activates.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = _check_pattern(x, node)
    rel = node.relevance[None]
    return float(_activations(node.center[None], rel, rel.sum(axis=1), x,
                              eps)[0])


def update_node(node: Node, x: np.ndarray, lr: float, beta: float,
                slope: float) -> Node:
    """Move a node toward (or, with negative ``lr``, away from) a pattern.

    In order: the distance average absorbs ``|x - center|`` at rate
    ``lr * beta`` and is clamped at zero from below (a negative rate can
    drive the average negative), the relevances are recomputed from it, and
    the center finally steps by ``lr`` along ``x - center``. The node is
    modified in place and returned.
    """
    x = _check_pattern(x, node)
    node.relevance = _shift_vectors(node.center, node.dist_avg, x, lr, beta,
                                    slope)
    return node


def connected(a: Node, b: Node, minwd: float) -> bool:
    """Whether two nodes qualify as neighbors.

    Requires label compatibility (equal labels, or at least one side
    unlabeled) and relevance profiles closer than ``minwd * sqrt(m)``.
    """
    return bool(_linked(a.relevance[None], np.array([a.label]), b.relevance,
                        b.label, minwd)[0])


def _check_pattern(x, node: Node) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != node.center.shape:
        raise ValueError(
            f"pattern has shape {x.shape}, node expects {node.center.shape}"
        )
    return x


def _relevances(dist_avg: np.ndarray, slope: float) -> np.ndarray:
    """Relevance transform along the last axis; ``slope`` is not checked.

    Works on the transpose, so the statistics of a row batch broadcast
    without reshaping and those of a single vector stay numpy scalars.
    """
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
    """Relevance-weighted distance from ``x`` to each row of ``centers``."""
    diff = centers - x
    np.multiply(diff, diff, out=diff)
    dist = np.einsum("ij,ij->i", rel, diff)
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
    """Which rows of ``(rel, labels)`` qualify as neighbors of ``(r, label)``."""
    diff = rel - r
    gap = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    compat = (labels == label) | (labels == NO_CLASS) | (label == NO_CLASS)
    return compat & (gap < minwd * math.sqrt(rel.shape[-1]))


def _shift_vectors(centers: np.ndarray, dist_avg: np.ndarray, x: np.ndarray,
                   lr, beta: float, slope: float) -> np.ndarray:
    """Shared node-update kernel; mutates ``centers``/``dist_avg`` in place.

    Works on a single node (1-D arrays) or a batch of rows (2-D arrays with
    ``x`` broadcast). ``lr`` may be a scalar or a per-row column so one
    batch can mix learning rates. Returns the recomputed relevance array.
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


class SomMap:
    """Growable map of prototype nodes with relevance-based connections.

    Nodes are addressed by their index in insertion order; removals compact
    the index range. Storage is preallocated up to ``node_budget`` so the
    hot training loops work on contiguous array slices.
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
        self._centers = np.zeros((node_budget, dim))
        self._rel = np.ones((node_budget, dim))
        self._dist = np.zeros((node_budget, dim))
        self._wins = np.zeros(node_budget, dtype=np.int64)
        self._labels = np.full(node_budget, NO_CLASS, dtype=np.int64)
        self._adj: list[set[int]] = []
        # caches for the training hot loop
        self._rel_sums = np.zeros(node_budget)
        self._nbr: list[np.ndarray | None] = []

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
        pairs = [(i, j) for i in range(self._n) for j in self._adj[i] if i < j]
        return sorted(pairs)

    def label_of(self, j: int) -> int:
        return int(self._labels[j])

    def node(self, j: int) -> Node:
        """Detached copy of node ``j``."""
        if not 0 <= j < self._n:
            raise IndexError(f"no node {j} in a map of {self._n} nodes")
        return Node(
            center=self._centers[j].copy(),
            relevance=self._rel[j].copy(),
            dist_avg=self._dist[j].copy(),
            wins=int(self._wins[j]),
            label=int(self._labels[j]),
        )

    def neighbors(self, j: int) -> set[int]:
        return set(self._adj[j])

    def neighbor_array(self, j: int) -> np.ndarray:
        """Neighbors of ``j`` as a sorted index array (cached)."""
        arr = self._nbr[j]
        if arr is None:
            arr = np.fromiter(self._adj[j], dtype=np.intp,
                              count=len(self._adj[j]))
            arr.sort()
            self._nbr[j] = arr
        return arr

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
        self._adj = [set() for _ in range(self._n)]
        self._nbr = [None] * self._n
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-connection on node {i}")
            if not (0 <= i < self._n and 0 <= j < self._n):
                raise ValueError(f"connection ({i}, {j}) references a dead node")
            self._adj[i].add(j)
            self._adj[j].add(i)

    def add_node(self, x: np.ndarray, label: int = NO_CLASS) -> int:
        """Append a fresh node centered at ``x``; relevances start at one.

        Raises:
            MapFullError: if the node budget is already exhausted.
        """
        if self.is_full:
            raise MapFullError(
                f"map already holds its budget of {self.node_budget} nodes"
            )
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"pattern has shape {x.shape}, map expects ({self.dim},)")
        j = self._n
        self._centers[j] = x
        self._rel[j] = 1.0
        self._dist[j] = 0.0
        self._wins[j] = 0
        self._labels[j] = label
        self._rel_sums[j] = float(self.dim)
        self._adj.append(set())
        self._nbr.append(None)
        self._n += 1
        return j

    def keep_nodes(self, indices: np.ndarray) -> None:
        """Retain exactly the nodes at ``indices`` (ascending), drop the rest.

        Connections are invalidated; the caller must rebuild them.
        """
        k = len(indices)
        for arr in (self._centers, self._rel, self._dist):
            arr[:k] = arr[indices]
        self._wins[:k] = self._wins[indices]
        self._labels[:k] = self._labels[indices]
        self._rel_sums[:k] = self._rel_sums[indices]
        self._n = k
        self._adj = [set() for _ in range(k)]
        self._nbr = [None] * k

    def record_win(self, j: int) -> None:
        self._wins[j] += 1

    def reset_wins(self) -> None:
        self._wins[:self._n] = 0

    def set_label(self, j: int, label: int) -> None:
        self._labels[j] = label

    # -- competition -------------------------------------------------------

    def activations(self, x: np.ndarray) -> np.ndarray:
        """Activation of every node for pattern ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"pattern has shape {x.shape}, map expects ({self.dim},)")
        n = self._n
        if n == 0:
            raise ValueError("map has no nodes")
        return _activations(self._centers[:n], self._rel[:n],
                            self._rel_sums[:n], x, ACTIVATION_EPS)

    def find_winner(self, x: np.ndarray) -> tuple[int, float]:
        """Most activated node for ``x``; ties go to the lowest index."""
        acts = self.activations(x)
        j = int(np.argmax(acts))
        return j, float(acts[j])

    def find_winner_for_class(self, x: np.ndarray, label: int,
                              a_t: float) -> int | None:
        """Most activated node compatible with ``label`` and above threshold.

        Only nodes carrying ``label`` or no label at all qualify, and their
        activation must reach ``a_t`` (inclusive). Returns ``None`` when no
        node qualifies.
        """
        acts = self.activations(x)
        lab = self._labels[:self._n]
        ok = ((lab == label) | (lab == NO_CLASS)) & (acts >= a_t)
        if not ok.any():
            return None
        idx = np.flatnonzero(ok)
        return int(idx[np.argmax(acts[idx])])

    # -- adaptation --------------------------------------------------------

    def update_node(self, j: int, x: np.ndarray, lr: float, beta: float,
                    slope: float) -> None:
        """Apply the node-update step to node ``j`` in place."""
        rel = _shift_vectors(self._centers[j], self._dist[j],
                             np.asarray(x, dtype=float), lr, beta, slope)
        self._rel[j] = rel
        self._rel_sums[j] = rel.sum()

    def update_nodes(self, indices, x: np.ndarray, lr,
                     beta: float, slope: float) -> None:
        """Apply the node-update step to several nodes at once.

        ``lr`` may be a scalar or a ``(len(indices), 1)`` column of per-node
        rates; rows are independent, so a batch equals the same updates
        applied one by one.
        """
        if not len(indices):
            return
        idx = np.asarray(indices, dtype=np.intp)
        centers = self._centers[idx]
        dist = self._dist[idx]
        rel = _shift_vectors(centers, dist, np.asarray(x, dtype=float), lr,
                             beta, slope)
        self._centers[idx] = centers
        self._dist[idx] = dist
        self._rel[idx] = rel
        self._rel_sums[idx] = rel.sum(axis=1)

    # -- neighborhood ------------------------------------------------------

    def rebuild_connections(self, minwd: float) -> None:
        """Recompute the full connection set from the pairwise predicate."""
        n = self._n
        rel = self._rel[:n]
        lab = self._labels[:n]
        self._adj = []
        for i in range(n):
            linked = _linked(rel, lab, rel[i], lab[i], minwd)
            linked[i] = False
            self._adj.append(set(np.flatnonzero(linked).tolist()))
        self._nbr = [None] * n

    def rewire_node(self, j: int, minwd: float) -> None:
        """Recompute only the connections incident to node ``j``."""
        n = self._n
        linked = _linked(self._rel[:n], self._labels[:n], self._rel[j],
                         self._labels[j], minwd)
        linked[j] = False
        fresh = set(np.flatnonzero(linked).tolist())
        stale = self._adj[j]
        for k in stale - fresh:
            self._adj[k].discard(j)
            self._nbr[k] = None
        for k in fresh - stale:
            self._adj[k].add(j)
            self._nbr[k] = None
        self._adj[j] = fresh
        self._nbr[j] = None
