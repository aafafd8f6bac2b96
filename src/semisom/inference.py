"""Cluster assignment and classification over a trained map.

Bulk classification works on blocks of patterns. BLAS multiplies a block
by the node rows, twice, in float32 (sgemm); those products give an upper
bound on every (pattern, node) activation, computed in double with a
margin for every float rounding (derived in ``_kernel.c``). One pass per
block then recomputes exactly, in double with the map's own activation
kernel, only the pairs whose bound can still decide the outcome, and
applies the classification rule to them. The pass is ``som_classify`` of
``_kernel.c`` when the map has the compiled kernels and its numpy twin
``_classify_block`` otherwise. The twin bounds every pair in double from
the float products; ``som_classify`` first rules out most pairs with a
float32 test on float lanes, with margins of its own, and bounds the
pairs it keeps as the twin does. Either way the result is bit for bit the
one a pattern-by-pattern search over ``SomMap.activations`` gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (NO_CLASS, SomMap, _act_of_sq, _activations, _real,
                    _require_finite)

# Classification outcome when no labeled node is activated above threshold.
REJECTED = -2

# Byte size of one (patterns x nodes) float32 product; a block takes as
# many patterns as fit, and a handful of such arrays (the two products, the
# twin's double copies of them) are alive at once.
_BLOCK_BYTES = 1 << 20

# The float32 screen's proof (see _kernel.c) holds for relevances of 0 or
# in [_REL_MIN, _REL_MAX] and for at most _MAX_DIMS dimensions. A smaller
# positive relevance counts as 0 in the screen, which only lowers its
# distance; a node with a relevance outside [0, _REL_MAX] gets NaN bounds,
# which keep every pair a candidate, and so does every node of a map of
# more dimensions.
_REL_MIN = 2.0 ** -126
_REL_MAX = 16.0
_MAX_DIMS = 2 ** 21 - 4


def _guard(m: int) -> float:
    """The largest |x| and |c| the screen takes in ``m`` dimensions:
    rows and nodes holding a larger value get NaN bounds. Below it no
    float32 product or partial sum overflows (16 m guard^2 <= 2^124), and
    (c - x)^2 stays finite in double, so a zero relevance zeroes its term
    of the exact sum."""
    return 2.0 ** ((120 - (m - 1).bit_length()) // 2)


@dataclass(frozen=True)
class Prediction:
    """Outcome of classifying one pattern.

    Attributes:
        node: Index of the node that produced the label, or ``None`` when
            the pattern was rejected.
        label: Predicted class id, or ``REJECTED``.
        activation: Activation of ``node``; for rejections, the activation
            of the overall winner.
    """

    node: int | None
    label: int
    activation: float


def _check_threshold(a_t: float) -> None:
    """``ValueError`` unless the activation threshold ``a_t`` lies in
    (0, 1), as ``HyperParams.validate`` requires of it."""
    if not math.isfinite(a_t):
        raise ValueError(f"a_t must be finite, got {a_t}")
    if not 0.0 < a_t < 1.0:
        raise ValueError(f"a_t must lie in (0, 1), got {a_t}")


def cluster(som: SomMap, x: np.ndarray, a_t: float) -> tuple[int, float] | None:
    """Assign ``x`` to the most activated node, or ``None`` for outliers.

    A pattern is an outlier when even the winner's activation stays below
    ``a_t``. A pattern holding ``nan`` or ``inf``, or an ``a_t`` outside
    (0, 1), raises ``ValueError``.
    """
    _check_threshold(a_t)
    x = _real(x, "pattern")
    _require_finite(x.reshape(1, -1))
    winner, act = som.find_winner(x)
    if act < a_t:
        return None
    return winner, act


def classify(som: SomMap, x: np.ndarray, a_t: float) -> Prediction:
    """Predict a class label for ``x``: ``classify_batch`` of one row."""
    x = _real(x, "pattern")
    if x.shape != (som.dim,):
        raise ValueError(f"pattern has shape {x.shape}, map expects "
                         f"({som.dim},)")
    return classify_batch(som, x[None], a_t)[0]


def classify_batch(som: SomMap, patterns: np.ndarray,
                   a_t: float) -> list[Prediction]:
    """Predict a class label for each row of ``patterns``.

    The most activated node wins, ties going to the lowest index. A
    labeled winner decides immediately, at any activation. An unlabeled
    winner defers to the most activated labeled node that still reaches
    ``a_t`` (inclusive). When no such node exists the pattern is rejected;
    a rejection is never silently mapped to a class.

    Results are exact: equal, activation bits included, to running that
    rule on ``som.activations(x)`` for each row, whatever the block split
    or the BLAS library. Rows holding ``nan`` or ``inf`` raise
    ``ValueError`` naming the first such row; an ``a_t`` outside (0, 1)
    raises it too.
    """
    node, label, act = _classify_arrays(som, patterns, a_t)
    return [Prediction(None if j < 0 else j, lab, a)
            for j, lab, a in zip(node.tolist(), label.tolist(),
                                 act.tolist())]


def _classify_arrays(som: SomMap, patterns: np.ndarray, a_t: float):
    """Node (``-1`` for a rejection), label and activation of each row."""
    _check_threshold(a_t)
    x = _real(patterns, "patterns")
    if x.ndim != 2 or x.shape[1] != som.dim:
        raise ValueError(f"patterns have shape {x.shape}, map expects "
                         f"(k, {som.dim})")
    _require_finite(x)
    n = som.n_nodes
    if n == 0:
        raise ValueError("map has no nodes")
    x = np.ascontiguousarray(x)
    nodes = _NodeArrays(som)
    outside = None
    if x.size and (x.max() > nodes.guard or x.min() < -nodes.guard):
        outside = (np.abs(x) > nodes.guard).any(axis=1)
    block = max(1, _BLOCK_BYTES // (4 * n))
    node = np.empty(len(x), dtype=np.intp)
    label = np.empty(len(x), dtype=nodes.labels.dtype)
    act = np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x), block):
            part = slice(start, start + block)
            xb = x[part]
            # the screen's two float32 products per pair, -2 <x, r c> and
            # |x|_r^2, from the block cast to float32
            x32 = xb.astype(np.float32)
            d = x32 @ nodes.cross32.T
            x32 *= x32
            q = x32 @ nodes.rel32.T
            if outside is not None:
                q[outside[part]] = np.nan
            nodes.classify(xb, q, d, a_t, node[part], label[part], act[part])
    return node, label, act


class _NodeArrays:
    """Per-node operands of the screen, computed once per batch."""

    def __init__(self, som: SomMap):
        n = som.n_nodes
        self.centers = som._arrays.centers[:n]
        self.rel = som._arrays.rel[:n]
        self.mass = som._arrays.sums[:n]
        self.labels = som._arrays.labels[:n]
        self.labeled = self.labels != NO_CLASS
        self.unlabeled = ~self.labeled
        m = self.rel.shape[1]
        self.guard = _guard(m)
        # Nodes inside the proof's range; the others keep zero float rows
        # and get NaN bounds, so they are never screened out.
        safe = ((self.rel >= 0.0) & (self.rel <= _REL_MAX)
                & (np.abs(self.centers) <= self.guard)).all(axis=1)
        if m > _MAX_DIMS:
            safe[:] = False
        rel = np.where(self.rel >= _REL_MIN, self.rel, 0.0)
        rel[~safe] = 0.0
        rc = rel * self.centers
        # the float32 operands of the two products: r and -2 r c
        self.rel32 = rel.astype(np.float32)
        self.cross32 = (-2.0 * rc).astype(np.float32)
        # |c|_r^2 in double, over the screen's relevances
        self.sq = np.einsum("ij,ij->i", rc, self.centers)
        self.sq[~safe] = np.nan
        # The margin of the bound (see _kernel.c): slack per unit of
        # |x|_r^2 + |c|_r^2, and the floor m 2^-100 for float underflow.
        self.slack = 4.0 * (m + 4) * 2.0 ** -24
        self.sq_floor = self.sq + m * 2.0 ** -100 / self.slack
        # the block pass, bound to these operands: the map's compiled one,
        # else the numpy twin
        self.classify = (functools.partial(_classify_block, self)
                         if som._classify is None else som._classify(self))


def _exact(nodes: _NodeArrays, x: np.ndarray, r: np.ndarray,
           c: np.ndarray) -> np.ndarray:
    """Activations of the pairs (``x[r]``, node ``c``), by the map's kernel."""
    return _activations(nodes.centers[c], nodes.rel[c], nodes.mass[c], x[r])


def _classify_block(nodes: _NodeArrays, x: np.ndarray, q: np.ndarray,
                    d: np.ndarray, a_t: float, node: np.ndarray,
                    label: np.ndarray, act: np.ndarray) -> None:
    """Winner, label and activation of each row into ``node``, ``label``
    and ``act``; node ``-1`` marks a rejection.

    ``q`` and ``d`` are the rows' float32 products ``(x32 * x32) @
    rel32.T`` and ``x32 @ cross32.T``. The numpy twin of ``som_classify``
    and its reference.
    """
    # Screen: an upper bound on every pair's activation, from the expanded
    # form d2 = |x|_r^2 - 2 <x, r c> + |c|_r^2 less its error bound, in
    # double from the products' values.
    q = q.astype(np.float64)
    d = d.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        d += q
        d += nodes.sq
        q += nodes.sq_floor
        q *= nodes.slack
        d -= q
        hi = _act_of_sq(np.maximum(d, 0.0, out=d), nodes.mass)

    # The exact activation of the node with the highest bound is a lower
    # bound on the winner's, and a labeled node at or above a_t one on the
    # fallback's. NaN bounds compare false, so ~(hi < bound) keeps them.
    rows = np.arange(len(x))
    cand = ~(hi < _exact(nodes, x, rows, hi.argmax(axis=1))[:, None])
    open_rows = np.flatnonzero((cand & nodes.unlabeled).any(axis=1))
    if len(open_rows):
        hi = np.where(nodes.labeled, hi[open_rows], -np.inf)
        j = hi.argmax(axis=1)
        known = _exact(nodes, x, open_rows, j)
        sure = np.where(nodes.labeled[j] & (known >= a_t), known, -np.inf)
        cand[open_rows] |= ~(hi < a_t) & ~(hi < sure[:, None])

    # Exact activations of the candidates decide.
    flat = np.flatnonzero(cand)
    r, c = np.divmod(flat, cand.shape[1])
    exact = np.full(cand.shape, -np.inf)
    exact.flat[flat] = _exact(nodes, x, r, c)
    node[:] = exact.argmax(axis=1)
    act[:] = exact[rows, node]
    label[:] = nodes.labels[node]

    fall = np.flatnonzero(label == NO_CLASS)
    if len(fall):
        sub = exact[fall]
        ok = cand[fall] & nodes.labeled & (sub >= a_t)
        sub[~ok] = -np.inf
        j = sub.argmax(axis=1)
        hit = ok[np.arange(len(fall)), j]
        take = fall[hit]
        node[take] = j[hit]
        act[take] = sub[hit, j[hit]]
        label[take] = nodes.labels[j[hit]]
        miss = fall[~hit]
        node[miss] = -1
        label[miss] = REJECTED
