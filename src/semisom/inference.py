"""Cluster assignment and classification over a trained map.

Bulk classification works on blocks of patterns. BLAS multiplies a block
by the node rows, twice; those products give an upper bound on every
(pattern, node) activation. One pass per block then recomputes exactly,
with the map's own activation kernel, only the pairs whose bound can still
decide the outcome, and applies the classification rule to them. The pass
is ``som_classify`` of ``_kernel.c`` when the map has the compiled kernels
and its numpy twin ``_classify_block`` otherwise. Either way the result is
bit for bit the one a pattern-by-pattern search over ``SomMap.activations``
gives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (ACTIVATION_EPS, NO_CLASS, SomMap, _activations,
                    _require_finite)

# Classification outcome when no labeled node is activated above threshold.
REJECTED = -2

# Byte size of one (patterns x nodes) float temporary; a block takes as
# many patterns as fit, and a handful of such arrays are alive at once.
_BLOCK_BYTES = 1 << 20

_U = np.finfo(float).eps / 2  # unit roundoff
_TINY = np.finfo(float).smallest_subnormal
# Below this magnitude in x and c, (c - x)^2 < 2^1022 stays finite, so a
# zero relevance zeroes its term of the exact sum. At or above it the term
# may be 0 * inf = NaN, which the screen's expanded form never shows: such
# rows and nodes get NaN bounds, which keep every pair a candidate.
_HUGE = 2.0 ** 510


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


def cluster(som: SomMap, x: np.ndarray, a_t: float) -> tuple[int, float] | None:
    """Assign ``x`` to the most activated node, or ``None`` for outliers.

    A pattern is an outlier when even the winner's activation stays below
    ``a_t``. A pattern holding ``nan`` or ``inf`` raises ``ValueError``.
    """
    _require_finite(np.asarray(x, dtype=float).reshape(1, -1))
    winner, act = som.find_winner(x)
    if act < a_t:
        return None
    return winner, act


def classify(som: SomMap, x: np.ndarray, a_t: float) -> Prediction:
    """Predict a class label for ``x``: ``classify_batch`` of one row."""
    x = np.asarray(x, dtype=float)
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
    ``ValueError`` naming the first such row.
    """
    node, label, act = _classify_arrays(som, patterns, a_t)
    return [Prediction(None if j < 0 else j, lab, a)
            for j, lab, a in zip(node.tolist(), label.tolist(),
                                 act.tolist())]


def _classify_arrays(som: SomMap, patterns: np.ndarray, a_t: float):
    """Node (``-1`` for a rejection), label and activation of each row."""
    x = np.asarray(patterns, dtype=float)
    if x.ndim != 2 or x.shape[1] != som.dim:
        raise ValueError(f"patterns have shape {x.shape}, map expects "
                         f"(k, {som.dim})")
    _require_finite(x)
    n = som.n_nodes
    if n == 0:
        raise ValueError("map has no nodes")
    x = np.ascontiguousarray(x)
    huge = None
    if x.size and (x.max() >= _HUGE or x.min() <= -_HUGE):
        huge = (np.abs(x) >= _HUGE).any(axis=1)
    nodes = _NodeArrays(som)
    block = max(1, _BLOCK_BYTES // (8 * n))
    node = np.empty(len(x), dtype=np.intp)
    label = np.empty(len(x), dtype=nodes.labels.dtype)
    act = np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x), block):
            part = slice(start, start + block)
            xb = x[part]
            # the screen's two products: |x|_r^2 and -2 <x, r c> per pair
            q = (xb * xb) @ nodes.rel.T
            d = xb @ nodes.cross.T
            if huge is not None:
                q[huge[part]] = np.nan
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
        # -2 r c, the cross term of the expanded form
        self.cross = -2.0 * self.rel * self.centers
        # |c|_r^2; the error bound needs r >= 0, so a node with a negative
        # relevance gets NaN bounds and is never screened out, and so does
        # one whose exact sum may turn NaN (see _HUGE)
        self.sq = np.einsum("ij,ij->i", self.rel * self.centers, self.centers)
        self.sq[((self.rel < 0.0) | (np.abs(self.centers) >= _HUGE))
                .any(axis=1)] = np.nan
        # Bound on the rounding of both the screen's expanded form and the
        # exact kernel's sum: each within gamma_{m+3} (|x|_r + |c|_r)^2,
        # gamma_k ~ k u, and (a + b)^2 <= 2 (a^2 + b^2). The floor covers
        # results rounded into the subnormal range.
        m = self.rel.shape[1]
        self.slack = 5.0 * (m + 4) * _U
        self.sq_floor = self.sq + 8.0 * (m + 4) * _TINY / self.slack
        # the block pass, bound to these operands: the map's compiled one,
        # else the numpy twin
        self.classify = (functools.partial(_classify_block, self)
                         if som._classify is None else som._classify(self))


def _act_of_sq(sq: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Activation from a squared distance, rounded as ``_activations`` does.

    Every step is monotone, so bounds on the squared distance give bounds
    on the activation the kernel computes.
    """
    dist = np.sqrt(sq, out=sq)
    dist += mass
    dist += ACTIVATION_EPS
    return np.divide(mass, dist, out=dist)


def _exact(nodes: _NodeArrays, x: np.ndarray, r: np.ndarray,
           c: np.ndarray) -> np.ndarray:
    """Activations of the pairs (``x[r]``, node ``c``), by the map's kernel."""
    return _activations(nodes.centers[c], nodes.rel[c], nodes.mass[c], x[r],
                        ACTIVATION_EPS)


def _classify_block(nodes: _NodeArrays, x: np.ndarray, q: np.ndarray,
                    d: np.ndarray, a_t: float, node: np.ndarray,
                    label: np.ndarray, act: np.ndarray) -> None:
    """Winner, label and activation of each row into ``node``, ``label``
    and ``act``; node ``-1`` marks a rejection.

    ``q`` and ``d`` are the rows' products ``(x * x) @ rel.T`` and
    ``x @ cross.T``, overwritten. The numpy twin of ``som_classify`` and
    its reference.
    """
    # Screen: an upper bound on every pair's activation, from the expanded
    # form d2 = |x|_r^2 - 2 <x, r c> + |c|_r^2 less its error bound.
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
