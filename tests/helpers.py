"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from semisom import NO_CLASS, REJECTED, Dataset, Node, Prediction, SomMap


def make_blobs(n_per_class: int, centers, sigma: float, seed: int,
               class_names=None) -> Dataset:
    """Gaussian blobs clipped to [0, 1], one class per center."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    k, dim = centers.shape
    patterns = np.vstack([
        rng.normal(loc=c, scale=sigma, size=(n_per_class, dim))
        for c in centers
    ])
    labels = np.repeat(np.arange(k), n_per_class)
    if class_names is None:
        class_names = tuple(f"c{i}" for i in range(k))
    return Dataset(patterns=np.clip(patterns, 0.0, 1.0), labels=labels,
                   class_names=class_names,
                   dim_names=tuple(f"f{i}" for i in range(dim)))


def make_synthetic(n: int = 300, dim: int = 10, informative: int = 4,
                   clusters: int = 3, sigma: float = 0.05,
                   seed: int = 0) -> Dataset:
    """Clusters living in a subspace, the remaining dimensions pure noise.

    The first ``informative`` dimensions carry well-separated Gaussian
    clusters; the rest are uniform noise. Serves as an independent oracle
    for separation and relevance-learning checks.
    """
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.uniform(0.15, 0.85, size=(clusters, informative))
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(centers)
                for b in centers[i + 1:]]
        if min(gaps) >= 0.35:
            break
    assign = np.repeat(np.arange(clusters), -(-n // clusters))[:n]
    patterns = rng.uniform(0.0, 1.0, size=(n, dim))
    patterns[:, :informative] = centers[assign] + rng.normal(
        0.0, sigma, size=(n, informative))
    return Dataset(patterns=np.clip(patterns, 0.0, 1.0), labels=assign,
                   class_names=tuple(f"k{i}" for i in range(clusters)),
                   dim_names=tuple(f"f{i}" for i in range(dim)))


def random_map(rng: np.random.Generator, n_nodes: int | None = None,
               dim: int | None = None, labeled: bool = True) -> SomMap:
    """Map with random centers/relevances/labels for oracle comparisons."""
    n = n_nodes or int(rng.integers(1, 13))
    m = dim or int(rng.integers(1, 9))
    nodes = []
    for _ in range(n):
        label = int(rng.integers(-1, 4)) if labeled else NO_CLASS
        nodes.append(Node(
            center=rng.random(m),
            relevance=rng.random(m),
            dist_avg=rng.random(m),
            wins=int(rng.integers(0, 10)),
            label=label,
        ))
    return SomMap.from_nodes(m, max(n, 4), nodes)


# Independent re-implementations of the math kernels, in plain Python.

def brute_activation(x, center, relevance, eps: float = 1e-7) -> float:
    dist = math.sqrt(sum(w * (a - c) ** 2
                         for a, c, w in zip(x, center, relevance)))
    mass = sum(relevance)
    return mass / (mass + dist + eps)


def brute_winner(som: SomMap, x) -> tuple[int, float]:
    best, best_act = 0, -1.0
    for j in range(som.n_nodes):
        node = som.node(j)
        act = brute_activation(x, node.center, node.relevance)
        if act > best_act:
            best, best_act = j, act
    return best, best_act


def reference_classify(som: SomMap, x, a_t: float) -> Prediction:
    """The classification rule on ``SomMap.activations``, one pattern."""
    acts = som.activations(x)
    winner = int(np.argmax(acts))
    labels = som.labels
    if labels[winner] != NO_CLASS:
        return Prediction(winner, int(labels[winner]), float(acts[winner]))
    ok = (labels != NO_CLASS) & (acts >= a_t)
    if ok.any():
        idx = np.flatnonzero(ok)
        j = int(idx[np.argmax(acts[idx])])
        return Prediction(j, int(labels[j]), float(acts[j]))
    return Prediction(None, REJECTED, float(acts[winner]))


def brute_connected(a: Node, b: Node, minwd: float) -> bool:
    if a.label != NO_CLASS and b.label != NO_CLASS and a.label != b.label:
        return False
    gap = math.sqrt(sum((p - q) ** 2 for p, q in zip(a.relevance,
                                                     b.relevance)))
    return gap < minwd * math.sqrt(len(a.relevance))


def brute_connections(som: SomMap, minwd: float) -> list[tuple[int, int]]:
    pairs = []
    for i in range(som.n_nodes):
        for j in range(i + 1, som.n_nodes):
            if brute_connected(som.node(i), som.node(j), minwd):
                pairs.append((i, j))
    return pairs
