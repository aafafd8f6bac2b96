"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from semisom import (NO_CLASS, REJECTED, DataFormatError, Dataset,
                     Prediction, SomMap)
from semisom.data import (_ATTRIBUTE_RE, _NOMINAL_RE, _require_finite,
                          _strip_quotes)
from semisom.model import _distances
from semisom.persistence import FORMAT_NAME, FORMAT_VERSION


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
    rows = []
    for _ in range(n):
        label = int(rng.integers(-1, 4)) if labeled else NO_CLASS
        rows.append((rng.random(m), rng.random(m), rng.random(m),
                     int(rng.integers(0, 10)), label))
    centers, relevances, dist_avgs, wins, labels = map(np.array, zip(*rows))
    return SomMap.from_arrays(max(n, 4), centers, relevances, dist_avgs,
                              wins, labels)


_FIELDS = ("center", "relevance", "dist_avg", "wins", "label")


def node_at(center, relevance=None, dist_avg=None, label=NO_CLASS,
            wins=0) -> dict:
    """One node's fields for ``map_of``: relevances of one and distance
    averages of zero unless given."""
    center = np.asarray(center, dtype=float)
    return dict(center=center,
                relevance=np.ones_like(center) if relevance is None
                else np.asarray(relevance, dtype=float),
                dist_avg=np.zeros_like(center) if dist_avg is None
                else np.asarray(dist_avg, dtype=float),
                wins=wins, label=label)


def map_of(node_budget: int, nodes, connections=()) -> SomMap:
    """``SomMap.from_arrays`` of the ``node_at`` rows ``nodes``."""
    return SomMap.from_arrays(
        node_budget, *(np.array([nd[key] for nd in nodes]) for key in _FIELDS),
        connections)


def weighted_distance(x, center, relevance) -> float:
    """The distance kernel the map's winner search runs, for one node."""
    return float(_distances(np.asarray(center, dtype=float)[None],
                            np.asarray(relevance, dtype=float)[None], x)[0])


# Independent re-implementations of the math kernels, in plain Python.

def brute_activation(x, center, relevance, eps: float = 1e-7) -> float:
    dist = math.sqrt(sum(w * (a - c) ** 2
                         for a, c, w in zip(x, center, relevance)))
    mass = sum(relevance)
    return mass / (mass + dist + eps)


def brute_winner(som: SomMap, x) -> tuple[int, float]:
    best, best_act = 0, -1.0
    for j, (center, relevance) in enumerate(zip(som.centers,
                                                som.relevances)):
        act = brute_activation(x, center, relevance)
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


def reference_model_text(som: SomMap, params, norm_stats=None,
                         class_names=()) -> str:
    """The model file ``save_model`` writes, less its final newline, as
    ``json`` renders the document."""
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "params": asdict(params),
        "norm_stats": None if norm_stats is None else {
            "mins": norm_stats.mins.tolist(),
            "maxs": norm_stats.maxs.tolist(),
        },
        "classes": list(class_names),
        "nodes": [
            {
                "center": center,
                "relevance": relevance,
                "dist_avg": dist_avg,
                "wins": wins,
                "label": label,
            }
            for center, relevance, dist_avg, wins, label in zip(
                som.centers.tolist(), som.relevances.tolist(),
                som.dist_avgs.tolist(), som.wins.tolist(),
                som.labels.tolist())
        ],
        "connections": [list(pair) for pair in som.connections],
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


def reference_load_arff(path) -> Dataset:
    """The ARFF loader row by row: ``csv`` records and ``float()`` per cell."""
    path = Path(path)
    attrs: list[tuple[str, list[str] | None]] = []  # (name, nominal values)
    rows: list[tuple[int, list[str]]] = []
    in_data = False
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data and line.startswith("@"):
                head, _, rest = line.partition(" ")
                keyword = head.lower()
                if keyword == "@relation":
                    continue
                if keyword == "@data":
                    in_data = True
                    continue
                if keyword == "@attribute":
                    decl = _ATTRIBUTE_RE.match(rest.strip())
                    if decl is None:
                        raise DataFormatError(
                            f"{path}:{lineno}: malformed attribute declaration")
                    name = _strip_quotes(decl.group(1))
                    spec = decl.group(2).strip()
                    nominal = _NOMINAL_RE.match(spec)
                    if nominal:
                        values = [_strip_quotes(v.strip())
                                  for v in nominal.group(1).split(",")]
                        attrs.append((name, values))
                    elif spec.lower() in ("numeric", "real", "integer"):
                        attrs.append((name, None))
                    else:
                        raise DataFormatError(
                            f"{path}:{lineno}: unsupported attribute type "
                            f"{spec!r}")
                    continue
                raise DataFormatError(
                    f"{path}:{lineno}: unknown directive {head!r}")
            if in_data:
                rows.append((lineno, next(csv.reader([line]))))
            else:
                raise DataFormatError(
                    f"{path}:{lineno}: data before @data section")
    if not attrs:
        raise DataFormatError(f"{path}: no attribute declarations")

    class_idx = next((i for i, (name, _) in enumerate(attrs)
                      if name.lower() == "class"), len(attrs) - 1)
    class_name, class_values = attrs[class_idx]
    if class_values is None:
        raise DataFormatError(
            f"{path}: class attribute {class_name!r} is not nominal")
    for name, values in attrs:
        if values is not None and name != class_name:
            raise DataFormatError(
                f"{path}: non-numeric feature attribute {name!r}")
    feature_idx = [i for i in range(len(attrs)) if i != class_idx]
    if not feature_idx:
        raise DataFormatError(f"{path}: no numeric feature attributes")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")

    value_ids = {v: i for i, v in enumerate(class_values)}
    patterns = np.empty((len(rows), len(feature_idx)))
    labels = np.empty(len(rows), dtype=np.int64)
    for r, (lineno, fields) in enumerate(rows):
        if len(fields) != len(attrs):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(attrs)} fields, "
                f"got {len(fields)}")
        for c, i in enumerate(feature_idx):
            try:
                patterns[r, c] = float(fields[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value {fields[i]!r} in "
                    f"attribute {attrs[i][0]!r}") from None
        token = _strip_quotes(fields[class_idx].strip())
        if token not in value_ids:
            raise DataFormatError(
                f"{path}:{lineno}: undeclared class value {token!r}")
        labels[r] = value_ids[token]
    _require_finite(path, patterns, rows, [attrs[i][0] for i in feature_idx])
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(class_values),
        dim_names=tuple(attrs[i][0] for i in feature_idx),
    )


def reference_load_csv(path, label_column: str | None = None) -> Dataset:
    """The CSV loader row by row: ``csv`` records and ``float()`` per cell;
    errors name the line a record starts on."""
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        table, lineno = [], 1
        for row in reader:
            if row:
                table.append((lineno, row))
            lineno = reader.line_num + 1
    if not table:
        raise DataFormatError(f"{path}: empty file")
    _, header = table[0]
    header = [h.strip() for h in header]
    if label_column is not None:
        if label_column not in header:
            raise DataFormatError(
                f"{path}: no column named {label_column!r}")
        class_idx = header.index(label_column)
    else:
        class_idx = next((i for i, h in enumerate(header)
                          if h.lower() == "class"), None)
    feature_idx = [i for i in range(len(header)) if i != class_idx]
    if not feature_idx:
        raise DataFormatError(f"{path}: no feature columns")
    body = table[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")

    class_names: list[str] = []
    value_ids: dict[str, int] = {}
    patterns = np.empty((len(body), len(feature_idx)))
    labels = np.full(len(body), NO_CLASS, dtype=np.int64)
    for r, (lineno, fields) in enumerate(body):
        if len(fields) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, "
                f"got {len(fields)}")
        for c, i in enumerate(feature_idx):
            try:
                patterns[r, c] = float(fields[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value {fields[i]!r} in "
                    f"column {header[i]!r}") from None
        if class_idx is not None:
            token = fields[class_idx].strip()
            if token not in value_ids:
                value_ids[token] = len(class_names)
                class_names.append(token)
            labels[r] = value_ids[token]
    if not np.isfinite(patterns).all():
        r, c = np.argwhere(~np.isfinite(patterns))[0]
        raise DataFormatError(
            f"{path}:{body[r][0]}: non-finite value {patterns[r, c]} in "
            f"{header[feature_idx[c]]!r}")
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(class_names),
        dim_names=tuple(header[i] for i in feature_idx),
    )


def brute_connected(relevances, labels, i: int, j: int,
                    minwd: float) -> bool:
    """Whether nodes ``i`` and ``j`` of the given rows qualify as
    neighbors."""
    a, b = labels[i], labels[j]
    if a != NO_CLASS and b != NO_CLASS and a != b:
        return False
    gap = math.sqrt(sum((p - q) ** 2 for p, q in zip(relevances[i],
                                                     relevances[j])))
    return gap < minwd * math.sqrt(len(relevances[i]))


def brute_connections(som: SomMap, minwd: float) -> list[tuple[int, int]]:
    rel, labels = som.relevances.tolist(), som.labels.tolist()
    return [(i, j) for i in range(som.n_nodes)
            for j in range(i + 1, som.n_nodes)
            if brute_connected(rel, labels, i, j, minwd)]
