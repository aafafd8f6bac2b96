"""Versioned JSON persistence for trained maps.

The file bundles everything inference needs: the training parameters, the
normalization ranges, the class dictionary and the full node/connection
state. Floats are serialized at round-trip precision, so save/load/save
produces byte-identical files and identical predictions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import DataFormatError, NormStats
from .model import NO_CLASS, HyperParams, Node, SomMap

FORMAT_NAME = "semisom-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    """A trained map together with its inference context."""

    som: SomMap
    params: HyperParams
    norm_stats: NormStats | None
    class_names: tuple[str, ...]


def save_model(path, som: SomMap, params: HyperParams, *,
               norm_stats: NormStats | None = None,
               class_names: tuple[str, ...] = ()) -> None:
    """Write a model file; overwrites any existing file at ``path``.

    The file is always standard JSON: a ``nan`` or ``inf`` anywhere in the
    model raises ``ValueError`` before anything is written.
    """
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
                "center": node.center.tolist(),
                "relevance": node.relevance.tolist(),
                "dist_avg": node.dist_avg.tolist(),
                "wins": node.wins,
                "label": node.label,
            }
            for node in (som.node(j) for j in range(som.n_nodes))
        ],
        "connections": [list(pair) for pair in som.connections],
    }
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path) -> TrainedModel:
    """Read a model file written by ``save_model``.

    Raises:
        ValueError: if the file is not a model file of this format version.
        DataFormatError: if its content is inconsistent: vectors of unequal
            length, a label outside the class list, normalization ranges
            of the wrong length, a value that is not finite, or parameters
            that fail ``HyperParams.validate``.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {doc.get('format_version')}")
    params = HyperParams(**doc["params"])
    try:
        params.validate()
    except ValueError as exc:
        raise DataFormatError(f"{path}: params: {exc}") from None
    classes = tuple(doc["classes"])
    nodes = [_read_node(path, j, spec) for j, spec in enumerate(doc["nodes"])]
    if not nodes:
        raise ValueError(f"{path}: model holds no nodes")
    dim = len(nodes[0].center)
    for j, node in enumerate(nodes):
        _check_node(path, j, node, dim, len(classes))
    stats = doc["norm_stats"]
    norm_stats = None if stats is None else NormStats(
        mins=np.asarray(stats["mins"], dtype=float),
        maxs=np.asarray(stats["maxs"], dtype=float),
    )
    if norm_stats is not None:
        for name, values in (("mins", norm_stats.mins),
                             ("maxs", norm_stats.maxs)):
            _check_vector(path, f"norm_stats {name}", values, dim)
    budget = max(params.n_max, len(nodes))
    som = SomMap.from_nodes(dim, budget, nodes,
                            [tuple(pair) for pair in doc["connections"]])
    return TrainedModel(som=som, params=params, norm_stats=norm_stats,
                        class_names=classes)


def _read_node(path, j: int, spec: dict) -> Node:
    try:
        return Node(
            center=np.asarray(spec["center"], dtype=float),
            relevance=np.asarray(spec["relevance"], dtype=float),
            dist_avg=np.asarray(spec["dist_avg"], dtype=float),
            wins=int(spec["wins"]),
            label=int(spec["label"]),
        )
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: node {j}: {exc}") from None


def _check_node(path, j: int, node: Node, dim: int, n_classes: int) -> None:
    for name in ("center", "relevance", "dist_avg"):
        _check_vector(path, f"node {j} {name}", getattr(node, name), dim)
    if node.label != NO_CLASS and not 0 <= node.label < n_classes:
        raise DataFormatError(
            f"{path}: node {j} has label {node.label}, outside the "
            f"{n_classes} classes")


def _check_vector(path, what: str, values: np.ndarray, dim: int) -> None:
    if values.shape != (dim,):
        raise DataFormatError(
            f"{path}: {what} has shape {values.shape}, expected ({dim},)")
    if not np.isfinite(values).all():
        raise DataFormatError(f"{path}: {what} holds a non-finite value")
