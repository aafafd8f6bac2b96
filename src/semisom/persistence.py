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

from .data import NormStats
from .model import HyperParams, Node, SomMap

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
    """Read a model file written by ``save_model``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {doc.get('format_version')}")
    params = HyperParams(**doc["params"])
    nodes = [
        Node(
            center=np.asarray(spec["center"], dtype=float),
            relevance=np.asarray(spec["relevance"], dtype=float),
            dist_avg=np.asarray(spec["dist_avg"], dtype=float),
            wins=int(spec["wins"]),
            label=int(spec["label"]),
        )
        for spec in doc["nodes"]
    ]
    if not nodes:
        raise ValueError(f"{path}: model holds no nodes")
    dim = nodes[0].center.shape[0]
    budget = max(params.n_max, len(nodes))
    som = SomMap.from_nodes(dim, budget, nodes,
                            [tuple(pair) for pair in doc["connections"]])
    stats = doc["norm_stats"]
    norm_stats = None if stats is None else NormStats(
        mins=np.asarray(stats["mins"], dtype=float),
        maxs=np.asarray(stats["maxs"], dtype=float),
    )
    return TrainedModel(som=som, params=params, norm_stats=norm_stats,
                        class_names=tuple(doc["classes"]))
