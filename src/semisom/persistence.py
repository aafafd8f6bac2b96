"""Versioned JSON persistence for trained maps.

The file bundles everything inference needs: the training parameters, the
normalization ranges, the class dictionary and the full node/connection
state. Floats are serialized at round-trip precision, so save/load/save
produces byte-identical files and identical predictions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
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
    text = _model_text(som, params, norm_stats, class_names)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _model_text(som: SomMap, params: HyperParams,
                norm_stats: NormStats | None,
                class_names: tuple[str, ...]) -> str:
    """The model as ``json.dumps(doc, indent=1, sort_keys=True,
    allow_nan=False)`` writes it, rendered directly from the known schema.

    ``json`` falls back to its pure-Python encoder under ``indent``, and
    spends most of a save formatting the node vectors; here each float is
    ``float.__repr__``, as ``json`` writes it, joined at its indent.
    Strings and parameters still go through ``json``.
    ``tests/helpers.reference_model_text`` is the ``json`` form.
    """
    n = som.n_nodes
    vectors = {"center": som._centers[:n], "dist_avg": som._dist[:n],
               "relevance": som._rel[:n]}
    for values in vectors.values():
        if not np.isfinite(values).all():
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
    centers, dists, rels = ([_list(list(map(float.__repr__, row)), 3)
                             for row in values.tolist()]
                            for values in vectors.values())
    nodes = [_object([("center", center), ("dist_avg", dist),
                      ("label", repr(label)), ("relevance", rel),
                      ("wins", repr(wins))], 2)
             for center, dist, rel, label, wins in zip(
                 centers, dists, rels, som._labels[:n].tolist(),
                 som._wins[:n].tolist())]
    stats = "null" if norm_stats is None else _object(
        [(name, _list([json.dumps(v, allow_nan=False)
                       for v in getattr(norm_stats, name).tolist()], 2))
         for name in ("maxs", "mins")], 1)
    # a flat object of scalars: json's own text, one level deeper; numpy
    # scalars, which validate() accepts and json does not, become the
    # Python numbers of the same value
    values = {name: v.item() if isinstance(v, np.generic) else v
              for name, v in asdict(params).items()}
    param_text = json.dumps(values, indent=1, sort_keys=True,
                            allow_nan=False).replace("\n", "\n ")
    return _object([
        ("classes", _list([json.dumps(c) for c in class_names], 1)),
        ("connections", _list([_list([repr(i), repr(j)], 2)
                               for i, j in som.connections], 1)),
        ("format", json.dumps(FORMAT_NAME)),
        ("format_version", repr(FORMAT_VERSION)),
        ("nodes", _list(nodes, 1)),
        ("norm_stats", stats),
        ("params", param_text),
    ], 0)


def _list(items: list[str], depth: int) -> str:
    """A JSON array of rendered ``items`` whose brackets sit at ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


def _object(pairs: list[tuple[str, str]], depth: int) -> str:
    """A JSON object of (key, rendered value) pairs at ``depth``; the
    schema's keys are plain names, which JSON quotes as they are."""
    inner = "\n" + " " * (depth + 1)
    return ("{" + inner + ("," + inner).join(
        f'"{key}": {text}' for key, text in pairs)
        + "\n" + " " * depth + "}")


def load_model(path) -> TrainedModel:
    """Read a model file written by ``save_model``.

    Raises:
        ValueError: if the file is not a model file of this format version,
            or holds no nodes.
        DataFormatError: if it is not valid JSON or its content is
            inconsistent: a missing or unknown key, a value of the wrong
            JSON type (class names are strings, vectors arrays of numbers,
            labels, wins and node ids integers, booleans being none of
            these), vectors of unequal length, a label outside the class
            list, wins outside ``[0, 2**63)``, normalization ranges of the
            wrong length or with a minimum above the maximum, a value that
            is not finite, a connection that names a missing node, repeats
            a pair or joins a node to itself, or parameters that fail
            ``HyperParams.validate``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {doc.get('format_version')}")
    _check_keys(path, "", doc, _MODEL_KEYS)
    _check_keys(path, "params: ", doc["params"], _PARAM_KEYS, exact=True)
    params = HyperParams(**doc["params"])
    try:
        params.validate()
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: params: {exc}") from None
    classes = doc["classes"]
    if not (isinstance(classes, list)
            and all(isinstance(name, str) for name in classes)):
        raise DataFormatError(f"{path}: classes is not a list of names")
    classes = tuple(classes)
    for key in ("nodes", "connections"):
        if not isinstance(doc[key], list):
            raise DataFormatError(f"{path}: {key} is not a list")
    nodes = [_read_node(path, j, spec) for j, spec in enumerate(doc["nodes"])]
    if not nodes:
        raise ValueError(f"{path}: model holds no nodes")
    dim = len(nodes[0].center)
    if dim == 0:
        raise DataFormatError(f"{path}: node vectors are empty")
    for j, node in enumerate(nodes):
        _check_node(path, j, node, dim, len(classes))
    stats = doc["norm_stats"]
    norm_stats = None
    if stats is not None:
        _check_keys(path, "norm_stats: ", stats, ("mins", "maxs"))
        norm_stats = NormStats(
            *(_numbers(path, f"norm_stats {name}", stats[name])
              for name in ("mins", "maxs")))
        for name, values in (("mins", norm_stats.mins),
                             ("maxs", norm_stats.maxs)):
            _check_vector(path, f"norm_stats {name}", values, dim)
        inverted = np.flatnonzero(norm_stats.mins > norm_stats.maxs)
        if inverted.size:
            i = int(inverted[0])
            raise DataFormatError(
                f"{path}: norm_stats: column {i} has min "
                f"{norm_stats.mins[i]!r} above max {norm_stats.maxs[i]!r}")
    budget = max(params.n_max, len(nodes))
    som = SomMap.from_nodes(dim, budget, nodes,
                            _read_connections(path, doc["connections"],
                                              len(nodes)))
    return TrainedModel(som=som, params=params, norm_stats=norm_stats,
                        class_names=classes)


_MODEL_KEYS = ("params", "norm_stats", "classes", "nodes", "connections")
_PARAM_KEYS = tuple(f.name for f in fields(HyperParams))


def _check_keys(path, where: str, doc, keys, exact: bool = False) -> None:
    """``doc`` must be an object holding ``keys`` (and, if exact, no more)."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: {where}expected an object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise DataFormatError(f"{path}: {where}missing key {missing[0]!r}")
    unknown = sorted(set(doc) - set(keys)) if exact else []
    if unknown:
        raise DataFormatError(f"{path}: {where}unknown key {unknown[0]!r}")


def _read_connections(path, pairs, n: int) -> list[tuple[int, int]]:
    """Connection pairs of distinct, existing nodes, each pair once."""
    seen: set[tuple[int, int]] = set()
    out = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(j) is int for j in pair)):
            raise DataFormatError(
                f"{path}: connection {pair!r} is not a pair of node ids")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise DataFormatError(
                f"{path}: connection ({i}, {j}) names a node outside the "
                f"{n} nodes")
        if i == j:
            raise DataFormatError(
                f"{path}: connection ({i}, {j}) joins a node to itself")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DataFormatError(
                f"{path}: connection ({i}, {j}) is listed twice")
        seen.add(key)
        out.append((i, j))
    return out


_NODE_KEYS = ("center", "relevance", "dist_avg", "wins", "label")


def _read_node(path, j: int, spec) -> Node:
    _check_keys(path, f"node {j}: ", spec, _NODE_KEYS)
    for key in ("wins", "label"):
        if type(spec[key]) is not int:
            raise DataFormatError(f"{path}: node {j}: {key} "
                                  f"{spec[key]!r} is not an integer")
    if not 0 <= spec["wins"] < 2 ** 63:
        raise DataFormatError(f"{path}: node {j}: wins {spec['wins']} "
                              f"outside [0, 2**63)")
    return Node(*(_numbers(path, f"node {j} {key}", spec[key])
                  for key in ("center", "relevance", "dist_avg")),
                wins=spec["wins"], label=spec["label"])


def _numbers(path, what: str, values) -> np.ndarray:
    """A JSON array of numbers as a float vector; a boolean, a string or a
    nested array is not a number."""
    if not (isinstance(values, list)
            and set(map(type, values)) <= {int, float}):
        raise DataFormatError(f"{path}: {what} is not an array of numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise DataFormatError(f"{path}: {what} holds a non-finite "
                              f"value") from None


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
