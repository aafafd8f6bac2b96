"""Versioned JSON persistence for trained maps.

The file bundles everything inference needs: the training parameters, the
normalization ranges, the class dictionary and the full node/connection
state. Floats are serialized at round-trip precision, so save/load/save
produces byte-identical files and identical predictions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import _kernel
from .data import DataFormatError, NormStats
from .model import HyperParams, SomMap

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

    The file is always one ``load_model`` reads: a map without nodes, or
    a ``nan`` or ``inf`` anywhere in the model, raises ``ValueError``
    before anything is written.
    """
    if not som.n_nodes:
        raise ValueError("model holds no nodes")
    parts = _model_parts(som, params, norm_stats, class_names)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(parts)


# Where the node list goes in the rendered document: JSON text never
# holds a raw NUL.
_NODES = "\0"


def _model_parts(som: SomMap, params: HyperParams,
                 norm_stats: NormStats | None,
                 class_names: tuple[str, ...]) -> list[str]:
    """The model file in parts, in order: the model as ``json.dumps(doc,
    indent=1, sort_keys=True, allow_nan=False)`` writes it, rendered
    directly from the known schema, and a final newline. The map holds at
    least one node.

    ``json`` falls back to its pure-Python encoder under ``indent``, and
    spends most of a save formatting the node vectors. Here the compiled
    formatter, ``_kernel.format_rows``, writes each vector whole, every
    float as ``float.__repr__`` (and so ``json``) writes it; without a
    library, ``float.__repr__`` itself writes them (``_vector_rows``).
    Each node object is then one template filled in, and is one part of
    its own, so the node texts, nearly all of a file, are never joined
    into one string. Strings and parameters still go through ``json``.
    ``tests/helpers.reference_model_text`` is the ``json`` form.
    """
    vectors = {"center": som.centers, "dist_avg": som.dist_avgs,
               "relevance": som.relevances}
    for values in vectors.values():
        if not np.isfinite(values).all():
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
    centers, dists, rels = map(_vector_rows, vectors.values())
    node = _object([("center", "%s"), ("dist_avg", "%s"), ("label", "%d"),
                    ("relevance", "%s"), ("wins", "%d")], 2)
    nodes = [node % fields for fields in zip(
        centers, dists, som.labels.tolist(), rels, som.wins.tolist())]
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
    head, tail = _object([
        ("classes", _list([json.dumps(c) for c in class_names], 1)),
        ("connections", _list([_list([repr(i), repr(j)], 2)
                               for i, j in som.connections], 1)),
        ("format", json.dumps(FORMAT_NAME)),
        ("format_version", repr(FORMAT_VERSION)),
        ("nodes", _NODES),
        ("norm_stats", stats),
        ("params", param_text),
    ], 0).split(_NODES)
    # _list(nodes, 1), one part per node and separator
    parts = [head + "[\n  "]
    for text in nodes:
        parts += [text, ",\n  "]
    parts[-1] = "\n ]" + tail + "\n"
    return parts


def _vector_rows(values: np.ndarray) -> list[str]:
    """Each row of the finite float array ``values`` as the JSON array of a
    node vector, by the compiled formatter; without a library, by
    ``float.__repr__``, its mirror."""
    rows = _kernel.format_rows(values)
    if rows is None:
        rows = [_list(list(map(float.__repr__, row)), 3)
                for row in values.tolist()]
    return rows


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
    if not doc["nodes"]:
        raise ValueError(f"{path}: model holds no nodes")
    columns = _read_columns(path, doc["nodes"])
    stats = doc["norm_stats"]
    norm_stats = None
    if stats is not None:
        _check_keys(path, "norm_stats: ", stats, ("mins", "maxs"))
        norm_stats = NormStats(*(
            _vector(path, f"norm_stats {name}", stats[name],
                    columns[0].shape[1]) for name in ("mins", "maxs")))
        inverted = np.flatnonzero(norm_stats.mins > norm_stats.maxs)
        if inverted.size:
            i = int(inverted[0])
            raise DataFormatError(
                f"{path}: norm_stats: column {i} has min "
                f"{norm_stats.mins[i]!r} above max {norm_stats.maxs[i]!r}")
    try:
        som = SomMap.from_arrays(
            max(params.n_max, len(doc["nodes"])), *columns,
            _read_connections(path, doc["connections"]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if (som.labels >= len(classes)).any():
        j = np.argmax(som.labels >= len(classes))
        raise DataFormatError(f"{path}: node {j} has label {som.labels[j]}, "
                              f"outside the {len(classes)} classes")
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


def _read_connections(path, pairs) -> list:
    """The JSON pairs of integers; ``SomMap.from_arrays`` checks them."""
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(j) is int for j in pair)):
            raise DataFormatError(
                f"{path}: connection {pair!r} is not a pair of node ids")
    return pairs


_NODE_KEYS = ("center", "relevance", "dist_avg", "wins", "label")


def _read_columns(path, specs: list) -> list[np.ndarray]:
    """The node fields in the order of ``SomMap.from_arrays``, each read
    across all nodes as one array: float ``(n, dim)`` vectors (``dim`` of
    node 0's center), then object arrays of the JSON wins and labels."""
    try:
        columns = [[spec[key] for spec in specs] for key in _NODE_KEYS]
    except (KeyError, TypeError):  # a node that is no object, or lacks a key
        for j, spec in enumerate(specs):
            _check_keys(path, f"node {j}: ", spec, _NODE_KEYS)
        raise
    dim = len(columns[0][0]) if isinstance(columns[0][0], list) else 0
    return ([_vector_column(path, key, values, dim)
             for key, values in zip(_NODE_KEYS, columns[:3])]
            + [np.fromiter(values, object, len(specs))
               for values in columns[3:]])


def _vector_column(path, key: str, values: list, dim: int) -> np.ndarray:
    """A column of JSON vectors as one float array. Only a column that
    fails is read again node by node, to name the first node at fault."""
    if (set(map(type, values)) <= {list} and set(map(len, values)) == {dim}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
    return np.array([_vector(path, f"node {j} {key}", v, dim)
                     for j, v in enumerate(values)])


def _vector(path, what: str, values, dim: int) -> np.ndarray:
    """A JSON array of ``dim`` finite numbers as a float vector; a boolean,
    a string or a nested array is not a number."""
    if not (isinstance(values, list)
            and set(map(type, values)) <= {int, float}):
        raise DataFormatError(f"{path}: {what} is not an array of numbers")
    try:
        vector = np.array(values, dtype=float)
    except OverflowError:
        raise DataFormatError(f"{path}: {what} holds a non-finite "
                              f"value") from None
    if vector.shape != (dim,):
        raise DataFormatError(
            f"{path}: {what} has shape {vector.shape}, expected ({dim},)")
    if not np.isfinite(vector).all():
        raise DataFormatError(f"{path}: {what} holds a non-finite value")
    return vector
