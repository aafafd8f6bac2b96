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

from . import _kernel
from .data import DataFormatError, NormStats, _require_classes
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

    The file is ``json.dumps(doc, indent=1, sort_keys=True,
    allow_nan=False)`` of the model document and a final newline, and is
    always one ``load_model`` reads: a map without nodes, a ``nan`` or
    ``inf`` anywhere in the model, or a node label outside
    ``[NO_CLASS, len(class_names))`` raises ``ValueError`` before
    anything is written.

    Under ``indent``, ``json`` runs its pure-Python encoder, so the node
    list goes in by ``_kernel.write_nodes``, between the brackets of an
    empty one after ``_NODES_OPEN``, whose line break no JSON string holds.
    Without a library, ``json`` writes the whole document.
    """
    n = som.n_nodes
    if not n:
        raise ValueError("model holds no nodes")
    _require_classes(som.labels, len(class_names), "node")
    v = som._arrays
    rows = (v.centers[:n], v.dist[:n], v.labels[:n], v.rel[:n], v.wins[:n])
    nodes = _kernel.write_nodes(*rows)
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        # numpy scalars, which validate() accepts and json does not,
        # become the Python numbers of the same value
        "params": {name: value.item() if isinstance(value, np.generic)
                   else value for name, value in asdict(params).items()},
        "norm_stats": None if norm_stats is None else {
            "mins": norm_stats.mins.tolist(),
            "maxs": norm_stats.maxs.tolist()},
        "classes": list(class_names),
        "nodes": [] if nodes is not None else [
            dict(center=c, dist_avg=d, label=label, relevance=r, wins=w)
            for c, d, label, r, w in zip(*(a.tolist() for a in rows))],
        "connections": som.connections,
    }
    text = json.dumps(doc, indent=1, sort_keys=True,
                      allow_nan=False).encode("ascii") + b"\n"
    at = text.index(_NODES_OPEN) + len(_NODES_OPEN)
    with open(path, "wb") as f:
        f.writelines([text] if nodes is None else
                     [text[:at], nodes, b"\n ", text[at:]])


def load_model(path) -> TrainedModel:
    """Read a model file written by ``save_model``.

    A file whose node list stands exactly as ``save_model`` writes it has
    its nodes read by the compiled reader (``_read_saved``); any other file,
    or any doubt, goes to ``json`` whole. Both give the same model, or the
    same error.

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
    read = _read_saved(Path(path).read_bytes())
    if read is None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
        columns = None
    else:
        doc, columns = read
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
    if columns is None:
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
            max(params.n_max, len(columns[0])), *columns,
            _read_connections(doc["connections"]))
        _require_classes(som.labels, len(classes), "node")
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return TrainedModel(som=som, params=params, norm_stats=norm_stats,
                        class_names=classes)


# The node list as save_model writes it stands between these bytes: the
# raw line breaks, which no JSON string holds, tie them to the layout.
_NODES_OPEN, _NODES_CLOSE = b'\n "nodes": [', b'\n ],\n "norm_stats"'


def _read_saved(raw: bytes) -> tuple[dict, list[np.ndarray]] | None:
    """The model document of the file ``raw``, with an empty node list,
    and the node columns in the order of ``_read_columns``, when the node
    list stands as ``save_model`` writes it; ``None`` otherwise.

    The node list goes to ``_kernel.read_nodes``, and the rest of the file
    to ``json`` as two objects: the bytes before the list closed by
    ``[]}``, and ``{`` and the bytes after the list's ``,``. The first
    parses only when ``"nodes"`` is a key of the top-level object, and the
    second must not hold that key again, so the two objects together are
    the document ``json`` reads from the whole file, but for its nodes.
    Never raises: on any failure, ``load_model`` reads the file as before,
    with ``json``.
    """
    start = raw.find(_NODES_OPEN) + len(_NODES_OPEN)
    end = raw.find(_NODES_CLOSE, start)
    if start < len(_NODES_OPEN) or end < 0:
        return None
    nodes = _kernel.read_nodes(raw, start, end)
    if nodes is None:
        return None
    try:
        doc = json.loads(raw[:start - 1].decode("utf-8") + "[]}")
        rest = json.loads("{" + raw[end + 4:].decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return None
    if "nodes" in rest:
        return None
    doc.update(rest)
    return doc, [nodes[key] for key in _NODE_KEYS]


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


def _read_connections(pairs) -> list:
    """The JSON pairs of integers; ``SomMap.from_arrays`` checks them.
    Its caller puts the path in front of the message."""
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(j) is int for j in pair)):
            raise ValueError(f"connection {pair!r} is not a pair of node ids")
    return pairs


_NODE_KEYS = ("center", "relevance", "dist_avg", "wins", "label")


def _read_columns(path, specs: list) -> list[np.ndarray]:
    """The node fields in the order of ``SomMap.from_arrays``: float
    ``(n, dim)`` vectors, read node by node by ``_vector`` (``dim`` of node
    0's center), then object arrays of the JSON wins and labels."""
    try:
        columns = [[spec[key] for spec in specs] for key in _NODE_KEYS]
    except (KeyError, TypeError):  # a node that is no object, or lacks a key
        for j, spec in enumerate(specs):
            _check_keys(path, f"node {j}: ", spec, _NODE_KEYS)
        raise
    dim = len(columns[0][0]) if isinstance(columns[0][0], list) else 0
    return ([np.array([_vector(path, f"node {j} {key}", v, dim)
                       for j, v in enumerate(values)])
             for key, values in zip(_NODE_KEYS, columns[:3])]
            + [np.fromiter(values, object, len(specs))
               for values in columns[3:]])


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
