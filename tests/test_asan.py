"""The kernels under AddressSanitizer.

The ``ubsan`` builds check the bounds of fixed-size arrays only. An
overrun of a heap block, such as the float32 shadow that ``som_train``
allocates for its screened search, shows at best as a crash of the test
process. The ``asan`` build of ``tests/conftest.py`` checks every heap
access, but its library loads only into a process that starts with libasan
preloaded, so this test starts one. The child trains two screened maps, of
20 dimensions (so the shadow's rows carry 4 dimensions of padding) and of
36 dimensions (5 chunks of 8, the last one partial) on projected clusters,
whose blocks stop after the chunks of every partial sum, and a plain one
(8 dimensions), each through insertions into full storage,
pruning sweeps and links across three adjacency words, saves and
classifies with each, writes its node list through the model node writer
(``som_write_nodes``), reads the saved node list back through the model
reader (``som_read_nodes``) and writes the classification through the
predictions writer (``som_write_predictions``), then loads the loader
fuzz seeds and their mutations through the scanner (``som_scan``), and
scans numbers whose digits run to the last byte of a text, each text in a
buffer of exactly its length: a ``bytes`` object keeps a NUL byte past
its last one, so only such a buffer shows a load that reaches one byte
too far. The reader's outputs and the writers' outputs are buffers of
exactly their length too, and a node list of the longest texts fills the
buffer ``_kernel.write_nodes`` allocates. It prints what
it got. Its Python allocates through ``malloc``. It must report no
AddressSanitizer error and the package library's results, bit for bit.

Run as a script, ``python tests/test_asan.py DIR``, this module is that
child: it builds the ``asan`` library in DIR and prints one JSON line per
map and one for the loaded files.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from semisom import (DataFormatError, Dataset, HyperParams, _kernel,
                     classify_batch, load_arff, load_csv, mask_labels,
                     persistence, save_model, train_with_state)
from semisom.cli import _csv_field
from semisom.inference import REJECTED, _classify_arrays
from conftest import BUILDS
from test_loader_fuzz import ARFF, CSV

CLASSES, CENTERS = 24, 220
# The map whose classes each live on 12 of its dimensions.
PROJECTED = 36


def _run(m: int):
    """Six noisy draws of each of ``CENTERS`` centers in ``m`` dimensions,
    of ``CLASSES`` classes, 70 % labelled. A high ``a_t`` inserts a node
    at each new center, past the storage's doublings and three bit words
    of 64 nodes, and the sweeps keep the nodes that have won. In
    ``PROJECTED`` dimensions each class lives on its own 12 dimensions
    and the others are uniform noise over [0.45, 0.55], so that the nodes'
    relevances gather on the 12 and the screened search stops blocks after
    partial sums."""
    rng = np.random.default_rng(m)
    idx = np.tile(np.arange(CENTERS), 6)
    centers = rng.random((CENTERS, m))
    patterns = centers[idx] + rng.normal(0.0, 0.01, size=(len(idx), m))
    labels = rng.integers(CLASSES, size=CENTERS)[idx]
    if m == PROJECTED:
        on = np.zeros((CLASSES, m), bool)
        for c in range(CLASSES):
            on[c, rng.choice(m, size=12, replace=False)] = True
        noise = 0.45 + 0.1 * rng.random(patterns.shape)
        patterns = np.where(on[labels], patterns, noise)
    ds = Dataset(patterns=np.clip(patterns, 0.0, 1.0), labels=labels,
                 class_names=tuple(f"c{i}" for i in range(CLASSES)),
                 dim_names=tuple(f"f{i}" for i in range(m)))
    params = HyperParams(a_t=0.99, lp=1e-4, beta=0.1, age_wins=700,
                         e_b=0.05, push_rate=0.01, e_n=0.01, eps_beta=0.05,
                         minwd=0.5, epochs=1, n_max=len(idx), seed=m)
    return mask_labels(ds, 0.7, m), params


def _results(tmp: Path) -> list[dict]:
    """Per map: the node count, storage rows, insertions, sweeps, the
    highest linked node, and the sha256 of its model file and of its
    classification of training patterns and outliers; then ``_loaded``."""
    out = []
    for m in (20, 8, PROJECTED):
        ds, params = _run(m)
        state = train_with_state(ds, params)
        som = state.som
        path = tmp / f"model-{m}.json"
        save_model(path, som, params, class_names=ds.class_names)
        queries = np.vstack([ds.patterns,
                             np.random.default_rng(0).random((50, m))])
        predicted = classify_batch(som, queries, params.a_t)
        raw = path.read_bytes()
        out.append({
            "dim": m, "nodes": som.n_nodes,
            "rows": len(som._arrays.centers),
            "insertions": state.stats.insertions,
            "resets": state.stats.resets,
            "top_link": max(max(pair) for pair in som.connections),
            "model": hashlib.sha256(path.read_bytes()).hexdigest(),
            "classified": hashlib.sha256(repr(predicted).encode()).hexdigest(),
            "read": _read_exactly(raw),
            "written_nodes": _nodes_exactly(som, raw),
            "written": _written_exactly(som, queries, params.a_t,
                                        ds.class_names),
        })
    return out + [_loaded(tmp), _scanned()]


def _exact(data: bytes) -> np.ndarray:
    """``data`` in a buffer of exactly its length."""
    return np.frombuffer(data, np.uint8).copy()


def _read_exactly(raw: bytes) -> list:
    """The sha256 of what ``som_read_nodes`` reads from the node list of
    the model file ``raw``, the list in a buffer of exactly its length,
    into arrays of exactly the values it reads, the same as
    ``_kernel.read_nodes`` reads from the file; and how many of the list's
    first 4,000 prefixes, each in a buffer of exactly its length, it reads
    (those that end a node) rather than refuses."""
    start = raw.index(persistence._NODES_OPEN) + len(persistence._NODES_OPEN)
    end = raw.index(persistence._NODES_CLOSE)
    nodes = _kernel.read_nodes(raw, start, end)
    n, m = nodes["center"].shape
    block = _exact(raw[start:end])
    vectors, ints = np.empty((n, 3, m)), np.empty((n, 2), np.int64)
    dim = np.zeros(1, np.intp)
    assert _kernel.compiled().som_read_nodes(
        block.ctypes.data, len(block), vectors.size, vectors.ctypes.data,
        ints.ctypes.data, dim.ctypes.data) == n and dim[0] == m
    for i, key in enumerate(("center", "dist_avg", "relevance")):
        assert np.array_equal(vectors[:, i], nodes[key])
    assert ints.T.tolist() == [nodes["label"].tolist(),
                               nodes["wins"].tolist()]
    prefixes = sum(_kernel.read_nodes(_exact(raw[start:start + k]), 0, k)
                   is not None for k in range(4000))
    return [hashlib.sha256(vectors.tobytes() + ints.tobytes()).hexdigest(),
            prefixes]


def _nodes_exactly(som, raw: bytes) -> list:
    """The sha256 of the node list ``som_write_nodes`` writes of ``som``
    into a buffer of exactly its length, from the map's own rows; the same
    as ``_kernel.write_nodes`` writes, and as the node list of the model
    file ``raw``. Then what the buffer ``_kernel.write_nodes`` allocates
    holds past a node list of the longest texts, 8 nodes of 5 dimensions:
    the bound counts a separator before each node and each value, so the
    first node and the first value of each vector leave one byte each."""
    n, v = som.n_nodes, som._arrays
    rows = (v.centers[:n], v.dist[:n], v.labels[:n], v.rel[:n], v.wins[:n])
    nodes = bytes(_kernel.write_nodes(*rows))
    start = raw.index(persistence._NODES_OPEN) + len(persistence._NODES_OPEN)
    assert nodes == raw[start:raw.index(persistence._NODES_CLOSE)]
    out = np.empty(len(nodes), np.uint8)
    args = (n, rows[0].shape[1], *(a.ctypes.data for a in rows))
    assert _kernel.compiled().som_write_nodes(
        *args, out.ctypes.data) == len(nodes)
    assert out.tobytes() == nodes
    longest = np.full((8, 5), -2.2250738585072014e-308)
    ints = np.full(8, -2 ** 63, np.int64)
    full = _kernel.write_nodes(longest, longest, ints, longest, ints)
    return [hashlib.sha256(nodes).hexdigest(), len(full.obj) - len(full)]


# Activations past the classified ones, for each branch of the writer's
# digits: exponent forms, fixed forms, ties, round-ups and the range ends.
_EDGES = [0.0, -0.0, 1e-5, 0.0001, 123456.5, 1234565.0, 9.999995, 1e6,
          2.0 ** 63, 2.0 ** -66, -3.5e-7, 100000.5]


def _written_exactly(som, queries, a_t: float, names) -> str:
    """The sha256 of the predictions file rows ``som_write_predictions``
    writes for ``queries`` and ``_EDGES``, from labels in a buffer of
    exactly their length into one of exactly the rows' length; the same
    as ``_kernel.format_predictions`` writes."""
    node, label, act = _classify_arrays(som, queries, a_t)
    texts = [_csv_field(c).encode()
             for c in (*names, 'say "hi"', "名前", "REJECTED")]
    node = np.concatenate([node, np.arange(len(_EDGES)) - 1]).astype(np.intp)
    pick = np.concatenate([np.where(label == REJECTED, len(texts) - 1, label),
                           np.arange(len(_EDGES)) % len(texts)])
    act = np.concatenate([act, _EDGES])
    rows = bytes(_kernel.format_predictions(node, pick, texts, act))
    blob = _exact(b"".join(texts))
    ends = np.cumsum([len(t) for t in texts], dtype=np.int64)
    out = np.empty(len(rows), np.uint8)
    assert _kernel.compiled().som_write_predictions(
        len(node), node.ctypes.data, pick.ctypes.data, blob.ctypes.data,
        ends.ctypes.data, len(texts), act.ctypes.data,
        out.ctypes.data) == len(rows)
    assert out.tobytes() == rows
    return hashlib.sha256(rows).hexdigest()


def _loader_files() -> list[tuple[str, bytes]]:
    """Each seed, with and without its last line break, as it is and with
    a byte deleted, or a quote or a carriage return put, at each offset."""
    files = []
    for name, seed in (("d.csv", CSV), ("d.arff", ARFF)):
        for text in (seed, seed[:-1]):
            files += [(name, text)] + [
                (name, text[:at] + edit + text[at + (edit == b""):])
                for at in range(len(text)) for edit in (b"", b'"', b"\r")]
    return files


def _loaded(tmp: Path) -> dict:
    """How many of ``_loader_files`` load, and the sha256 of what the
    loaders make of each: the data, bit for bit, or the error."""
    outcomes = []
    for i, (name, text) in enumerate(_loader_files()):
        path = tmp / f"{i}-{name}"
        path.write_bytes(text)
        try:
            ds = (load_csv if name == "d.csv" else load_arff)(path)
            outcomes.append((ds.patterns.tobytes().hex(), ds.labels.tolist(),
                             ds.class_names, ds.dim_names))
        except DataFormatError as exc:
            outcomes.append(str(exc).replace(str(path), name))
    return {"loaded": sum(not isinstance(o, str) for o in outcomes),
            "outcomes": hashlib.sha256(repr(outcomes).encode()).hexdigest()}


def _scan_texts() -> list[tuple[bytes, int, int | None]]:
    """Texts for the scanner alone, each with its field count and label
    field: the CSV seed's body, and a record whose last field, a number of
    1 to 40 digits, bare, with a point or quoted, ends the text."""
    texts = [(CSV[CSV.index(b"\n") + 1:], 3, 2)]
    for n in range(1, 41):
        run = b"7" * n
        for number in (run, b"0." + run, run + b"." + run, b'"' + run + b'"'):
            texts += [(b"1," + number, 2, None), (b"a," + number, 2, 0)]
    return texts


def _scanned() -> dict:
    """How many of ``_scan_texts`` ``_kernel.scan`` reads from a buffer of
    exactly the text's length, and the sha256 of what it makes of each."""
    outcomes = []
    for text, width, label in _scan_texts():
        exact = np.frombuffer(text, np.uint8).copy()
        try:
            values, codes, fields = _kernel.scan(exact, 0, width, label)
        except ValueError:
            outcomes.append("refused")
            continue
        outcomes.append((values.tobytes().hex(), codes.tolist(), fields))
    return {"scanned": sum(o != "refused" for o in outcomes),
            "outcomes": hashlib.sha256(repr(outcomes).encode()).hexdigest()}


def _libasan() -> str | None:
    """The compiler's libasan, or None where it has none."""
    try:
        name = subprocess.run(["cc", "-print-file-name=libasan.so"],
                              capture_output=True, text=True, timeout=60,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return name if os.path.isabs(name) and os.path.exists(name) else None


def test_kernels_make_no_heap_error_under_address_sanitizer(tmp_path):
    if _kernel.compiled() is None:
        pytest.skip("no C compiler: there is no library")
    libasan = _libasan()
    if libasan is None:
        pytest.skip("the C compiler has no libasan: "
                    "cc -print-file-name=libasan.so names no file")
    paths = [Path(_kernel.__file__).parents[1], Path(__file__).parent]
    env = {**os.environ, "LD_PRELOAD": libasan,
           "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc",
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    child = subprocess.run([sys.executable, __file__, str(tmp_path)],
                           env=env, capture_output=True, text=True,
                           timeout=300)
    assert "ERROR: AddressSanitizer" not in child.stderr, child.stderr
    assert child.returncode == 0, child.stderr
    got = [json.loads(line) for line in child.stdout.splitlines()]
    want = _results(tmp_path)
    assert got == want
    for run in want[:-2]:
        assert run["rows"] > 128 and run["nodes"] > 64
        assert 0 < run["read"][1] < 4000
        assert run["written_nodes"][1] == 1 + 3 * 8
        assert run["resets"] >= 1 and run["top_link"] >= 128
    assert 0 < want[-2]["loaded"] < len(_loader_files())
    assert want[-1]["scanned"] == len(_scan_texts())


def _child(directory: str) -> None:
    """Build the asan library in ``directory``, bind new maps and the
    loaders to it, and print ``_results``, one JSON line each."""
    os.environ.pop("LD_PRELOAD", None)  # the compiler runs without it
    _kernel._FLAGS += BUILDS["asan"]
    _kernel._cache_dirs = lambda: [Path(directory)]
    lib = _kernel.load()
    assert lib is not None, "the asan build did not build or load"
    _kernel.compiled = lambda: lib
    with tempfile.TemporaryDirectory() as tmp:
        for run in _results(Path(tmp)):
            print(json.dumps(run))


if __name__ == "__main__":
    _child(sys.argv[1])
