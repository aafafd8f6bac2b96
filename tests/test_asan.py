"""The kernels under AddressSanitizer.

The ``ubsan`` builds check the bounds of fixed-size arrays only. An
overrun of a heap block, such as the float32 shadow that ``som_train``
allocates for its screened search, shows at best as a crash of the test
process. The ``asan`` build of ``tests/conftest.py`` checks every heap
access, but its library loads only into a process that starts with libasan
preloaded, so this test starts one. The child trains a screened map (24
dimensions) and a plain one (8 dimensions), each through insertions into
full storage, pruning sweeps and links across three adjacency words, saves
and classifies with each, then loads the loader fuzz seeds and their
mutations through the scanner (``som_scan``), and prints what it got. Its
Python allocates through ``malloc``, so a read past a file's bytes shows.
It must report no AddressSanitizer error and the package library's
results, bit for bit.

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
                     save_model, train_with_state)
from conftest import BUILDS
from test_loader_fuzz import ARFF, CSV

CLASSES, CENTERS = 24, 220


def _run(m: int):
    """Six noisy draws of each of ``CENTERS`` centers in ``m`` dimensions,
    of ``CLASSES`` classes, 70 % labelled. A high ``a_t`` inserts a node
    at each new center, past the storage's doublings and three bit words
    of 64 nodes, and the sweeps keep the nodes that have won."""
    rng = np.random.default_rng(m)
    idx = np.tile(np.arange(CENTERS), 6)
    centers = rng.random((CENTERS, m))
    patterns = centers[idx] + rng.normal(0.0, 0.01, size=(len(idx), m))
    ds = Dataset(patterns=np.clip(patterns, 0.0, 1.0),
                 labels=rng.integers(CLASSES, size=CENTERS)[idx],
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
    for m in (24, 8):
        ds, params = _run(m)
        state = train_with_state(ds, params)
        som = state.som
        path = tmp / f"model-{m}.json"
        save_model(path, som, params)
        queries = np.vstack([ds.patterns,
                             np.random.default_rng(0).random((50, m))])
        predicted = classify_batch(som, queries, params.a_t)
        out.append({
            "dim": m, "nodes": som.n_nodes,
            "rows": len(som._arrays.centers),
            "insertions": state.stats.insertions,
            "resets": state.stats.resets,
            "top_link": max(max(pair) for pair in som.connections),
            "model": hashlib.sha256(path.read_bytes()).hexdigest(),
            "classified": hashlib.sha256(repr(predicted).encode()).hexdigest(),
        })
    return out + [_loaded(tmp)]


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
    for run in want[:-1]:
        assert run["rows"] > 128 and run["nodes"] > 64
        assert run["resets"] >= 1 and run["top_link"] >= 128
    assert 0 < want[-1]["loaded"] < len(_loader_files())


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
