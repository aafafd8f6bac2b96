"""The compiled kernels against the numpy kernels and the loop they replace.

Training runs its presentations in the compiled loop of ``_kernel.c``,
``som_train``, when the library builds, and in its numpy twin,
``_train_numpy``, otherwise. The winner search, node update and link
recomputation exist in C only inside that loop; their numpy references
(``_activations``, ``_shift_vectors``, ``_link_numpy``) are what
``SomMap``'s per-call methods run on either path. Both paths must give the
same floats, bit for bit, so a map trains identically whichever is active.
"""

import ctypes
import functools
import json
import math
import pickle
import re
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisom import (NO_CLASS, Dataset, HyperParams, SomMap, classify_batch,
                     load_model, mask_labels, save_model, train_with_state)
from semisom import _kernel
from semisom.model import (ACTIVATION_EPS, _activations, _insert_numpy,
                           _shift_vectors, _train_numpy)
from semisom.training import TrainState, _present_chunk, insert_node
from conftest import build, library
from helpers import (assert_adjacency_invariant, brute_connections,
                     make_blobs, map_of, node_at, random_map)


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


# The kinds of som_sum: a, (a - b)^2 and w * (a - b)^2 term by term.
PLAIN, SQUARES, WEIGHTED = range(3)


@st.composite
def _sums(draw):
    """Operands of som_sum at every length that changes its path.

    Magnitudes spread over twelve decades, so that adding the terms in any
    other order rounds differently; NaN, inf and zero weights must
    propagate as in numpy.
    """
    m = draw(st.sampled_from([*range(1, 10), 15, 16, 17, 127, 128, 129, 136,
                              257]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = (rng.standard_normal(m) * 10.0 ** rng.uniform(-6, 6, m)
            for _ in range(2))
    w = rng.random(m)
    if draw(st.booleans()):
        w[rng.random(m) < 0.3] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from([a, b, w]))
        row[rng.integers(m)] = draw(st.sampled_from([np.nan, np.inf,
                                                     -np.inf, 0.0]))
    return draw(st.sampled_from([PLAIN, SQUARES, WEIGHTED])), a, b, w


@pytest.mark.builds("clones", "default-only")
@settings(max_examples=400, deadline=None)
@given(_sums())
def test_sum_equals_numpy_add_reduce(case):
    """som_sum, the leaf of every sum of the kernels, against numpy.

    The terms are computed as the numpy kernels compute them, and summed by
    np.add.reduce. A NaN may carry another payload, as the two sides need
    not order the operands of a multiplication alike.
    """
    kind, a, b, w = case
    with np.errstate(over="ignore", invalid="ignore"):
        terms = a.copy()
        if kind != PLAIN:
            terms -= b
            terms *= terms
        if kind == WEIGHTED:
            terms *= w
        want = np.add.reduce(terms)
    got = _kernel.compiled().som_sum(kind, a.ctypes.data, b.ctypes.data,
                                     w.ctypes.data, len(a))
    assert (np.isnan(got) and np.isnan(want)) or bits(got) == bits(want)


def _bound(d2: float, mass: float) -> float:
    """The screen's activation bound for one pair, as ``_act_of_sq``
    rounds it: the same IEEE operations on Python floats."""
    d2 = d2 if d2 >= 0.0 or math.isnan(d2) else 0.0
    return mass / ((math.sqrt(d2) + mass) + ACTIVATION_EPS)


@st.composite
def _boundaries(draw):
    """A pair's mass, a bound L and squared distances on both sides of it.

    Mostly L is the bound at some d0, so that the probes around d0 cross
    the exact boundary the squared-domain test must respect; otherwise L
    is a threshold such as a_t, or a value outside the test's range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mass = draw(st.sampled_from([0.0, 10.0 ** rng.uniform(-9, 9)]))
    d0 = draw(st.sampled_from([0.0, 10.0 ** rng.uniform(-30, 30)]))
    L = draw(st.sampled_from(["at d0"] * 4 + [
        "uniform", 0.0, 1.0, 2.0 ** -1000, 2.0 ** -1001, np.inf, -0.5,
        np.nan]))
    if L == "at d0":
        L = _bound(d0, mass)
    elif L == "uniform":
        L = rng.random()
    probes = [d0, 0.0, -d0, np.nan, np.inf, d0 * 4.0, d0 / 4.0]
    for direction in (np.inf, -np.inf):
        d = d0
        for _ in range(4):
            d = float(np.nextafter(d, direction))
            probes.append(d)
    return mass, float(L), probes


@pytest.mark.builds("clones", "default-only")
@settings(max_examples=500, deadline=None)
@given(_boundaries())
def test_squared_test_rules_out_only_bounds_below(case):
    """som_reaches: the squared-domain test, then the bound, of a pair.

    The test may rule a pair out only when its bound lies below L, so the
    answer must always be the bound's own ``not bound < L``, NaN included.
    """
    mass, L, probes = case
    lib = _kernel.compiled()
    for d in probes:
        want = not _bound(d, mass) < L
        assert lib.som_reaches(mass, ACTIVATION_EPS, d, L) == want, d


@st.composite
def _maps(draw):
    """A map, a pattern and update rows, drawn to reach every corner case.

    m runs through every branch of the pairwise sum (below 8, up to 128,
    halved above); huge scales overflow the squared distance, so zero
    relevances meet infinities and give NaN activations.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 150))
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e2, 1e150, 1e160]))
    centers = rng.standard_normal((n, m)) * scale
    rel = rng.random((n, m))
    dist = rng.random((n, m)) * scale
    if draw(st.booleans()):  # duplicate nodes: exact ties
        centers[-1], rel[-1] = centers[0], rel[0]
    if draw(st.booleans()):  # a node that never activates
        rel[rng.integers(n)] = 0.0
    if draw(st.booleans()):  # equal distance averages: a flat row
        dist[rng.integers(n)] = dist[0, 0]
    if draw(st.booleans()):  # NaN and inf must propagate as in numpy
        dist[rng.integers(n), rng.integers(m)] = draw(
            st.sampled_from([np.nan, np.inf]))
    x = rng.standard_normal(m) * scale
    if draw(st.booleans()):  # a pattern on a center
        x = centers[rng.integers(n)].copy()
    labels = rng.integers(-1, 3, size=n)
    k = draw(st.integers(1, n))
    rows = rng.permutation(n)[:k]
    rates = rng.choice([0.0, 1.0, -0.005, 0.05, rng.uniform(-0.1, 0.5)],
                       size=k)
    beta = draw(st.sampled_from([0.1, 0.5, 0.99]))
    slope = draw(st.sampled_from([0.01, 0.05, 1.0]))
    return (centers, rel, dist, labels), x, rows, rates, beta, slope


def _present_once(case):
    """One draw of a ``_maps`` case through the active training loop.

    The pattern is unlabeled and ``a_t`` is ``-inf``, so the winner is
    attracted whatever its activation, NaN included: the winner at the
    first rate, then the other update rows, linked to it as neighbors, at
    the last. The rates reach ``update_row`` as drawn, through ``Params``
    built directly. Returns the map, its activations for the pattern
    before the draw, the numpy references of the activations and the
    updated rows, and the winner.
    """
    (centers, rel, dist, labels), x, rows, rates, beta, slope = case
    n, m = centers.shape
    with np.errstate(over="ignore", invalid="ignore"):
        acts = _activations(centers, rel, rel.sum(axis=1), x)
    w = int(np.argmax(acts))
    neighbors = sorted(set(rows.tolist()) - {w})
    som = SomMap.from_arrays(n + 1, centers, rel, np.zeros((n, m)),
                             np.zeros(n, np.int64), labels,
                             [(w, j) for j in neighbors])
    # distance averages of NaN and inf, which from_arrays refuses, reach
    # the loop too
    som._arrays.dist[:n] = dist
    centers, rel, dist = centers.copy(), rel.copy(), dist.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j, lr in [(w, rates[0])] + [(j, rates[-1]) for j in neighbors]:
            rel[j] = _shift_vectors(centers[j], dist[j], x, lr, beta, slope)
    assert som._train.args[0] is _kernel.compiled()
    with np.errstate(over="ignore", invalid="ignore"):
        searched = som.activations(x)
    params = _kernel.Params(
        a_t=-np.inf, e_b=rates[0], e_n=rates[-1], push_rate=0.0, beta=beta,
        slope=slope, minwd=0.0, lp=0.0, n_max=n, age_wins=_kernel.NEVER,
        allow_insert=False)
    chunk = _kernel.Chunk(m, x[None], np.array([NO_CLASS]), np.array([0]))
    assert som._run_presentations(params, chunk) == _kernel.END
    count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
    assert (count["pos"], count["n"], count["unsupervised"]) == (1, n, 1)
    return som, searched, acts, (centers, dist, rel), w


@settings(max_examples=300, deadline=None)
@given(_maps())
def test_compiled_winner_equals_numpy(case):
    """The loop's winner search, on both builds, against ``_activations``:
    the activation row, the winner its win goes to, and the search
    ``SomMap`` runs per call."""
    n = len(case[0][0])
    for name in ("clones", "default-only"):
        with build(name):
            som, searched, want, _, w = _present_once(case)
        assert np.array_equal(bits(som._arrays.acts[:n]), bits(want))
        assert np.array_equal(bits(searched), bits(want))
        assert som.wins.tolist() == [int(j == w) for j in range(n)]


@settings(max_examples=300, deadline=None)
@given(_maps())
def test_compiled_update_equals_numpy(case):
    """The loop's node update, on both builds, against ``_shift_vectors``
    on the winner and its neighbors, in ascending order."""
    n = len(case[0][0])
    for name in ("clones", "default-only"):
        with build(name):
            som, _, _, (centers, dist, rel), _ = _present_once(case)
        assert np.array_equal(bits(som.centers), bits(centers))
        assert np.array_equal(bits(som.dist_avgs), bits(dist))
        assert np.array_equal(bits(som.relevances), bits(rel))
        assert np.array_equal(bits(som._arrays.sums[:n]),
                              bits(rel.sum(axis=1)))


def _train_blobs(tmp_path, name):
    ds = make_blobs(60, [[0.3, 0.3, 0.5], [0.45, 0.4, 0.5], [0.7, 0.6, 0.2]],
                    0.08, seed=3)
    params = HyperParams(a_t=0.9, lp=0.01, beta=0.1, age_wins=3 * len(ds),
                         e_b=0.1, push_rate=0.05, e_n=0.01, eps_beta=0.05,
                         minwd=0.3, epochs=3, n_max=len(ds), seed=1)
    state = train_with_state(mask_labels(ds, 0.5, seed=9), params)
    path = tmp_path / name
    save_model(path, state.som, params, class_names=ds.class_names)
    return state, path.read_bytes()


def test_compiled_and_numpy_kernels_train_identical_models(tmp_path):
    with build("clones"):
        state, model = _train_blobs(tmp_path, "compiled.json")
    assert state.som._view is not None
    assert state.stats.pushes > 0 and state.stats.unsupervised > 0
    with build("numpy"):
        fallback, again = _train_blobs(tmp_path, "numpy.json")
    assert fallback.som._view is None
    assert again == model
    assert fallback.stats == state.stats


# The per-call map methods on the compiled kernel path and the numpy one.
kernels = pytest.mark.builds("clones", "numpy", ids=["compiled", "numpy"])


def _one_node_map():
    som = SomMap(2, 5)
    som.add_node(np.array([0.2, 0.4]))
    return som


@pytest.mark.parametrize("j", [3, -1, 5, 1])
@kernels
def test_update_node_rejects_missing_nodes(j):
    som = _one_node_map()
    v = som._arrays
    before = (v.centers.copy(), v.dist.copy(), v.rel.copy())
    with pytest.raises(IndexError, match=f"no node {j} "):
        som.update_node(j, np.array([0.5, 0.5]), 0.1, 0.1, 0.05)
    for got, was in zip((v.centers, v.dist, v.rel), before):
        assert np.array_equal(got, was)


@pytest.mark.parametrize("rows", [[0, 3], [-1], [4, 0]])
@kernels
def test_update_nodes_rejects_missing_nodes(rows):
    som = _one_node_map()
    som.add_node(np.array([0.6, 0.1]))
    v = som._arrays
    before = (v.centers.copy(), v.dist.copy(), v.rel.copy())
    with pytest.raises(IndexError, match="no node "):
        som.update_nodes(rows, np.array([0.5, 0.5]), 0.1, 0.1, 0.05)
    for got, was in zip((v.centers, v.dist, v.rel), before):
        assert np.array_equal(got, was)


@kernels
def test_update_rejects_wrong_pattern_shape():
    som = _one_node_map()
    with pytest.raises(ValueError, match="shape"):
        som.update_node(0, np.zeros(3), 0.1, 0.1, 0.05)
    with pytest.raises(ValueError, match="shape"):
        som.update_nodes([0], np.zeros(1), 0.1, 0.1, 0.05)


@kernels
def test_update_nodes_takes_one_rate_per_row_in_any_shape():
    rng = np.random.default_rng(5)
    column = random_map(rng, 6, 4)
    flat = pickle.loads(pickle.dumps(column))
    x, rates = rng.random(4), np.array([0.1, -0.01, 1.0])
    column.update_nodes([4, 0, 2], x, rates[:, None], 0.2, 0.05)
    flat.update_nodes([4, 0, 2], x, rates, 0.2, 0.05)
    assert np.array_equal(column.centers, flat.centers)
    assert np.array_equal(column.relevances, flat.relevances)
    with pytest.raises(ValueError):
        flat.update_nodes([4, 0, 2], x, rates[:2], 0.2, 0.05)


@kernels
def test_pickled_map_runs_on_its_own_arrays():
    rng = np.random.default_rng(11)
    som = random_map(rng, 9, 5)
    clone = pickle.loads(pickle.dumps(som))
    x = rng.random(5)
    assert clone.find_winner(x) == som.find_winner(x)
    assert (clone._view is None) == (_kernel.compiled() is None)
    clone.update_nodes([0, 3], x, 0.5, 0.3, 0.05)
    assert not np.array_equal(clone.centers, som.centers)
    assert np.array_equal(pickle.loads(pickle.dumps(som)).centers,
                          som.centers)


@kernels
def test_threads_can_share_a_map():
    """Winner searches on several threads read the map under its lock."""
    rng = np.random.default_rng(13)
    som = random_map(rng, 30, 8)
    patterns = rng.random((300, 8))
    want = [som.find_winner(x) for x in patterns]
    threads_n = 6
    got = [None] * threads_n

    def work(t):
        got[t] = [(i, som.find_winner(patterns[i]))
                  for i in range(t, len(patterns), threads_n)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for part in got:
        for i, result in part:
            assert result == want[i]


@kernels
def test_threads_can_classify_with_a_shared_map():
    """Bulk classification reads the map's node rows and its own arrays;
    on the compiled path it releases the interpreter lock meanwhile."""
    rng = np.random.default_rng(23)
    som = random_map(rng, 40, 6)
    patterns = rng.random((600, 6))
    want = classify_batch(som, patterns, 0.6)
    threads_n = 4
    got = [None] * threads_n

    def work(t):
        part = slice(t * 150, (t + 1) * 150)
        got[t] = (classify_batch(som, patterns[part], 0.6),
                  [som.find_winner(x) for x in patterns[part][:30]])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert [p for preds, _ in got for p in preds] == want
    for t, (_, winners) in enumerate(got):
        assert winners == [som.find_winner(x)
                           for x in patterns[t * 150:t * 150 + 30]]


def test_loader_builds_in_user_cache_when_package_dir_is_unwritable(
        tmp_path, monkeypatch):
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("")
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "_cache_dirs",
                        lambda: [blocked / "__pycache__", cache])
    lib = _kernel.load()
    if lib is None:
        pytest.skip("no C compiler")
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].startswith("_kernel-")
    assert not built[0].endswith(".tmp")


def test_build_prunes_older_libraries_in_its_own_cache_only(tmp_path,
                                                            monkeypatch):
    """A build in the package's directory removes the libraries of older
    sources there; the shared cache, which other checkouts build into,
    keeps every library."""
    own, shared = tmp_path / "own", tmp_path / "shared"
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    decoy, partial = f"_kernel-0123456789abcdef{suffix}", "_kernel-x.tmp"
    for directory in (own, shared):
        directory.mkdir()
        for name in (decoy, partial, "other" + suffix):
            (directory / name).write_bytes(b"decoy")
    monkeypatch.setattr(_kernel, "_cache_dirs", lambda: [own, shared])
    if _kernel.load() is None:
        pytest.skip("no C compiler")
    built = [p.name for p in own.glob("_kernel-*" + suffix)]
    assert len(built) == 1 and built[0] != decoy
    assert {p.name for p in own.iterdir()} == {
        built[0], partial, "other" + suffix}
    assert {p.name for p in shared.iterdir()} == {
        decoy, partial, "other" + suffix}

    # the package's directory unwritable: the build goes to the shared one
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("")
    monkeypatch.setattr(_kernel, "_cache_dirs",
                        lambda: [blocked / "__pycache__", shared])
    assert _kernel.load() is not None
    assert {p.name for p in shared.iterdir()} == {
        built[0], decoy, partial, "other" + suffix}


@kernels
def test_update_nodes_updates_repeated_rows_in_order():
    """A row listed twice is updated twice, as by two ``update_node`` calls.

    A call lists any number of rows, more than the map's budget too.
    """
    som = SomMap(2, 2)
    som.add_node(np.zeros(2))
    twin = pickle.loads(pickle.dumps(som))
    x = np.array([1.0, 0.5])
    som.update_nodes([0, 0], x, 0.5, 0.1, 0.05)
    for _ in range(2):
        twin.update_node(0, x, 0.5, 0.1, 0.05)
    assert np.array_equal(som.centers, [[0.75, 0.375]])
    assert np.array_equal(bits(som.dist_avgs), bits(twin.dist_avgs))
    assert np.array_equal(bits(som.relevances), bits(twin.relevances))
    assert np.array_equal(bits(som._arrays.sums), bits(twin._arrays.sums))
    som.update_nodes([0, 0, 0], x, 0.5, 0.1, 0.05)
    for _ in range(3):
        twin.update_node(0, x, 0.5, 0.1, 0.05)
    assert np.array_equal(bits(som.centers), bits(twin.centers))
    assert np.array_equal(bits(som.dist_avgs), bits(twin.dist_avgs))
    assert np.array_equal(bits(som.relevances), bits(twin.relevances))
    assert np.array_equal(bits(som._arrays.sums), bits(twin._arrays.sums))

    rng = np.random.default_rng(17)
    som = random_map(rng, 5, 6)
    twin = pickle.loads(pickle.dumps(som))
    x, rows, rates = rng.random(6), [3, 1, 3, 3], [0.2, 0.1, -0.05, 1.0]
    som.update_nodes(rows, x, np.array(rates)[:, None], 0.3, 0.05)
    for j, lr in zip(rows, rates):
        twin.update_node(j, x, lr, 0.3, 0.05)
    assert np.array_equal(bits(som.centers), bits(twin.centers))
    assert np.array_equal(bits(som.relevances), bits(twin.relevances))
    assert np.array_equal(bits(som._arrays.sums), bits(twin._arrays.sums))


@pytest.mark.parametrize("rows", [[1.7], [1.0], np.array([True]),
                                  np.array([0.0, 1.0]), [0, 1.5]])
@kernels
def test_update_nodes_rejects_non_integer_rows(rows):
    som = _one_node_map()
    som.add_node(np.array([0.6, 0.1]))
    v = som._arrays
    before = (v.centers.copy(), v.dist.copy(), v.rel.copy())
    x = np.array([0.5, 0.5])
    with pytest.raises(TypeError, match="integer"):
        som.update_nodes(rows, x, 0.1, 0.1, 0.05)
    som.update_nodes([], x, 0.1, 0.1, 0.05)
    som.update_nodes(np.array([], dtype=np.intp), x, 0.1, 0.1, 0.05)
    for got, was in zip((v.centers, v.dist, v.rel), before):
        assert np.array_equal(got, was)


def _two_node_map():
    som = _one_node_map()
    som.add_node(np.array([0.6, 0.1]))
    return som


@kernels
def test_update_node_rejects_a_bool_index():
    som = _two_node_map()
    v = som._arrays
    before = (v.centers.copy(), v.dist.copy(), v.rel.copy())
    with pytest.raises(TypeError, match="bool"):
        som.update_node(True, np.array([0.5, 0.5]), 0.1, 0.1, 0.05)
    for got, was in zip((v.centers, v.dist, v.rel), before):
        assert np.array_equal(got, was)


@kernels
def test_update_nodes_names_a_huge_unsigned_index():
    som = _two_node_map()
    rows = np.array([1, 2 ** 63], dtype=np.uint64)
    with pytest.raises(IndexError, match=f"no node {2 ** 63} in a map of 2 "):
        som.update_nodes(rows, np.array([0.5, 0.5]), 0.1, 0.1, 0.05)
    assert np.array_equal(som.centers, [[0.2, 0.4], [0.6, 0.1]])


@kernels
def test_links_span_several_bit_words():
    """150 nodes need three adjacency words per row."""
    rng = np.random.default_rng(19)
    som = random_map(rng, 150, 3)
    assert som._arrays.adj.shape[1] == 3
    minwd = 0.3
    som.rebuild_connections(minwd)
    assert som.connections == brute_connections(som, minwd)
    for j in (0, 63, 64, 127, 128, 149):
        som._arrays.labels[j] = int(rng.integers(-1, 4))
        som.rewire_node(j, minwd)
    pairs = som.connections
    assert pairs == brute_connections(som, minwd)
    for j in (0, 64, 149):
        assert set(som.neighbor_array(j).tolist()) == (
            {b for a, b in pairs if a == j} | {a for a, b in pairs if b == j})


def test_maps_from_arrays_and_model_files_start_symmetric(tmp_path):
    """``from_arrays`` and ``load_model`` set both bits of each pair, in
    whichever order it is listed, and no other: the invariant ``relink``
    relies on holds from the start."""
    rng = np.random.default_rng(23)
    n, m = 150, 3
    pairs = [(149, 0), (1, 64), (128, 127), (63, 64), (5, 149)]
    som = SomMap.from_arrays(n, rng.random((n, m)), rng.random((n, m)),
                             np.zeros((n, m)), np.zeros(n, np.int64),
                             rng.integers(-1, 3, size=n), pairs)
    assert_adjacency_invariant(som)
    assert som.connections == sorted(tuple(sorted(p)) for p in pairs)
    path = tmp_path / "model.json"
    save_model(path, som, HyperParams(
        a_t=0.9, lp=0.01, beta=0.1, age_wins=10, e_b=0.1, push_rate=0.05,
        e_n=0.01, eps_beta=0.05, minwd=0.3, epochs=1, n_max=n),
        class_names=("a", "b", "c"))
    doc = json.loads(path.read_text())
    doc["connections"] = [pair[::-1] for pair in doc["connections"]]
    path.write_text(json.dumps(doc))
    loaded = load_model(path).som
    assert_adjacency_invariant(loaded)
    assert np.array_equal(loaded._arrays.adj[:n], som._arrays.adj[:n])


@st.composite
def _runs(draw):
    """A data set and parameters that reach every branch of a presentation.

    Random labels on uniform patterns make wrong-class winners, so pushes;
    small ``n_max`` caps the map; ``grow`` inserts at nearly every pattern
    until the map has passed several capacity doublings and bit words, and
    draws up to 24 classes, so that most blocks of 8 nodes hold no node
    that a labelled node may link. A labelled fraction of 0.3 leaves
    unlabelled nodes that take a label later and drop their links to
    other classes.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["blobs", "uniform", "grow"]))
    grow = kind == "grow"
    n = draw(st.integers(140, 200) if grow else st.integers(1, 90))
    m = draw(st.integers(3, 6) if grow else st.integers(1, 12))
    classes = draw(st.integers(1, 24) if grow else st.integers(1, 4))
    labels = rng.integers(classes, size=n)
    if kind == "blobs":
        patterns = rng.random((classes, m))[labels]
        patterns += rng.normal(0.0, 0.05, size=(n, m))
    else:
        patterns = rng.random((n, m))
    ds = Dataset(patterns=np.clip(patterns, 0.0, 1.0), labels=labels,
                 class_names=tuple(f"c{i}" for i in range(classes)),
                 dim_names=tuple(f"f{i}" for i in range(m)))
    fraction = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
    params = HyperParams(
        a_t=0.999 if grow else draw(st.sampled_from([0.5, 0.8, 0.9, 0.97])),
        lp=0.001 if grow else draw(st.sampled_from([0.001, 0.01, 0.2])),
        beta=draw(st.sampled_from([0.01, 0.1, 0.5])),
        age_wins=draw(st.integers(1, 3 * n)),
        e_b=draw(st.sampled_from([0.01, 0.1, 0.5, 1.0])),
        push_rate=draw(st.sampled_from([0.0, 0.01, 0.5])),
        e_n=draw(st.sampled_from([0.0, 0.001, 0.05])),
        eps_beta=draw(st.sampled_from([0.01, 0.05, 1.0])),
        minwd=draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
        epochs=draw(st.integers(1, 3)),
        n_max=n if grow else draw(st.sampled_from([n, 1, 2, 5])),
        seed=draw(st.integers(0, 2 ** 32 - 1)))
    return mask_labels(ds, fraction, seed), params


def _model_bytes(state, ds, params) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(path, state.som, params, class_names=ds.class_names)
        return path.read_bytes()


def _check_loops_agree(name, run) -> None:
    """The loop of build ``name`` against its numpy twin."""
    ds, params = run
    with build(name) as lib:
        fast = train_with_state(ds, params)
    with build("numpy"):
        slow = train_with_state(ds, params)
    assert fast.som._train.args[0] is lib
    assert slow.som._train.func is _train_numpy and slow.som._view is None
    assert _model_bytes(fast, ds, params) == _model_bytes(slow, ds, params)
    assert_adjacency_invariant(fast.som)
    assert fast.stats == slow.stats
    assert (fast.som.nwins, fast.t) == (slow.som.nwins, slow.t)
    assert fast.t == (fast.stats.growth_presentations
                      + fast.stats.convergence_presentations)
    assert fast.stats.growth_presentations == params.epochs * len(ds)


@settings(max_examples=60, deadline=None)
@given(_runs())
def test_compiled_loop_equals_python_loop(run):
    """The loaded library's loop, on its AVX2 clones where the CPU has
    AVX2, against its numpy twin."""
    _check_loops_agree("clones", run)


@settings(max_examples=60, deadline=None)
@given(_runs())
def test_default_only_loop_equals_python_loop(run):
    """The loop of the baseline-only build against its numpy twin."""
    _check_loops_agree("default-only", run)


@kernels
@settings(max_examples=25, deadline=None)
@given(run=_runs())
def test_observed_runs_equal_plain_runs_and_count_their_draws(run):
    """An observer sees every step and sweep and changes nothing, the
    convergence phase runs ``2 * age_wins + 1 - nwins`` presentations,
    ``nwins`` counted when it starts, and the generator ends after the
    draws presented."""
    ds, params = run
    events, at_phase = [], []

    def observer(event, state):
        events.append(event)
        if event == "phase":
            at_phase.append(state.som.nwins)

    watched = train_with_state(ds, params, observer=observer)
    plain = train_with_state(ds, params)
    assert events.count("step") == plain.t
    assert events.count("pre_reset") == events.count("post_reset")
    assert events.count("post_reset") == plain.stats.resets
    assert (_model_bytes(watched, ds, params)
            == _model_bytes(plain, ds, params))
    assert watched.stats == plain.stats
    assert (watched.som.nwins, watched.t) == (plain.som.nwins, plain.t)
    assert watched.rng.bit_generator.state == plain.rng.bit_generator.state
    (nwins,) = at_phase
    assert (plain.stats.convergence_presentations
            == 2 * params.age_wins + 1 - nwins)
    scalar = np.random.default_rng(params.seed)
    for _ in range(plain.t):
        scalar.integers(len(ds))
    assert plain.rng.bit_generator.state == scalar.bit_generator.state


@st.composite
def _edge_runs(draw):
    """Runs at the edges of the insertions and sweeps ``som_train`` makes.

    Budgets at and around the storage capacities (16, 32, 64). In a
    ``fill`` run a high ``a_t`` inserts at nearly every pattern, so the
    map fills its storage exactly, or grows it at the next insertion.
    Otherwise nodes win often and sweeps come every few presentations,
    where a large ``lp`` keeps only the first node of most wins and
    ``lp * age_wins``, a whole number, keeps nodes at exactly that many
    wins.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n_max = draw(st.sampled_from([16, 32, 64])) + draw(st.integers(-1, 1))
    n = draw(st.integers(n_max, 2 * n_max))
    m = draw(st.integers(2, 4))
    classes = draw(st.integers(1, 3))
    labels = rng.integers(classes, size=n)
    ds = Dataset(patterns=rng.random((n, m)), labels=labels,
                 class_names=tuple(f"c{i}" for i in range(classes)),
                 dim_names=tuple(f"f{i}" for i in range(m)))
    fill = draw(st.booleans())
    params = HyperParams(
        a_t=draw(st.sampled_from([0.99, 0.999] if fill else [0.8, 0.9, 0.95])),
        lp=draw(st.sampled_from([0.25, 0.5, 1.0, 5.0])),
        beta=0.1, age_wins=draw(st.sampled_from([20, 3 * n] if fill
                                                else [2, 4, 8])),
        e_b=draw(st.sampled_from([0.05, 0.5])), push_rate=0.05,
        e_n=draw(st.sampled_from([0.0, 0.05])), eps_beta=0.05,
        minwd=draw(st.sampled_from([0.1, 0.5])), epochs=draw(st.integers(1, 2)),
        n_max=n_max, seed=draw(st.integers(0, 2 ** 32 - 1)))
    return mask_labels(ds, draw(st.sampled_from([0.0, 0.3, 1.0])), seed), params


@settings(max_examples=60, deadline=None)
@given(_edge_runs())
def test_compiled_loop_equals_python_loop_at_the_edges(run):
    _check_loops_agree("clones", run)


@settings(max_examples=60, deadline=None)
@given(_edge_runs())
def test_default_only_loop_equals_python_loop_at_the_edges(run):
    _check_loops_agree("default-only", run)


@pytest.mark.parametrize("kernel_build", ["clones", "default-only"],
                         indirect=True)
@pytest.mark.parametrize("wins, at, lp, kept", [
    # no node reaches 10 * 4 wins: the first node of most wins stays
    ([3, 5, 4, 1], 2, 10.0, [1]),
    # nodes at exactly 0.5 * 4 = 2 wins stay
    ([2, 1, 1, 0], 1, 0.5, [0, 1]),
])
def test_loops_agree_on_a_sweep(wins, at, lp, kept):
    """One presentation, which node ``at`` wins, ends the cycle: the
    pruning sweep sees ``wins`` plus that win."""
    rng = np.random.default_rng(31)
    nodes = [node_at(c, wins=w) for c, w in zip(np.eye(4, 3) * 5.0, wins)]
    params = HyperParams(a_t=0.5, lp=lp, beta=0.1, age_wins=4, e_b=0.1,
                         push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                         epochs=1, n_max=8)
    fast = map_of(8, nodes)
    with build("numpy"):
        slow = pickle.loads(pickle.dumps(fast))
    states = []
    for som in (fast, slow):
        som.nwins = params.age_wins
        state = TrainState(som=som, params=params, rng=rng)
        x = nodes[at]["center"] + 0.01
        _present_chunk(state, x[None], np.array([NO_CLASS]), np.array([0]),
                       allow_insert=True, observer=None)
        states.append(state)
    (a, b) = states
    assert a.som._train.args[0] is _kernel.compiled()
    assert b.som._train.func is _train_numpy
    assert a.stats == b.stats and a.stats.resets == 1
    assert (a.som.nwins, a.t) == (b.som.nwins, b.t) == (1, 1)
    assert np.array_equal(bits(a.som.centers), bits(b.som.centers))
    assert np.array_equal(a.som.centers[:, :2].round(),
                          np.eye(4, 3)[kept, :2] * 5.0)
    assert a.som.wins.tolist() == [0] * len(kept)
    assert a.som.connections == b.som.connections


def _node_rows(som) -> list[bytes]:
    """The bytes of every node array but the activation row."""
    return [getattr(som._arrays, name).tobytes() for name in (
        "centers", "rel", "dist", "sums", "wins", "labels", "adj")]


# a_t so high that a pattern far from the nodes inserts one
_INSERTING = _kernel.params(HyperParams(
    a_t=0.999, lp=0.5, beta=0.1, age_wins=100, e_b=0.1, push_rate=0.05,
    e_n=0.01, eps_beta=0.05, minwd=0.3, epochs=1, n_max=32), True)


@pytest.mark.parametrize("kernel_build", ["clones", "default-only", "numpy"],
                         indirect=True)
@pytest.mark.parametrize("label", [NO_CLASS, 1])
def test_loop_stops_at_full_storage_before_the_presentation(label):
    """Sixteen nodes fill the first storage of a 32-node budget; the draw
    at position 2 inserts. The loop returns ``INSERT`` there having changed
    no node row and counted nothing of it: the counters are those it was
    called with, its position and node count aside."""
    rng = np.random.default_rng(5)
    nodes = [node_at(c, label=0) for c in rng.random((16, 3))]
    som = map_of(32, nodes)
    assert len(som._arrays.centers) == 16
    before = _node_rows(som)
    x = np.array([[5.0, 5.0, 5.0]])
    chunk = _kernel.Chunk(3, x, np.array([label]), np.zeros(4, np.int64))
    chunk.count[0] = 2
    assert som._train(16, _INSERTING, chunk) == _kernel.INSERT
    count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
    assert count == dict.fromkeys(_kernel.SLOTS, 0) | {"pos": 2, "n": 16}
    assert _node_rows(som) == before


@pytest.mark.builds("clones", "default-only", "numpy")
def test_loop_inserts_in_place_when_there_is_room():
    """With a row free in the storage, the loop inserts the node itself
    and runs to the end."""
    rng = np.random.default_rng(6)
    nodes = [node_at(c, label=0) for c in rng.random((15, 3))]
    som = map_of(32, nodes)
    x = np.array([[5.0, 5.0, 5.0]])
    chunk = _kernel.Chunk(3, x, np.array([1]), np.array([0]))
    assert som._train(15, _INSERTING, chunk) == _kernel.END
    count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
    assert count == dict.fromkeys(_kernel.SLOTS, 0) | {
        "pos": 1, "nwins": 1, "t": 1, "supervised": 1, "insertions": 1,
        "n": 16}
    assert np.array_equal(bits(som._arrays.centers[15]), bits(x[0]))
    assert som._arrays.labels[15] == 1 and som._arrays.sums[15] == 3.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), labeled=st.booleans(),
       minwd=st.sampled_from([0.0, 0.1, 0.5, 2.0]))
def test_loop_insertion_equals_insert_node(seed, labeled, minwd):
    """``_insert_numpy``, the loop twin's insertion, against
    ``insert_node``, ``add_node`` and ``rewire_node``: the same rows and
    the same adjacency bits, up to and past one bit word."""
    rng = np.random.default_rng(seed)
    drawn = random_map(rng, int(rng.integers(1, 70)), labeled=labeled)
    n = drawn.n_nodes
    maps = [SomMap.from_arrays(n + 1, drawn.centers, drawn.relevances,
                               drawn.dist_avgs, drawn.wins, drawn.labels)
            for _ in range(2)]
    for som in maps:
        som.rebuild_connections(minwd)
    x = (maps[0].centers[rng.integers(n)] if rng.random() < 0.2
         else rng.random(drawn.dim))
    label = int(rng.integers(-1, 4)) if labeled else NO_CLASS
    insert_node(maps[0], x, label, minwd)
    b = maps[1]
    if n == len(b._arrays.centers):
        b._double()
    _insert_numpy(b._arrays, n, x, label, minwd)
    b._n += 1
    assert _node_rows(b) == _node_rows(maps[0])


def test_training_loop_releases_the_interpreter_lock():
    """Every export of either build is bound without
    ``FUNCFLAG_PYTHONAPI``, which would hold the lock through the call, and
    the library exports no per-call kernel."""
    lib = SomMap(1, 1)._train.args[0]
    assert lib is library("clones")
    for built in (lib, library("default-only")):
        exports = {name: f for name, f in vars(built).items()
                   if isinstance(f, ctypes._CFuncPtr)}
        assert set(exports) == {"som_train", "som_classify", "som_sum",
                                "som_reaches", "som_scan", "som_write_nodes",
                                "som_read_nodes", "som_write_predictions"}
        for f in exports.values():
            assert not f._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        for name in ("som_winner", "som_link", "som_update"):
            assert not hasattr(built, name)


def test_default_only_changes_the_cloned_functions_alone():
    """The one preprocessor line that reads ``SOM_DEFAULT_ONLY`` defines
    ``CLONES``, and these six functions carry it: the define changes their
    machine code and no other function's."""
    source = _kernel._SOURCE.read_text()
    switches = re.findall(r"^\s*#.*SOM_DEFAULT_ONLY.*\n(.*)", source, re.M)
    assert len(switches) == 1 and switches[0].startswith("#define CLONES ")
    assert sorted(re.findall(r"^CLONES\s[^(]*?(\w+)\(", source, re.M)) == [
        "complete", "relink", "search", "som_classify", "sum_split", "winner"]


def test_threads_racing_to_the_first_map_build_the_library_once(
        tmp_path, monkeypatch):
    builds = []
    build = _kernel._build

    def counted(compiler, target):
        builds.append(target)
        build(compiler, target)

    monkeypatch.setattr(_kernel, "_build", counted)
    monkeypatch.setattr(_kernel, "_cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(_kernel, "_library", functools.cache(_kernel.load))
    threads_n = 4
    barrier = threading.Barrier(threads_n)
    maps = [None] * threads_n

    def work(t):
        barrier.wait(timeout=60)
        maps[t] = SomMap(2, 4)

    threads = [threading.Thread(target=work, args=(t,))
               for t in range(threads_n)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=300)
    assert not any(th.is_alive() for th in threads)
    if _kernel.compiled() is None:
        pytest.skip("no C compiler")
    assert len(builds) == 1
    assert all(som._view is not None for som in maps)


@pytest.mark.parametrize("winner_label", [NO_CLASS, 0])
def test_loops_agree_on_an_activation_at_the_threshold(winner_label):
    """An activation equal to ``a_t`` is not below it, in either loop.

    Unlabeled, the winner at ``a_t`` adopts the pattern's label; labeled
    otherwise, the second winner at ``a_t`` is attracted and the winner
    pushed. Random draws never land exactly on the threshold.
    """
    x = np.array([0.3, 0.6])
    with build("clones") as lib:
        fast = map_of(2, [node_at(x.copy(), label=winner_label),
                          node_at([0.35, 0.5])])
    acts = fast.activations(x)
    a_t = float(acts[0] if winner_label == NO_CLASS else acts[1])
    params = HyperParams(a_t=a_t, lp=0.01, beta=0.1, age_wins=100, e_b=0.1,
                         push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                         epochs=1, n_max=2)
    with build("numpy"):
        slow = pickle.loads(pickle.dumps(fast))
    states = [TrainState(som=som, params=params,
                         rng=np.random.default_rng(0)) for som in (fast, slow)]
    for state in states:
        _present_chunk(state, x[None], np.array([1]), np.array([0]),
                       allow_insert=True, observer=None)
    (a, b) = states
    assert a.som._train.args[0] is lib
    assert b.som._train.func is _train_numpy
    assert a.stats == b.stats
    assert a.stats.pushes == (winner_label != NO_CLASS)
    assert a.som.labels.tolist() == b.som.labels.tolist()
    assert a.som.labels[0] == (1 if winner_label == NO_CLASS else 0)
    assert np.array_equal(bits(a.som.centers), bits(b.som.centers))
    assert np.array_equal(bits(a.som.relevances), bits(b.som.relevances))
    assert a.som.connections == b.som.connections
