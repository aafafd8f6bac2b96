"""The screened winner search of the training loop against its numpy twin.

From 16 dimensions and 32 nodes on, ``som_train`` finds each winner
through a float32 screen (``search`` in ``_kernel.c``) and computes in
double only the nodes the screen cannot rule out. The winner, every node
row, the counters and the activation rows the loop reads must still be
``_train_numpy``'s, bit for bit. Every map here passes those gates, and
every chunk holds at least two draws, since the last draw of a call runs
the full search. The tests run on the clones, the baseline-only build and
the two ubsan builds, which must report no undefined behaviour.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisom import NO_CLASS, HyperParams, SomMap, _kernel
from semisom.model import _activations, _train_numpy
from conftest import build

screened = pytest.mark.builds("clones", "default-only", "ubsan",
                              "ubsan-no-int128")

_NODE_ROWS = ("centers", "rel", "dist", "sums", "wins", "labels", "adj")


@pytest.fixture(autouse=True)
def _no_undefined_behaviour(capfd, kernel_build):
    """The sanitizing builds report on stderr."""
    yield
    if kernel_build.startswith("ubsan"):
        assert "runtime error:" not in capfd.readouterr().err


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, where any NaN matches any NaN."""
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _twins(centers, rel, labels, budget: int, minwd: float, dist=None,
           wins=None) -> tuple[SomMap, SomMap]:
    """A map of these rows on the active build, linked, and its copy on the
    numpy twin."""
    n = len(centers)
    fast = SomMap.from_arrays(budget, centers, rel,
                              np.zeros_like(centers) if dist is None else dist,
                              np.zeros(n, np.int64) if wins is None else wins,
                              labels)
    fast.rebuild_connections(minwd)
    with build("numpy"):
        slow = pickle.loads(pickle.dumps(fast))
    assert fast._train.args[0] is _kernel.compiled()
    assert slow._train.func is _train_numpy
    return fast, slow


def _present(som: SomMap, params, patterns, labels, nwins: int = 0):
    """The patterns, in order, through the map's loop; returns the counts."""
    chunk = _kernel.Chunk(som.dim, patterns, labels,
                          np.arange(len(patterns), dtype=np.int64))
    chunk.count[_kernel.SLOTS.index("nwins")] = nwins
    with np.errstate(over="ignore", invalid="ignore"):
        assert som._run_presentations(params, chunk) == _kernel.END
    return chunk.count.tolist()


def _assert_same_maps(fast: SomMap, slow: SomMap) -> None:
    assert fast.n_nodes == slow.n_nodes
    n = fast.n_nodes
    for name in _NODE_ROWS:
        assert _same(getattr(fast._arrays, name)[:n],
                     getattr(slow._arrays, name)[:n]), name


@st.composite
def _gated_runs(draw):
    """A map past the screen's gates and a chunk of draws through it.

    Patterns lie on nodes, near them (attracted, or a push when the
    winner's label differs) or far from all (inserted, which grows the
    full storage). Sweeps come within the chunk, and the wins the nodes
    start with keep most of them, so the nodes that stay move down over
    the removed ones and the search runs on. The map may hold
    duplicate nodes (exact ties) and nodes the screen must always compute:
    a center beyond 2^56, a relevance below the smallest normal float32, a
    NaN distance average, which the node's first update turns into NaN
    relevances and activations. A pattern beyond 2^56 skips the screen.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(16, 48))
    n = draw(st.integers(32, 80))
    k = draw(st.integers(2, 40))
    centers = rng.random((n, m))
    rel = rng.random((n, m))
    dist = rng.random((n, m)) * 0.2
    labels = rng.integers(-1, 3, size=n)
    wins = rng.integers(0, 4, size=n)
    patterns = centers[rng.integers(n, size=k)] + rng.normal(size=(k, m)) * (
        rng.choice([0.0, 1e-3, 0.05, 1.0], size=(k, 1)))
    odd = draw(st.sets(st.sampled_from(
        ["ties", "huge center", "tiny relevance", "nan", "huge pattern"])))
    if "ties" in odd:
        centers[-1], rel[-1] = centers[0], rel[0]
        patterns[0] = centers[0]
    if "huge center" in odd:
        centers[rng.integers(n), rng.integers(m)] = 2.0 ** 57
    if "tiny relevance" in odd:
        rel[rng.integers(n), rng.integers(m)] = 1e-40
    if "nan" in odd:
        dist[rng.integers(n), rng.integers(m)] = np.nan
    if "huge pattern" in odd:
        patterns[rng.integers(k), rng.integers(m)] = -(2.0 ** 57)
    params = HyperParams(
        a_t=draw(st.sampled_from([0.5, 0.9, 0.99])),
        lp=draw(st.sampled_from([0.001, 0.01, 0.2])),
        beta=draw(st.sampled_from([0.01, 0.1, 0.5])),
        age_wins=draw(st.integers(1, 2 * k)),
        e_b=draw(st.sampled_from([0.01, 0.1, 0.5])),
        push_rate=draw(st.sampled_from([0.0, 0.01, 0.5])),
        e_n=draw(st.sampled_from([0.0, 0.001, 0.05])),
        eps_beta=draw(st.sampled_from([0.01, 0.05, 1.0])),
        minwd=draw(st.sampled_from([0.0, 0.1, 0.5])),
        epochs=1, n_max=n + draw(st.integers(0, 20)))
    return dict(centers=centers, rel=rel, dist=dist, labels=labels, wins=wins,
                patterns=patterns, pattern_labels=rng.integers(-1, 3, size=k),
                params=params, allow_insert=draw(st.booleans()),
                nwins=draw(st.integers(0, params.age_wins)))


def _gated_twins(run) -> tuple[SomMap, SomMap]:
    """The run's map and its numpy twin; NaN distance averages, which
    ``from_arrays`` refuses, are set in both."""
    dist = run["dist"]
    fast, slow = _twins(run["centers"], run["rel"], run["labels"],
                        run["params"].n_max, run["params"].minwd,
                        np.nan_to_num(dist), run["wins"])
    for som in (fast, slow):
        som._arrays.dist[:len(dist)] = dist
    return fast, slow


@screened
@settings(max_examples=40, deadline=None)
@given(run=_gated_runs())
def test_screened_loop_equals_python_loop(run):
    fast, slow = _gated_twins(run)
    args = _kernel.params(run["params"], run["allow_insert"])
    counts = [_present(som, args, run["patterns"], run["pattern_labels"],
                       run["nwins"]) for som in (fast, slow)]
    assert counts[0] == counts[1]
    _assert_same_maps(fast, slow)


@screened
@settings(max_examples=25, deadline=None)
@given(run=_gated_runs())
def test_activation_row_after_a_chunk_is_the_last_draws(run):
    """After a chunk, the activation row holds the last draw's activations
    against the map as it stood before that draw."""
    fast, slow = _gated_twins(run)
    args = _kernel.params(run["params"], run["allow_insert"])
    patterns, labels = run["patterns"], run["pattern_labels"]
    _present(slow, args, patterns[:-1], labels[:-1], run["nwins"])
    n, v = slow.n_nodes, slow._arrays
    with np.errstate(over="ignore", invalid="ignore"):
        want = _activations(v.centers[:n], v.rel[:n], v.sums[:n], patterns[-1])
    _present(fast, args, patterns, labels, run["nwins"])
    assert _same(fast._arrays.acts[:n], want)


def _far_nodes(rng, count: int, m: int) -> np.ndarray:
    """Centers that no pattern of these tests comes near."""
    return 5.0 + rng.random((count, m))


_PARAMS = HyperParams(a_t=0.9, lp=0.01, beta=0.1, age_wins=1000, e_b=0.1,
                      push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                      epochs=1, n_max=64)


@screened
def test_screen_keeps_a_winner_one_double_ulp_across_a_float_boundary():
    """Where the pattern lies halfway between two float32 values, a center
    one double ulp above it rounds to the float above, a whole float ulp
    away, while a decoy two double ulps below rounds onto the pattern's
    float. The decoy screens at distance zero and becomes the pivot; only
    the float rounding's own error term keeps the winner a candidate. The
    other nodes lie near the origin, far from the pattern, so that term is
    no larger than the winner needs."""
    m, s = 32, 1024.0
    x = np.full(m, s * (1.0 + 2.0 ** -24))
    near, decoy = x + s * 2.0 ** -52, x - s * 2.0 ** -51
    assert (near.astype(np.float32) != x.astype(np.float32)).all()
    assert (decoy.astype(np.float32) == x.astype(np.float32)).all()
    rng = np.random.default_rng(7)
    centers = np.vstack([decoy, rng.random((3, m)), near,
                         rng.random((35, m))])
    acts = _activations(centers, np.ones_like(centers), np.full(40, float(m)),
                        x)
    assert np.argmax(acts) == 4 and acts[4] > acts[0]
    fast, slow = _twins(centers, np.ones_like(centers),
                        np.full(40, NO_CLASS), 64, 0.3)
    args = _kernel.params(_PARAMS, True)
    patterns = np.vstack([x, centers[10]])
    for som in (fast, slow):
        _present(som, args, patterns, np.full(2, NO_CLASS))
    assert fast.wins[4] == 1
    _assert_same_maps(fast, slow)


@screened
def test_screen_computes_a_node_whose_float_relevance_rounds_up():
    """The winner differs from the pattern in one dimension only, by 2^54,
    under a relevance of 0.51 * 2^-149, which rounds to the float 2^-149,
    twice its size: in float the winner would lie farther than the pivot
    it beats. A relevance below the smallest normal float32 makes a node
    one the screen always computes. The other nodes lie a little apart
    from the pattern, near the origin, so that the error term for the
    float rounding of centers stays small."""
    m = 16
    x = np.full(m, 0.01)
    winner, pivot = x.copy(), x.copy()
    winner[0] = 2.0 ** 54
    pivot[1] += 5.8e-7
    rel = np.ones((40, m))
    rel[1, 0] = 0.51 * 2.0 ** -149
    rng = np.random.default_rng(8)
    centers = np.vstack([pivot, winner, x + 0.02 + 0.03 * rng.random((38, m))])
    acts = _activations(centers, rel, rel.sum(axis=1), x)
    assert np.argmax(acts) == 1 and acts[1] > acts[0]
    fast, slow = _twins(centers, rel, np.full(40, NO_CLASS), 64, 0.3)
    args = _kernel.params(_PARAMS, True)
    patterns = np.vstack([x, centers[10]])
    for som in (fast, slow):
        _present(som, args, patterns, np.full(2, NO_CLASS))
    assert fast.wins[1] == 1
    _assert_same_maps(fast, slow)


@screened
def test_second_winner_reads_the_current_patterns_activations():
    """The first draw sets node 0 (class 1) far above a_t; the second, of
    class 1, wins node 1 (class 0), and node 0 now lies below a_t. The
    search rules node 0 out, so its activation must be computed anew
    before the second winner is sought: there is none, and no push."""
    m, rng = 16, np.random.default_rng(9)
    centers = np.vstack([np.full(m, 0.2), np.full(m, 0.8),
                         _far_nodes(rng, 38, m)])
    labels = np.array([1, 0] + [2] * 38)
    fast, slow = _twins(centers, np.ones_like(centers), labels, 64, 0.3)
    args = _kernel.params(_PARAMS, True)
    patterns = np.vstack([centers[0] + 0.001, centers[1] + 0.001,
                          centers[5]])
    counts = [_present(som, args, patterns, np.array([NO_CLASS, 1, 2]))
              for som in (fast, slow)]
    assert counts[0] == counts[1]
    assert counts[0][_kernel.SLOTS.index("pushes")] == 0
    _assert_same_maps(fast, slow)


@screened
def test_insert_return_leaves_the_whole_activation_row():
    """A draw that inserts into full storage returns ``INSERT`` before it
    changes anything, with the activation row whole, as the numpy twin
    leaves it, though the search computed only the candidates."""
    m, rng = 16, np.random.default_rng(10)
    centers = rng.random((32, m))
    fast, slow = _twins(centers, np.ones_like(centers), np.full(32, NO_CLASS),
                        64, 0.3)
    assert len(fast._arrays.centers) == 32
    args = _kernel.params(_PARAMS, True)
    patterns = np.vstack([centers[3] + 0.5, centers[3]])
    for som in (fast, slow):
        chunk = _kernel.Chunk(m, patterns, np.full(2, NO_CLASS),
                              np.arange(2, dtype=np.int64))
        assert som._train(32, args, chunk) == _kernel.INSERT
    want = _activations(centers, np.ones_like(centers), np.full(32, float(m)),
                        patterns[0])
    assert _same(fast._arrays.acts[:32], want)
    assert _same(slow._arrays.acts[:32], want)
