"""The screened winner search of the training loop against its numpy twin.

From 16 dimensions and 32 nodes on, ``som_train`` finds each winner
through a float32 screen (``search`` in ``_kernel.c``), which sums a
block of 8 nodes 8 dimensions at a time past the first 16 and stops once
its partial sums rule all 8 out, and computes in double only the nodes
the screen cannot rule out. The winner, every node row, the counters and
the activation rows the loop reads must still be ``_train_numpy``'s, bit
for bit. Every map here passes those gates, and every chunk holds at
least two draws, since the last draw of a call runs the full search. The
tests run on the clones, the baseline-only build and the two ubsan
builds, which must report no undefined behaviour.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisom import NO_CLASS, HyperParams, SomMap, _kernel
from semisom.inference import _guard
from semisom.model import _activations, _train_numpy
from conftest import build
from helpers import assert_adjacency_invariant

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
    assert_adjacency_invariant(fast)


@st.composite
def _gated_runs(draw):
    """A map past the screen's gates and a chunk of draws through it.

    Patterns lie on nodes, near them (attracted, or a push when the
    winner's label differs) or far from all (inserted, which grows the
    full storage). Sweeps come within the chunk, and the wins the nodes
    start with keep most of them, so the nodes that stay move down over
    the removed ones and the search runs on. The map may hold
    duplicate nodes (exact ties); a relevance below the smallest normal
    float32, which the screen counts as 0; a node that never moved
    (all-one relevances, zero distance averages, so its mass is m) with a
    pattern on its center, whose activation lies within 1e-8 of 1; and
    nodes the screen must always compute: a center just past the screen's
    guard (``inference._guard``, 2^57 or 2^58 here), a NaN distance
    average, which the node's first update turns into NaN relevances and
    activations. A pattern just past the guard skips the screen.
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
        ["ties", "huge center", "tiny relevance", "nan", "huge pattern",
         "unmoved node"])))
    past = np.nextafter(_guard(m), np.inf)
    if "ties" in odd:
        centers[-1], rel[-1] = centers[0], rel[0]
        patterns[0] = centers[0]
    if "unmoved node" in odd:
        i = rng.integers(n)
        rel[i], dist[i] = 1.0, 0.0
        patterns[rng.integers(k)] = centers[i]
    if "huge center" in odd:
        centers[rng.integers(n), rng.integers(m)] = past
    if "tiny relevance" in odd:
        rel[rng.integers(n), rng.integers(m)] = 1e-40
    if "nan" in odd:
        dist[rng.integers(n), rng.integers(m)] = np.nan
    if "huge pattern" in odd:
        patterns[rng.integers(k), rng.integers(m)] = -past
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
    the screen's margin for float rounding keeps the winner a candidate.
    The other nodes lie near the origin, far from the pattern."""
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
def test_screen_keeps_a_winner_whose_pattern_rounds_up_in_float():
    """Every value of the pattern lies just below 1000 and rounds up to
    it in float32, so the float product |x32|^2 exceeds the exact |x|^2
    by nearly 1, more than the 0.12 by which the winner, 2^-14 off the
    origin towards the pattern, lies nearer than the decoy at the origin.
    Both screen to the same float bound, so the decoy becomes the pivot;
    only the part of the margin that grows with |x|^2 keeps the winner a
    candidate. Every product and sum of the float screen is exact here,
    whatever its order. The other nodes lie farther from the pattern."""
    m = 16
    x = np.full(m, 1000.0 - 0.49 * 2.0 ** -14)
    assert (x.astype(np.float32) == 1000.0).all()
    winner = np.zeros(m)
    winner[0] = 2.0 ** -14
    rng = np.random.default_rng(12)
    centers = np.vstack([np.zeros(m), winner,
                         -1.0 - rng.random((38, m))])
    acts = _activations(centers, np.ones_like(centers), np.full(40, float(m)),
                        x)
    assert np.argmax(acts) == 1 and acts[1] > acts[0] > 0.001
    fast, slow = _twins(centers, np.ones_like(centers),
                        np.full(40, NO_CLASS), 64, 0.3)
    # an a_t below the winner's activation, so that the winner is attracted
    args = _kernel.params(replace(_PARAMS, a_t=0.001), True)
    patterns = np.vstack([x, centers[10]])
    for som in (fast, slow):
        _present(som, args, patterns, np.full(2, NO_CLASS))
    assert fast.wins[1] == 1
    _assert_same_maps(fast, slow)


@screened
def test_screen_computes_a_node_whose_float_relevance_rounds_up():
    """The winner differs from the pattern in one dimension only, by 2^54,
    under a relevance of 0.51 * 2^-149, which rounds to the float 2^-149,
    twice its size: in float the winner would lie farther than the pivot
    it beats. The screen counts a relevance below the smallest normal
    float32 as 0, which can only lower a node's bound on its distance. The
    other nodes lie a little apart from the pattern, near the origin."""
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


@screened
def test_sweep_keeps_and_relinks_more_than_a_word_of_nodes():
    """The first draw ends a cycle, and the sweep keeps all 100 nodes: it
    links node j with [j + 1, 100), a span that starts inside a bit word
    and, from j = 63 on, leaves the first word out. The draws after it,
    some of them onto unlabelled nodes that take their label, relink
    nodes across both words."""
    m, n = 16, 100
    rng = np.random.default_rng(11)
    centers = rng.random((n, m))
    labels = rng.integers(-1, 4, size=n)
    fast, slow = _twins(centers, rng.random((n, m)), labels, 128, 0.5,
                        wins=np.ones(n, np.int64))
    args = _kernel.params(HyperParams(
        a_t=0.5, lp=0.01, beta=0.1, age_wins=8, e_b=0.1, push_rate=0.05,
        e_n=0.01, eps_beta=0.05, minwd=0.5, epochs=1, n_max=128), True)
    unlabelled = np.flatnonzero(labels == NO_CLASS)
    drawn = np.array([5, unlabelled[0], 70, unlabelled[-1], 99, 30])
    pattern_labels = np.where(labels[drawn] == NO_CLASS, 2, labels[drawn])
    counts = [_present(som, args, centers[drawn] + 0.001, pattern_labels, 8)
              for som in (fast, slow)]
    assert counts[0] == counts[1]
    assert counts[0][_kernel.SLOTS.index("resets")] == 1
    assert fast.n_nodes == n
    assert any(i < 64 <= j for i, j in fast.connections)
    assert (fast.labels[unlabelled[[0, -1]]] == 2).all()
    _assert_same_maps(fast, slow)


@st.composite
def _projected_runs(draw):
    """A map of projected clusters past the screen's gates, and draws from
    its classes, in 17 to 48 dimensions.

    Each class lives on its own subset of dimensions, anywhere in the row:
    its nodes have their centers near the class's mean, relevances near one
    and small distance averages there, and relevances near zero (or zero)
    and large distance averages elsewhere, so that their updates keep the
    relevances where they are. The nodes are sorted by label, so that most
    blocks of 8 nodes hold one class, and a pattern off a block's subset
    rules the block out after the chunk that holds enough of that subset:
    over the examples, blocks stop at every stop, the last one included.
    Patterns lie on their class's mean on its subset and anywhere
    elsewhere; some are unlabelled, some far from every class.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(17, 48))
    n = draw(st.integers(32, 96))
    k = draw(st.integers(2, 40))
    classes = draw(st.integers(2, 6))
    sub = draw(st.integers(2, min(12, m // 2)))
    subsets = [rng.choice(m, size=sub, replace=False) for _ in range(classes)]
    means = rng.random((classes, m))
    owner = np.sort(rng.integers(classes, size=n))
    labels = np.where(rng.random(n) < 0.1, NO_CLASS, owner)
    off = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    centers = rng.random((n, m))
    rel = rng.random((n, m)) * off
    dist = 0.2 + 0.2 * rng.random((n, m))
    for j, c in enumerate(owner):
        on = subsets[c]
        centers[j, on] = means[c, on] + rng.normal(size=sub) * 0.02
        rel[j, on] = 0.9 + 0.1 * rng.random(sub)
        dist[j, on] = 0.01 * rng.random(sub)
    drawn = rng.integers(classes, size=k)
    patterns = rng.random((k, m))
    for i, c in enumerate(drawn):
        on = subsets[c]
        patterns[i, on] = means[c, on] + rng.normal(size=sub) * draw(
            st.sampled_from([0.0, 0.01, 0.1]))
    patterns[rng.random(k) < 0.1] += 3.0
    pattern_labels = np.where(rng.random(k) < 0.2, NO_CLASS, drawn)
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
    return dict(centers=centers, rel=rel, dist=dist, labels=labels,
                wins=rng.integers(0, 4, size=n), patterns=patterns,
                pattern_labels=pattern_labels, params=params,
                allow_insert=draw(st.booleans()),
                nwins=draw(st.integers(0, params.age_wins)))


@screened
@settings(max_examples=40, deadline=None)
@given(run=_projected_runs())
def test_screen_by_chunks_equals_python_loop_on_projected_clusters(run):
    """Blocks that stop after any chunk leave the loop's winners, rows,
    counters and links those of ``_train_numpy``, bit for bit."""
    fast, slow = _gated_twins(run)
    args = _kernel.params(run["params"], run["allow_insert"])
    counts = [_present(som, args, run["patterns"], run["pattern_labels"],
                       run["nwins"]) for som in (fast, slow)]
    assert counts[0] == counts[1]
    _assert_same_maps(fast, slow)


@screened
@settings(max_examples=20, deadline=None)
@given(run=_projected_runs())
def test_activation_row_after_a_chunk_on_projected_clusters(run):
    """After a chunk, the activation row holds the last draw's activations,
    whichever chunks the blocks stopped at before it."""
    fast, slow = _gated_twins(run)
    args = _kernel.params(run["params"], run["allow_insert"])
    patterns, labels = run["patterns"], run["pattern_labels"]
    _present(slow, args, patterns[:-1], labels[:-1], run["nwins"])
    n, v = slow.n_nodes, slow._arrays
    with np.errstate(over="ignore", invalid="ignore"):
        want = _activations(v.centers[:n], v.rel[:n], v.sums[:n], patterns[-1])
    _present(fast, args, patterns, labels, run["nwins"])
    assert _same(fast._arrays.acts[:n], want)


def _edge_map(m: int, chunk: int, x: np.ndarray, near: np.ndarray,
              decoy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and relevances of 48 nodes in m dimensions: the decoy is
    node 0, the node `near` is node 8, and every other node lies far from
    the pattern x, so that the float test rules its block out at the first
    stop. Relevances are one."""
    rng = np.random.default_rng(13 + chunk)
    centers = -1.0 - rng.random((48, m))
    centers[0], centers[8] = decoy, near
    return centers, np.ones((48, m))


def _float_bound(x: np.ndarray, c: np.ndarray) -> float:
    """The float32 bound of the screen on |c - x|^2, with relevances of
    one, before its slack term: fl32(fl32(d + q) + fl32(|c|^2)). Exact
    whatever the order of its float sums, for the rows of the test below."""
    x32 = x.astype(np.float32)
    q = np.sum(x32 * x32, dtype=np.float32)
    d = np.sum(x32 * (-2.0 * c).astype(np.float32), dtype=np.float32)
    return float(np.float32(d + q) + np.float32(np.sum(c * c)))


@screened
@pytest.mark.parametrize("m, chunk", [(40, 1), (40, 2), (40, 3), (40, 4),
                                      (36, 4), (20, 2)])
def test_partial_sum_slack_keeps_a_winner_its_float_sq_rounds_up(m, chunk):
    """The pattern, the winner (node 8) and a decoy (node 0) are 0 outside
    chunk ``chunk`` of 8 dimensions. Inside it the winner sits on the
    pattern, c = 1 + 2^-23 + 2^-25, which rounds to the float
    c' = 1 + 2^-23, and the decoy on c', 2^-25 off. Every float sum is
    exact but the float |c|^2 of each stop from that chunk on: the
    winner's rounds up by 2^-23 per 8 dimensions, the decoy's not. Before
    its slack term the winner's float bound is thus above 0 and the
    decoy's 0; the decoy is the pivot, and the winner, at distance 0,
    would be ruled out at the stop after that chunk, the first stop for
    chunk 1 and a partial sum for each chunk but the last. Only that
    stop's slack keeps it. The other nodes lie far from the pattern."""
    x = np.zeros(m)
    inside = np.arange(m)[8 * chunk:8 * chunk + 8]
    x[inside] = 1.0 + 2.0 ** -23 + 2.0 ** -25
    decoy = np.zeros(m)
    decoy[inside] = 1.0 + 2.0 ** -23
    assert (x.astype(np.float32) == decoy).all()
    assert _float_bound(x, decoy) == 0.0
    assert _float_bound(x, x) == len(inside) * 2.0 ** -23
    centers, rel = _edge_map(m, chunk, x, x, decoy)
    acts = _activations(centers, rel, rel.sum(axis=1), x)
    assert np.argmax(acts) == 8 and acts[8] > acts[0]
    fast, slow = _twins(centers, rel, np.full(48, NO_CLASS), 64, 0.3)
    args = _kernel.params(_PARAMS, True)
    patterns = np.vstack([x, centers[20]])
    for som in (fast, slow):
        _present(som, args, patterns, np.full(2, NO_CLASS))
    assert fast.wins[8] == 1
    _assert_same_maps(fast, slow)


@screened
@pytest.mark.parametrize("m, chunk", [(40, 2), (40, 3), (40, 4), (20, 2)])
def test_block_stops_only_after_the_chunk_it_has_summed(m, chunk):
    """The winner (node 8) sits on the pattern, but for 0.01 in dimension
    0, and the pattern is large (4.0) in chunk ``chunk`` of 8 dimensions,
    where the winner's relevances are one. The decoy (node 0) is 0.02 off
    in dimension 1 and has relevances near zero in that chunk. Before the
    chunk is summed, the winner's |c|^2 there is far above the pattern's
    part of its bound; a stop that took the chunk's |c|^2 without its sums
    would rule the winner out, one chunk too early."""
    x = np.full(m, 0.5)
    inside = np.arange(m)[8 * chunk:8 * chunk + 8]
    x[inside] = 4.0
    near, decoy = x.copy(), x.copy()
    near[0] += 0.01
    decoy[1] += 0.02
    centers, rel = _edge_map(m, chunk, x, near, decoy)
    rel[0, inside] = 1e-6
    acts = _activations(centers, rel, rel.sum(axis=1), x)
    assert np.argmax(acts) == 8 and acts[8] > acts[0]
    fast, slow = _twins(centers, rel, np.full(48, NO_CLASS), 64, 0.3)
    args = _kernel.params(replace(_PARAMS, a_t=0.001), True)
    patterns = np.vstack([x, centers[20]])
    for som in (fast, slow):
        _present(som, args, patterns, np.full(2, NO_CLASS))
    assert fast.wins[8] == 1
    _assert_same_maps(fast, slow)
