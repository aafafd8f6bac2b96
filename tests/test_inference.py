from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisom import (NO_CLASS, REJECTED, HyperParams, SomMap, classify,
                     classify_batch, cluster, inference, mask_labels,
                     normalize, train_with_state)
from helpers import (brute_winner, make_synthetic, map_of, node_at,
                     random_map, reference_classify)


@pytest.fixture
def mixed_map():
    return map_of(8, [
        node_at([0.2, 0.2], label=NO_CLASS),
        node_at([0.8, 0.8], label=1),
        node_at([0.5, 0.5], label=0),
    ])


def test_cluster_exact_center_is_near_full_activation(mixed_map):
    node, act = cluster(mixed_map, np.array([0.8, 0.8]), a_t=0.9)
    assert node == 1
    assert act == pytest.approx(1.0, abs=1e-6)


def test_cluster_outlier_when_all_below_threshold(mixed_map):
    assert cluster(mixed_map, np.array([0.0, 1.0]), a_t=0.999) is None


def test_cluster_agrees_with_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(200):
        som = random_map(rng)
        x = rng.random(som.dim)
        # the smallest positive threshold: only an activation of 0 is below
        got = cluster(som, x, a_t=5e-324)
        assert got is not None and got[0] == brute_winner(som, x)[0]


def test_labeled_winner_decides_at_any_activation(mixed_map):
    # far from everything, winner is the class-0 node at (0.5, 0.5)
    pred = classify(mixed_map, np.array([0.45, 0.55]), a_t=0.9999)
    assert pred.label == 0 and pred.node == 2


def test_unlabeled_winner_falls_back_to_labeled_above_threshold():
    som = map_of(8, [
        node_at([0.5, 0.5], label=NO_CLASS),
        node_at([0.45, 0.45], label=1),
    ])
    x = np.array([0.5, 0.5])
    acts = som.activations(x)
    assert acts[0] > acts[1]
    pred = classify(som, x, a_t=acts[1])  # inclusive boundary
    assert pred.label == 1 and pred.node == 1
    assert pred.activation == pytest.approx(float(acts[1]))


def test_no_labeled_nodes_means_rejected():
    som = map_of(4, [node_at([0.3, 0.3]), node_at([0.7, 0.7])])
    for x in np.random.default_rng(4).random((20, 2)):
        pred = classify(som, x, a_t=0.5)
        assert pred.label == REJECTED and pred.node is None


def test_classify_never_returns_no_class():
    rng = np.random.default_rng(9)
    for _ in range(300):
        som = random_map(rng)
        pred = classify(som, rng.random(som.dim), a_t=float(rng.random()))
        assert pred.label != NO_CLASS
        assert pred.label == REJECTED or pred.label >= 0


def test_zero_threshold_with_labeled_node_never_rejects():
    rng = np.random.default_rng(13)
    for _ in range(200):
        som = random_map(rng)
        if not (som.labels != NO_CLASS).any():
            continue
        pred = classify(som, rng.random(som.dim), a_t=5e-324)  # least a_t > 0
        assert pred.label != REJECTED


def test_cluster_and_classify_agree_on_labeled_winner(mixed_map):
    x = np.array([0.78, 0.82])
    node, act = cluster(mixed_map, x, a_t=0.9)
    pred = classify(mixed_map, x, a_t=0.9)
    assert node == pred.node == 1


def test_classify_batch_matches_single_calls(mixed_map):
    xs = np.random.default_rng(1).random((10, 2))
    batch = classify_batch(mixed_map, xs, a_t=0.9)
    assert batch == [classify(mixed_map, x, a_t=0.9) for x in xs]


def test_dimension_mismatch_raises(mixed_map):
    with pytest.raises(ValueError):
        classify(mixed_map, np.zeros(3), a_t=0.5)
    with pytest.raises(ValueError):
        cluster(mixed_map, np.zeros(5), a_t=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_patterns_raise(mixed_map, bad):
    xs = np.random.default_rng(3).random((5, 2))
    xs[3, 1] = bad
    with pytest.raises(ValueError, match="pattern 3 "):
        classify_batch(mixed_map, xs, a_t=0.9)
    with pytest.raises(ValueError, match="non-finite"):
        classify(mixed_map, xs[3], a_t=0.9)
    with pytest.raises(ValueError, match="non-finite"):
        cluster(mixed_map, xs[3], a_t=0.9)


@pytest.mark.parametrize("entry", ["cluster", "classify", "classify_batch"])
def test_complex_patterns_raise(mixed_map, entry):
    """A cast to float would classify 0.1+2j as 0.1, with only a
    warning."""
    x = np.array([0.1 + 2j, 0.2])
    with pytest.raises(ValueError, match="complex values"):
        if entry == "classify_batch":
            classify_batch(mixed_map, x[None], 0.5)
        else:
            dict(cluster=cluster, classify=classify)[entry](mixed_map, x, 0.5)


def _call(entry, som, a_t):
    x = np.array([0.2, 0.2])
    if entry == "classify_batch":
        return classify_batch(som, x[None], a_t)
    return dict(cluster=cluster, classify=classify)[entry](som, x, a_t)


@pytest.mark.parametrize("entry", ["cluster", "classify", "classify_batch"])
@pytest.mark.parametrize("a_t", [np.nan, np.inf, -np.inf])
def test_non_finite_thresholds_raise(mixed_map, entry, a_t):
    """A NaN threshold would compare false with every activation, and an
    infinite one would reject or accept every pattern."""
    with pytest.raises(ValueError, match="a_t must be finite"):
        _call(entry, mixed_map, a_t)


@pytest.mark.parametrize("entry", ["cluster", "classify", "classify_batch"])
@pytest.mark.parametrize("a_t", [0.0, -1.0, 1.0, 2.0])
def test_thresholds_outside_the_unit_interval_raise(mixed_map, entry, a_t):
    """Activations lie in (0, 1): a threshold of 0 or below accepts every
    pattern, and one of 1 or above makes every pattern an outlier."""
    with pytest.raises(ValueError,
                       match=fr"a_t must lie in \(0, 1\), got {a_t}"):
        _call(entry, mixed_map, a_t)


def test_exact_ties_go_to_the_lowest_index():
    som = map_of(8, [
        node_at([0.9, 0.1], label=0),
        node_at([0.3, 0.6], label=NO_CLASS),
        node_at([0.3, 0.6], label=1),
        node_at([0.3, 0.6], label=0),
    ])
    pred = classify_batch(som, np.array([[0.3, 0.6], [0.31, 0.6]]), 0.5)
    assert [p.node for p in pred] == [2, 2]


def _key(pred):
    return pred.node, pred.label, float(pred.activation).hex()


def test_classify_batch_sees_an_overflowing_term_of_zero_relevance():
    """Node 1's term 0 * (1e200 - 0.5)^2 is NaN, so its activation is NaN
    and wins, though the screen's expanded form, where the term is 0 * 1e200
    * 1e200 = 0, bounds it below node 0's activation."""
    som = map_of(2, [
        node_at([0.5, 0.5], label=0),
        node_at([1e200, 0.1], relevance=[0.0, 1.0], label=1)])
    x = np.array([[0.5, 0.9]])
    with np.errstate(all="ignore"):
        want = _key(reference_classify(som, x[0], 0.5))
        assert want == (1, 1, "nan")
        assert _key(classify_batch(som, x, 0.5)[0]) == want


@st.composite
def _batches(draw):
    """A random map and patterns, with the cases an inexact screen misses."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    # scales of the float32 screen's edges: its guard (2^57 to 2^60 here,
    # see inference._guard), and float underflow and subnormals
    scale = draw(st.sampled_from([1.0, 1e-6, 1e150, 1e160, 1e17, 1e18,
                                  1e19, 1e20, 1e-20, 1e-40]))
    centers = rng.random((n, m)) * scale
    rel = rng.random((n, m))
    labels = rng.integers(-1, 3, size=n)
    if draw(st.booleans()):  # duplicate nodes: exact ties
        src, dst = rng.integers(n, size=2)
        centers[dst], rel[dst] = centers[src], rel[src]
    if draw(st.booleans()):  # a node that never activates
        rel[rng.integers(n)] = 0.0
    if draw(st.booleans()):  # outside the bound's assumptions
        rel[rng.integers(n), 0] *= -1.0
    if draw(st.booleans()):  # relevances at and beyond the screen's range
        rel[rng.integers(n), rng.integers(m)] = draw(st.sampled_from(
            [16.0, 17.0, 1e6, 2.0 ** -126, 1e-40, 5e-324]))
    # a huge coordinate of zero relevance in a node, a pattern or both:
    # where (c - x)^2 overflows, the exact activation is 0 * inf = NaN
    huge = draw(st.sampled_from([None, 2.0 ** 510, 2.0 ** 511, 1e200,
                                 1e300]))
    huge_at = draw(st.sampled_from(["node", "pattern", "both"]))
    if huge is not None:
        j, q = rng.integers(n), rng.integers(m)
        rel[j, q] = 0.0
        if huge_at != "pattern":
            centers[j, q] = huge
    if draw(st.booleans()):  # unlabeled winners with no fallback at all
        labels[:] = NO_CLASS
    elif draw(st.booleans()):
        labels[rng.integers(n)] = NO_CLASS
    som = SomMap.from_arrays(n, centers, rel, np.zeros((n, m)),
                             np.zeros(n, np.int64), labels)
    k = draw(st.integers(1, 30))
    x = rng.random((k, m)) * scale
    on_center = rng.random(k) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    x[on_center] = centers[rng.integers(n, size=int(on_center.sum()))]
    if huge is not None and huge_at != "node":
        x[rng.integers(k), q] = -huge
    a_t = None
    if draw(st.booleans()):  # threshold equal to an activation
        with np.errstate(all="ignore"):
            acts = som.activations(x[rng.integers(k)])
        a_t = float(acts[rng.integers(n)])
    # a_t outside (0, 1) is refused: NaN, a zero-mass node's 0, and others
    if a_t is None or not 0.0 < a_t < 1.0:
        a_t = float(rng.random())
    rows_per_block = draw(st.integers(1, k + 1))
    return som, x, a_t, rows_per_block


@settings(max_examples=400, deadline=None)
@given(_batches())
def test_classify_batch_is_exact(batch):
    som, x, a_t, rows_per_block = batch
    block = rows_per_block * 4 * som.n_nodes
    # overflow and negative relevances make NaN on both sides, by design
    with np.errstate(all="ignore"), \
            mock.patch.object(inference, "_BLOCK_BYTES", block):
        want = [_key(reference_classify(som, xi, a_t)) for xi in x]
        assert [_key(p) for p in classify_batch(som, x, a_t)] == want
        assert _key(classify(som, x[0], a_t)) == want[0]


def test_classify_batch_is_exact_on_a_trained_map():
    ds = normalize(make_synthetic(n=400, dim=12, clusters=4, seed=21))
    params = HyperParams(a_t=0.97, lp=0.001, beta=0.1, age_wins=800,
                         e_b=0.1, push_rate=0.01, e_n=0.005, eps_beta=0.05,
                         minwd=0.25, epochs=2, n_max=len(ds), seed=4)
    som = train_with_state(mask_labels(ds, 0.3, seed=5), params).som
    probes = np.vstack([ds.patterns,
                        np.random.default_rng(8).random((400, ds.dim))])
    want = [_key(reference_classify(som, x, params.a_t)) for x in probes]
    for rows in (1, 7, 64, len(probes)):
        with mock.patch.object(inference, "_BLOCK_BYTES",
                               rows * 4 * som.n_nodes):
            got = classify_batch(som, probes, params.a_t)
        assert [_key(p) for p in got] == want
    assert any(p.label == REJECTED for p in got)
