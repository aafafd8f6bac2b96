import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semisom import (ACTIVATION_EPS, NO_CLASS, HyperParams, MapFullError,
                     Node, SomMap, activation, compute_relevances, connected,
                     update_node, weighted_distance)
from helpers import brute_connections, brute_winner, random_map


def node_at(center, relevance=None, dist_avg=None, label=NO_CLASS, wins=0):
    center = np.asarray(center, dtype=float)
    if relevance is None:
        relevance = np.ones_like(center)
    if dist_avg is None:
        dist_avg = np.zeros_like(center)
    return Node(center=center, relevance=np.asarray(relevance, dtype=float),
                dist_avg=np.asarray(dist_avg, dtype=float), wins=wins,
                label=label)


# -- weighted distance -------------------------------------------------------

def test_distance_zero_for_identical_points():
    n = node_at([0.5, 0.5], relevance=[0.3, 0.9])
    assert weighted_distance(np.array([0.5, 0.5]), n) == 0.0


def test_distance_reduces_to_euclidean_with_unit_relevance():
    n = node_at([3.0, 4.0])
    assert weighted_distance(np.zeros(2), n) == pytest.approx(5.0)


def test_distance_hand_computed():
    n = node_at([2.0, 1.0], relevance=[0.25, 1.0])
    assert weighted_distance(np.zeros(2), n) == pytest.approx(math.sqrt(2.0),
                                                              abs=1e-12)


def test_distance_rejects_dimension_mismatch():
    n = node_at([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        weighted_distance(np.zeros(2), n)


# -- activation --------------------------------------------------------------

def test_activation_near_one_at_zero_distance():
    n = node_at([0.0] * 4)
    act = activation(np.zeros(4), n, eps=1e-7)
    assert act == pytest.approx(4.0 / (4.0 + 1e-7))
    assert act < 1.0


def test_activation_half_when_distance_equals_mass():
    # mass 2, distance 2
    n = node_at([0.0, 0.0])
    x = np.array([math.sqrt(2.0), math.sqrt(2.0)])
    assert activation(x, n, eps=1e-13) == pytest.approx(0.5, abs=1e-12)


def test_activation_zero_relevance_never_activates():
    n = node_at([0.2, 0.9], relevance=[0.0, 0.0])
    assert activation(np.array([0.4, 0.1]), n) == 0.0


def test_activation_requires_positive_eps():
    with pytest.raises(ValueError):
        activation(np.zeros(2), node_at([0.0, 0.0]), eps=0.0)


@settings(max_examples=200, deadline=None)
@given(
    x=arrays(float, 5, elements=st.floats(0, 1)),
    c=arrays(float, 5, elements=st.floats(0, 1)),
    w=arrays(float, 5, elements=st.floats(0, 1)),
)
def test_activation_bounded(x, c, w):
    act = activation(x, node_at(c, relevance=w))
    assert 0.0 <= act < 1.0


def test_activation_non_increasing_in_distance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        c = rng.random(m)
        w = rng.random(m)
        x = rng.random(m)
        n = node_at(c, relevance=w)
        base = activation(x, n)
        k = int(rng.integers(m))
        moved = x.copy()
        moved[k] = c[k] + (x[k] - c[k]) * (1.0 + rng.random())
        assert activation(moved, n) <= base + 1e-15


# -- relevances --------------------------------------------------------------

def test_relevances_all_one_when_components_equal():
    assert np.array_equal(compute_relevances(np.array([0.3, 0.3, 0.3]), 0.1),
                          np.ones(3))


def test_relevances_hand_computed():
    rel = compute_relevances(np.array([0.0, 1.0]), 0.1)
    assert rel == pytest.approx([0.9933071490757153, 0.0066928509242848554],
                                abs=1e-12)


def test_relevance_at_mean_is_half():
    rel = compute_relevances(np.array([0.0, 0.5, 1.0]), 0.1)
    assert rel[1] == pytest.approx(0.5)


def test_relevances_orientation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        d = rng.random(m)
        rel = compute_relevances(d, slope=float(rng.uniform(0.01, 0.1)))
        assert np.all(rel >= 0.0) and np.all(rel <= 1.0)
        order = np.argsort(d)
        ranked = rel[order]
        assert np.all(np.diff(ranked) <= 0.0)


def test_relevances_batch_matches_rows():
    rng = np.random.default_rng(3)
    batch = rng.random((6, 5))
    out = compute_relevances(batch, 0.05)
    for row, expect in zip(batch, out):
        assert np.array_equal(compute_relevances(row, 0.05), expect)


def test_relevances_reject_nonpositive_slope():
    with pytest.raises(ValueError):
        compute_relevances(np.array([0.1, 0.2]), 0.0)


# -- node update -------------------------------------------------------------

def test_update_zero_rate_keeps_node():
    dist = np.array([0.1, 0.2])
    n = node_at([0.3, 0.7], relevance=compute_relevances(dist, 0.05),
                dist_avg=dist)
    before = (n.center.copy(), n.dist_avg.copy(), n.relevance.copy())
    update_node(n, np.array([0.9, 0.1]), lr=0.0, beta=0.3, slope=0.05)
    assert np.array_equal(n.center, before[0])
    assert np.array_equal(n.dist_avg, before[1])
    assert np.array_equal(n.relevance, before[2])


def test_update_full_rate_moves_center_onto_pattern():
    n = node_at([0.3, 0.7])
    update_node(n, np.array([0.9, 0.1]), lr=1.0, beta=0.3, slope=0.05)
    assert np.array_equal(n.center, np.array([0.9, 0.1]))


def test_update_half_rate_hand_computed():
    n = node_at([0.0, 0.0])
    update_node(n, np.array([1.0, 1.0]), lr=0.5, beta=0.1, slope=0.05)
    assert n.center == pytest.approx([0.5, 0.5])
    # moving average saw |x - c| with the pre-update center
    assert n.dist_avg == pytest.approx([0.05, 0.05])
    assert np.array_equal(n.relevance, np.ones(2))


def test_update_uses_old_center_for_distance_average():
    n = node_at([0.2, 0.2], dist_avg=[0.4, 0.0])
    update_node(n, np.array([1.0, 0.2]), lr=0.5, beta=0.2, slope=0.05)
    # (1 - 0.1) * 0.4 + 0.1 * 0.8 = 0.44
    assert n.dist_avg[0] == pytest.approx(0.44)
    assert n.dist_avg[1] == pytest.approx(0.0)


def test_negative_rate_clamps_distance_average_at_zero():
    n = node_at([0.0, 0.0], dist_avg=[0.0, 0.001])
    update_node(n, np.array([1.0, 1.0]), lr=-0.9, beta=0.9, slope=0.05)
    assert np.all(n.dist_avg >= 0.0)


def test_update_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        update_node(node_at([0.0, 0.0]), np.zeros(3), 0.1, 0.1, 0.05)


# -- connection predicate ----------------------------------------------------

def test_connected_same_label_identical_relevance():
    a = node_at([0.0], relevance=[0.5], label=2)
    b = node_at([1.0], relevance=[0.5], label=2)
    assert connected(a, b, minwd=0.1)


def test_conflicting_labels_never_connect():
    a = node_at([0.0, 0.0], label=0)
    b = node_at([0.0, 0.0], label=1)
    assert not connected(a, b, minwd=1e9)


def test_relevance_gap_threshold():
    m = 4
    a = node_at(np.zeros(m), relevance=np.zeros(m), label=NO_CLASS)
    gap = 0.9 * math.sqrt(m)
    b = node_at(np.zeros(m), relevance=np.full(m, 0.9), label=3)
    assert np.linalg.norm(a.relevance - b.relevance) == pytest.approx(gap)
    assert not connected(a, b, minwd=0.5)
    assert connected(a, b, minwd=0.91)


@settings(max_examples=100, deadline=None)
@given(
    ra=arrays(float, 3, elements=st.floats(0, 1)),
    rb=arrays(float, 3, elements=st.floats(0, 1)),
    la=st.integers(-1, 2),
    lb=st.integers(-1, 2),
    minwd=st.floats(0, 1),
)
def test_connected_symmetric(ra, rb, la, lb, minwd):
    a = node_at(np.zeros(3), relevance=ra, label=la)
    b = node_at(np.zeros(3), relevance=rb, label=lb)
    assert connected(a, b, minwd) == connected(b, a, minwd)


# -- map: winner search ------------------------------------------------------

def test_find_winner_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        som = random_map(rng)
        x = rng.random(som.dim)
        assert som.find_winner(x)[0] == brute_winner(som, x)[0]


def test_find_winner_single_node():
    som = SomMap.from_nodes(2, 4, [node_at([0.5, 0.5])])
    assert som.find_winner(np.array([0.1, 0.9]))[0] == 0


def test_find_winner_tie_breaks_to_lowest_index():
    twin = node_at([0.4, 0.6], relevance=[0.8, 0.8])
    som = SomMap.from_nodes(2, 4, [node_at([0.4, 0.6], relevance=[0.8, 0.8]),
                                   twin])
    assert som.find_winner(np.array([0.2, 0.2]))[0] == 0


def test_find_winner_empty_map_errors():
    som = SomMap(2, 4)
    with pytest.raises(ValueError):
        som.find_winner(np.zeros(2))


def test_find_winner_for_class_filters_labels():
    som = SomMap.from_nodes(2, 8, [
        node_at([0.5, 0.5], label=0),
        node_at([0.5, 0.5], label=1),
        node_at([0.9, 0.9], label=NO_CLASS),
    ])
    x = np.array([0.5, 0.5])
    assert som.find_winner_for_class(x, label=1, a_t=0.5) == 1
    # every node carries some other class
    som2 = SomMap.from_nodes(2, 8, [node_at([0.5, 0.5], label=0),
                                    node_at([0.5, 0.5], label=2)])
    assert som2.find_winner_for_class(x, label=1, a_t=0.0) is None


def test_find_winner_for_class_accepts_unlabeled_at_threshold():
    som = SomMap.from_nodes(2, 8, [node_at([0.2, 0.2], label=0),
                                   node_at([0.8, 0.8], label=NO_CLASS)])
    x = np.array([0.8, 0.8])
    act = som.activations(x)[1]
    assert som.find_winner_for_class(x, label=1, a_t=act) == 1
    assert som.find_winner_for_class(x, label=1,
                                     a_t=np.nextafter(act, 2.0)) is None


# -- map: structure ----------------------------------------------------------

def test_add_node_respects_budget():
    som = SomMap(2, 1)
    som.add_node(np.zeros(2))
    with pytest.raises(MapFullError):
        som.add_node(np.ones(2))


def test_rebuild_connections_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(200):
        som = random_map(rng)
        minwd = float(rng.uniform(0.0, 0.8))
        som.rebuild_connections(minwd)
        assert som.connections == brute_connections(som, minwd)


def test_rebuild_single_node_has_no_connections():
    som = SomMap.from_nodes(2, 4, [node_at([0.1, 0.1])])
    som.rebuild_connections(0.5)
    assert som.connections == []


def test_rebuild_identical_unlabeled_nodes_fully_connected():
    nodes = [node_at([0.1 * i, 0.1 * i]) for i in range(3)]
    som = SomMap.from_nodes(2, 4, nodes)
    som.rebuild_connections(0.5)
    assert som.connections == [(0, 1), (0, 2), (1, 2)]


def test_rebuild_distinct_labels_disconnect():
    som = SomMap.from_nodes(2, 4, [node_at([0.1, 0.1], label=0),
                                   node_at([0.2, 0.2], label=1)])
    som.rebuild_connections(0.5)
    assert som.connections == []


def test_rewire_node_matches_full_rebuild():
    rng = np.random.default_rng(31)
    for _ in range(100):
        som = random_map(rng, n_nodes=int(rng.integers(2, 10)))
        minwd = float(rng.uniform(0.0, 0.8))
        som.rebuild_connections(minwd)
        j = int(rng.integers(som.n_nodes))
        som.set_label(j, int(rng.integers(-1, 4)))
        som.rewire_node(j, minwd)
        expected = brute_connections(som, minwd)
        # rewiring only touches pairs involving j; others keep their state
        got = som.connections
        assert [p for p in got if j in p] == [p for p in expected if j in p]


# -- map: node update ---------------------------------------------------------

def test_update_nodes_equals_sequential_updates():
    rng = np.random.default_rng(41)
    m = 6
    x = rng.random(m)
    nodes = [node_at(rng.random(m), relevance=rng.random(m),
                     dist_avg=rng.random(m)) for _ in range(5)]
    # centered on x with equal distance averages: the row stays flat
    nodes.append(node_at(x.copy(), dist_avg=np.full(m, 0.2)))
    batch = SomMap.from_nodes(m, 8, nodes)
    single = SomMap.from_nodes(m, 8, nodes)
    idx = np.array([5, 0, 3, 4])
    rates = np.array([[0.1], [0.01], [-0.02], [0.0]])
    batch.update_nodes(idx, x, rates, beta=0.3, slope=0.05)
    for j, lr in zip(idx, rates[:, 0]):
        single.update_node(int(j), x, float(lr), beta=0.3, slope=0.05)
    for j in range(batch.n_nodes):
        a, b = batch.node(j), single.node(j)
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.dist_avg, b.dist_avg)
        assert np.array_equal(a.relevance, b.relevance)
    assert np.array_equal(batch.node(5).relevance, np.ones(m))
    probe = rng.random(m)
    assert np.array_equal(batch.activations(probe), single.activations(probe))


def test_node_functions_match_map_kernels():
    rng = np.random.default_rng(43)
    for _ in range(50):
        som = random_map(rng)
        x = rng.random(som.dim)
        acts = som.activations(x)
        for j in range(som.n_nodes):
            node = som.node(j)
            assert activation(x, node) == acts[j]
            mass = node.relevance.sum()
            dist = weighted_distance(x, node)
            assert mass / (mass + dist + ACTIVATION_EPS) == acts[j]
        j = int(rng.integers(som.n_nodes))
        lr = float(rng.uniform(-0.1, 0.5))
        node = update_node(som.node(j), x, lr, beta=0.2, slope=0.05)
        som.update_node(j, x, lr, beta=0.2, slope=0.05)
        moved = som.node(j)
        assert np.array_equal(node.center, moved.center)
        assert np.array_equal(node.dist_avg, moved.dist_avg)
        assert np.array_equal(node.relevance, moved.relevance)


def test_keep_nodes_compacts_in_order():
    nodes = [node_at([0.1 * i, 0.0], wins=i) for i in range(5)]
    som = SomMap.from_nodes(2, 8, nodes)
    som.keep_nodes(np.array([1, 3, 4]))
    assert som.n_nodes == 3
    assert np.array_equal(som.wins, np.array([1, 3, 4]))
    assert som.centers[0] == pytest.approx([0.1, 0.0])


def test_params_validation():
    good = HyperParams(a_t=0.9, lp=0.01, beta=0.1, age_wins=10, e_b=0.1,
                       push_rate=0.01, e_n=0.01, eps_beta=0.05, minwd=0.2,
                       epochs=2, n_max=10)
    good.validate()
    for field, bad in [("a_t", 1.5), ("a_t", 0.0), ("lp", 0.0),
                       ("beta", 1.0), ("age_wins", 0), ("e_b", 0.0),
                       ("push_rate", -0.1), ("eps_beta", 0.0),
                       ("minwd", -0.2), ("epochs", 0), ("n_max", 0),
                       ("lp", math.nan), ("lp", math.inf),
                       ("e_b", math.nan), ("e_b", math.inf),
                       ("push_rate", math.nan), ("push_rate", math.inf),
                       ("e_n", math.nan), ("e_n", math.inf),
                       ("eps_beta", math.nan), ("eps_beta", math.inf),
                       ("minwd", math.nan), ("minwd", math.inf),
                       ("age_wins", math.inf), ("epochs", math.inf),
                       ("n_max", math.inf)]:
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(good, **{field: bad}).validate()
