import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semisom import (ACTIVATION_EPS, NO_CLASS, HyperParams, MapFullError,
                     SomMap, compute_relevances)
from helpers import (brute_connections, brute_winner, map_of, node_at,
                     random_map, weighted_distance)


def one_node_map(node: dict) -> SomMap:
    return map_of(1, [node])


def activation(x, node: dict) -> float:
    """The map's activation of its only node for ``x``."""
    return float(one_node_map(node).activations(x)[0])


def linked(a: dict, b: dict, minwd: float) -> bool:
    """Whether the map connects ``a`` and ``b`` when it rebuilds its links."""
    som = map_of(2, [a, b])
    som.rebuild_connections(minwd)
    return som.connections == [(0, 1)]


def updated(node: dict, x, lr: float, beta: float, slope: float) -> dict:
    """``node``'s vectors after one ``SomMap.update_node`` step."""
    som = one_node_map(node)
    som.update_node(0, x, lr, beta, slope)
    return dict(center=som.centers[0], relevance=som.relevances[0],
                dist_avg=som.dist_avgs[0])


# -- weighted distance -------------------------------------------------------

def test_distance_zero_for_identical_points():
    n = node_at([0.5, 0.5], relevance=[0.3, 0.9])
    assert weighted_distance(np.array([0.5, 0.5]), n["center"],
                             n["relevance"]) == 0.0


def test_distance_reduces_to_euclidean_with_unit_relevance():
    n = node_at([3.0, 4.0])
    assert weighted_distance(np.zeros(2), n["center"],
                             n["relevance"]) == pytest.approx(5.0)


def test_distance_hand_computed():
    n = node_at([2.0, 1.0], relevance=[0.25, 1.0])
    assert weighted_distance(np.zeros(2), n["center"], n["relevance"]) == (
        pytest.approx(math.sqrt(2.0), abs=1e-12))


def test_distance_rejects_dimension_mismatch():
    som = one_node_map(node_at([0.0, 0.0, 0.0]))
    for search in (som.activations, som.find_winner):
        with pytest.raises(ValueError, match="shape"):
            search(np.zeros(2))


# -- activation --------------------------------------------------------------

def test_activation_near_one_at_zero_distance():
    n = node_at([0.0] * 4)
    act = activation(np.zeros(4), n)
    assert act == pytest.approx(4.0 / (4.0 + ACTIVATION_EPS))
    assert act < 1.0


def test_activation_half_when_distance_equals_mass():
    # mass 2, distance 2: one half, short of it by the guard
    n = node_at([0.0, 0.0])
    x = np.array([math.sqrt(2.0), math.sqrt(2.0)])
    assert activation(x, n) == pytest.approx(2.0 / (4.0 + ACTIVATION_EPS),
                                              abs=1e-12)


def test_activation_zero_relevance_never_activates():
    n = node_at([0.2, 0.9], relevance=[0.0, 0.0])
    assert activation(np.array([0.4, 0.1]), n) == 0.0


def test_activation_requires_positive_eps():
    # the guard keeps a node without relevance mass at 0 on its own
    # center, where 0 / 0 would give NaN
    assert ACTIVATION_EPS > 0.0
    assert activation(np.zeros(2), node_at([0.0, 0.0], [0.0, 0.0])) == 0.0


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
    moved = updated(n, np.array([0.9, 0.1]), lr=0.0, beta=0.3, slope=0.05)
    assert np.array_equal(moved["center"], n["center"])
    assert np.array_equal(moved["dist_avg"], n["dist_avg"])
    assert np.array_equal(moved["relevance"], n["relevance"])


def test_update_full_rate_moves_center_onto_pattern():
    n = updated(node_at([0.3, 0.7]), np.array([0.9, 0.1]), lr=1.0, beta=0.3,
                slope=0.05)
    assert np.array_equal(n["center"], np.array([0.9, 0.1]))


def test_update_half_rate_hand_computed():
    n = updated(node_at([0.0, 0.0]), np.array([1.0, 1.0]), lr=0.5, beta=0.1,
                slope=0.05)
    assert n["center"] == pytest.approx([0.5, 0.5])
    # moving average saw |x - c| with the pre-update center
    assert n["dist_avg"] == pytest.approx([0.05, 0.05])
    assert np.array_equal(n["relevance"], np.ones(2))


def test_update_uses_old_center_for_distance_average():
    n = updated(node_at([0.2, 0.2], dist_avg=[0.4, 0.0]),
                np.array([1.0, 0.2]), lr=0.5, beta=0.2, slope=0.05)
    # (1 - 0.1) * 0.4 + 0.1 * 0.8 = 0.44
    assert n["dist_avg"][0] == pytest.approx(0.44)
    assert n["dist_avg"][1] == pytest.approx(0.0)


def test_negative_rate_clamps_distance_average_at_zero():
    n = updated(node_at([0.0, 0.0], dist_avg=[0.0, 0.001]),
                np.array([1.0, 1.0]), lr=-0.9, beta=0.9, slope=0.05)
    assert np.all(n["dist_avg"] >= 0.0)


def test_update_rejects_dimension_mismatch():
    som = one_node_map(node_at([0.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        som.update_node(0, np.zeros(3), 0.1, 0.1, 0.05)


# -- connection predicate ----------------------------------------------------

def test_connected_same_label_identical_relevance():
    a = node_at([0.0], relevance=[0.5], label=2)
    b = node_at([1.0], relevance=[0.5], label=2)
    assert linked(a, b, minwd=0.1)


def test_conflicting_labels_never_connect():
    a = node_at([0.0, 0.0], label=0)
    b = node_at([0.0, 0.0], label=1)
    assert not linked(a, b, minwd=1e9)


def test_relevance_gap_threshold():
    m = 4
    a = node_at(np.zeros(m), relevance=np.zeros(m), label=NO_CLASS)
    gap = 0.9 * math.sqrt(m)
    b = node_at(np.zeros(m), relevance=np.full(m, 0.9), label=3)
    assert np.linalg.norm(a["relevance"] - b["relevance"]) == (
        pytest.approx(gap))
    assert not linked(a, b, minwd=0.5)
    assert linked(a, b, minwd=0.91)


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
    assert linked(a, b, minwd) == linked(b, a, minwd)


# -- map: winner search ------------------------------------------------------

def test_find_winner_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        som = random_map(rng)
        x = rng.random(som.dim)
        assert som.find_winner(x)[0] == brute_winner(som, x)[0]


def test_find_winner_single_node():
    som = map_of(4, [node_at([0.5, 0.5])])
    assert som.find_winner(np.array([0.1, 0.9]))[0] == 0


def test_find_winner_tie_breaks_to_lowest_index():
    twin = node_at([0.4, 0.6], relevance=[0.8, 0.8])
    som = map_of(4, [node_at([0.4, 0.6], relevance=[0.8, 0.8]),
                     twin])
    assert som.find_winner(np.array([0.2, 0.2]))[0] == 0


def test_find_winner_empty_map_errors():
    som = SomMap(2, 4)
    with pytest.raises(ValueError):
        som.find_winner(np.zeros(2))


def test_find_winner_for_class_filters_labels():
    som = map_of(8, [
        node_at([0.5, 0.5], label=0),
        node_at([0.5, 0.5], label=1),
        node_at([0.9, 0.9], label=NO_CLASS),
    ])
    x = np.array([0.5, 0.5])
    assert som.find_winner_for_class(x, label=1, a_t=0.5) == 1
    # every node carries some other class
    som2 = map_of(8, [node_at([0.5, 0.5], label=0),
                      node_at([0.5, 0.5], label=2)])
    assert som2.find_winner_for_class(x, label=1, a_t=0.0) is None


def test_find_winner_for_class_accepts_unlabeled_at_threshold():
    som = map_of(8, [node_at([0.2, 0.2], label=0),
                     node_at([0.8, 0.8], label=NO_CLASS)])
    x = np.array([0.8, 0.8])
    act = som.activations(x)[1]
    assert som.find_winner_for_class(x, label=1, a_t=act) == 1
    assert som.find_winner_for_class(x, label=1,
                                     a_t=np.nextafter(act, 2.0)) is None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), label=st.integers(0, 3),
       at_node=st.booleans())
def test_find_winner_for_class_matches_brute_force(seed, label, at_node):
    """The second winner against a search over the map's activations: the
    most activated node of ``label`` or ``NO_CLASS`` at or above ``a_t``,
    the lowest index on ties. ``a_t`` is 0 or exactly the activation of a
    node, so the inclusive bound decides."""
    rng = np.random.default_rng(seed)
    som = random_map(rng)
    n = som.n_nodes
    x = (som.centers[rng.integers(n)] if rng.random() < 0.3
         else rng.random(som.dim))
    acts = som.activations(x).tolist()
    a_t = acts[rng.integers(n)] if at_node else 0.0
    want = None
    for j, (node_label, act) in enumerate(zip(som.labels.tolist(), acts)):
        if (node_label in (label, NO_CLASS) and act >= a_t
                and (want is None or act > acts[want])):
            want = j
    assert som.find_winner_for_class(x, label, a_t) == want


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
    som = map_of(4, [node_at([0.1, 0.1])])
    som.rebuild_connections(0.5)
    assert som.connections == []


def test_rebuild_identical_unlabeled_nodes_fully_connected():
    nodes = [node_at([0.1 * i, 0.1 * i]) for i in range(3)]
    som = map_of(4, nodes)
    som.rebuild_connections(0.5)
    assert som.connections == [(0, 1), (0, 2), (1, 2)]


def test_rebuild_distinct_labels_disconnect():
    som = map_of(4, [node_at([0.1, 0.1], label=0),
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
        som._arrays.labels[j] = int(rng.integers(-1, 4))
        som.rewire_node(j, minwd)
        expected = brute_connections(som, minwd)
        # rewiring only touches pairs involving j; others keep their state
        got = som.connections
        assert [p for p in got if j in p] == [p for p in expected if j in p]


@pytest.mark.parametrize("j, error", [
    (True, TypeError), (np.True_, TypeError), (False, TypeError),
    (1.0, TypeError), (3, IndexError), (-1, IndexError)],
    ids=["True", "np.True_", "False", "1.0", "3", "-1"])
@pytest.mark.parametrize("method", ["neighbor_array", "rewire_node",
                                    "update_node"])
def test_node_index_must_name_a_node(method, j, error):
    """A bool is no node index: numpy would read it as a mask."""
    args = {"neighbor_array": (), "rewire_node": (0.5,),
            "update_node": (np.array([0.5, 0.5]), 0.1, 0.1, 0.05)}[method]
    centers = [[0.0, 0.0], [0.1, 0.1], [1.0, 1.0]]
    som = SomMap.from_arrays(4, centers, np.ones((3, 2)), np.zeros((3, 2)),
                             [0] * 3, [NO_CLASS] * 3, [(0, 1)])
    match = "integer" if error is TypeError else f"no node {j} in a map of 3"
    with pytest.raises(error, match=match):
        getattr(som, method)(j, *args)
    assert som.connections == [(0, 1)]
    assert np.array_equal(som.centers, centers)


# -- map: node update ---------------------------------------------------------

def test_update_nodes_equals_sequential_updates():
    rng = np.random.default_rng(41)
    m = 6
    x = rng.random(m)
    nodes = [node_at(rng.random(m), relevance=rng.random(m),
                     dist_avg=rng.random(m)) for _ in range(5)]
    # centered on x with equal distance averages: the row stays flat
    nodes.append(node_at(x.copy(), dist_avg=np.full(m, 0.2)))
    batch = map_of(8, nodes)
    single = map_of(8, nodes)
    idx = np.array([5, 0, 3, 4])
    rates = np.array([[0.1], [0.01], [-0.02], [0.0]])
    batch.update_nodes(idx, x, rates, beta=0.3, slope=0.05)
    for j, lr in zip(idx, rates[:, 0]):
        single.update_node(int(j), x, float(lr), beta=0.3, slope=0.05)
    assert np.array_equal(batch.centers, single.centers)
    assert np.array_equal(batch.dist_avgs, single.dist_avgs)
    assert np.array_equal(batch.relevances, single.relevances)
    assert np.array_equal(batch.relevances[5], np.ones(m))
    probe = rng.random(m)
    assert np.array_equal(batch.activations(probe), single.activations(probe))


def test_keep_nodes_compacts_in_order():
    nodes = [node_at([0.1 * i, 0.0], wins=i) for i in range(5)]
    som = map_of(8, nodes)
    som.keep_nodes(np.array([1, 3, 4]))
    assert som.n_nodes == 3
    assert np.array_equal(som.wins, np.array([1, 3, 4]))
    assert som.centers[0] == pytest.approx([0.1, 0.0])


@pytest.mark.parametrize("indices, error", [([3], IndexError),
                                            ([-1], IndexError),
                                            ([1, 1], ValueError),
                                            ([2, 0], ValueError),
                                            ([0.0], TypeError)])
def test_keep_nodes_refuses_what_names_no_ascending_nodes(indices, error):
    """An index past the nodes would keep a storage row, a repeated one
    duplicate a node and a descending pair reorder them; the map is left
    as it was."""
    som = map_of(8, [node_at([0.1 * i, 0.0], wins=i) for i in range(3)])
    with pytest.raises(error):
        som.keep_nodes(np.array(indices))
    assert som.n_nodes == 3
    assert np.array_equal(som.wins, np.arange(3))


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
                       ("n_max", math.inf), ("lp", True), ("e_b", True),
                       ("push_rate", False), ("e_n", np.True_),
                       ("eps_beta", True), ("minwd", np.False_),
                       ("a_t", 10 ** 400), ("minwd", -10 ** 400)]:
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(good, **{field: bad}).validate()
    # an int beyond the float range is refused, not left to overflow
    with pytest.raises(ValueError, match="a_t must be finite"):
        replace(good, a_t=10 ** 400).validate()


def test_params_require_integer_counts():
    """A fractional ``age_wins`` never equals the cycle count: no sweep."""
    from dataclasses import replace
    good = HyperParams(a_t=0.9, lp=0.01, beta=0.1, age_wins=np.int64(10),
                       e_b=0.1, push_rate=0.01, e_n=0.01, eps_beta=0.05,
                       minwd=0.2, epochs=np.int32(2), n_max=10,
                       seed=np.uint64(3))
    good.validate()
    for field, bad in [("age_wins", 2.5), ("age_wins", 10.0),
                       ("epochs", 2.0), ("epochs", np.float64(2.0)),
                       ("n_max", True), ("n_max", "10"), ("seed", 1.5),
                       ("seed", False), ("seed", np.True_)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(good, **{field: bad}).validate()


def test_storage_follows_the_nodes_present():
    som = SomMap(dim=100, node_budget=10 ** 6)
    for i in range(5):
        som.add_node(np.full(100, i / 5))
    held = sum(a.nbytes for a in vars(som._arrays).values()
               if isinstance(a, np.ndarray))
    assert held < 2 ** 20


def test_growing_storage_keeps_nodes_and_links():
    rng = np.random.default_rng(43)
    nodes = [node_at(rng.random(3), relevance=rng.random(3),
                     dist_avg=rng.random(3), label=int(rng.integers(-1, 3)),
                     wins=int(rng.integers(10))) for _ in range(200)]
    som = map_of(500, nodes[:10])
    som.rebuild_connections(0.4)
    before = som.connections
    for node in nodes[10:]:
        j = som.add_node(node["center"], node["label"])
        som._arrays.rel[j] = node["relevance"]
        som._arrays.dist[j] = node["dist_avg"]
        som._arrays.wins[j] = node["wins"]
        som._arrays.sums[j] = node["relevance"].sum()
    assert len(som._arrays.centers) == 256
    assert som._arrays.adj.shape == (256, 4)
    assert [p for p in som.connections if p[1] < 10] == before
    assert np.array_equal(som.centers, [nd["center"] for nd in nodes])
    assert np.array_equal(som.wins, [nd["wins"] for nd in nodes])
    x = rng.random(3)
    assert som.find_winner(x) == brute_winner(som, x)
    som.rebuild_connections(0.4)
    assert som.connections == brute_connections(som, 0.4)


def _arrays(n: int = 2, dim: int = 3) -> dict:
    """The arguments of ``SomMap.from_arrays`` for a valid map of ``n``
    labeled nodes in ``dim`` dimensions, without links."""
    return dict(node_budget=4, centers=np.full((n, dim), 0.5),
                relevances=np.ones((n, dim)), dist_avgs=np.zeros((n, dim)),
                wins=np.zeros(n, np.int64), labels=np.zeros(n, np.int64),
                connections=[])


@pytest.mark.parametrize("name", ["center", "relevance", "dist_avg"])
@pytest.mark.parametrize("shape", [(1,), (4,), (3, 1), ()])
def test_from_nodes_rejects_vectors_of_another_shape(name, shape):
    """An array of node vectors that is not ``(n, dim)`` is refused, not
    broadcast, by ``from_arrays``, which replaced ``from_nodes``; ``dim``
    is the width of the centers."""
    arrays = _arrays()
    arrays[name + "s"] = np.full((2, *shape), 0.5)
    with pytest.raises(ValueError, match=r"s has shape \(2,.*\), expected"):
        SomMap.from_arrays(**arrays)


@pytest.mark.parametrize("field, value, message", [
    pytest.param("labels", [0, -2],
                 r"node 1 has label -2, below -1", id="label-rejected"),
    pytest.param("wins", [0, -3], r"node 1 has wins -3, below 0",
                 id="negative-wins"),
    pytest.param("labels", [0, True], r"node 1: label True is not an integer",
                 id="boolean-label"),
    pytest.param("wins", [0, 1.5], r"node 1: wins 1.5 is not an integer",
                 id="fractional-wins"),
    pytest.param("labels", [0, 2 ** 70],
                 r"node 1: label 1180591620717411303424 outside",
                 id="huge-label"),
    pytest.param("centers", np.array([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]),
                 r"node 1 center holds a non-finite value", id="nan-center"),
    pytest.param("connections", [(0, 1.5)],
                 r"connection \(0, 1.5\): node id 1.5 is not an integer",
                 id="fractional-id"),
    pytest.param("connections", [(0, 1), (0, 5)],
                 r"connection \(0, 5\) names a node outside the 2 nodes",
                 id="missing-node"),
    pytest.param("connections", [(1, 1)],
                 r"connection \(1, 1\) joins a node to itself",
                 id="self-connection"),
    pytest.param("connections", [(0, 1), (1, 0)],
                 r"connection \(1, 0\) is listed twice", id="duplicate"),
    pytest.param("node_budget", 1, r"2 nodes exceed the node budget of 1",
                 id="over-budget"),
])
def test_from_arrays_refuses_what_a_map_cannot_hold(field, value, message):
    """Each value is refused with a ``ValueError`` naming its node or pair,
    before a map exists. A label of -2 is ``REJECTED``: a node holding it
    would make ``classify_batch`` report a rejection that has a winner."""
    arrays = _arrays()
    arrays[field] = value
    with pytest.raises(ValueError, match=message):
        SomMap.from_arrays(**arrays)



@pytest.mark.parametrize("name", ["centers", "relevances", "dist_avgs"])
def test_from_arrays_refuses_complex_vectors(name):
    """A cast to float would keep 0.1 of 0.1+2j, with only a warning."""
    arrays = _arrays()
    arrays[name] = arrays[name].astype(complex)
    arrays[name][0, 0] = 0.1 + 2j
    with pytest.raises(ValueError, match=f"{name} holds complex values"):
        SomMap.from_arrays(**arrays)
