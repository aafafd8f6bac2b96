import numpy as np
import pytest

from semisom import (NO_CLASS, Dataset, HyperParams, MapFullError, Node,
                     SomMap, TrainState, _kernel, train, train_with_state)
from semisom.training import (_CHUNK, _present_chunk, handle_reset,
                              init_map, insert_node)
from helpers import make_blobs, weighted_distance


def params_for(n: int, **overrides) -> HyperParams:
    values = dict(a_t=0.9, lp=0.01, beta=0.1, age_wins=3 * n, e_b=0.1,
                  push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                  epochs=3, n_max=n, seed=1)
    values.update(overrides)
    return HyperParams(**values)


def fresh_state(som: SomMap, params: HyperParams) -> TrainState:
    return TrainState(som=som, params=params,
                      rng=np.random.default_rng(params.seed))


def present(state: TrainState, x, label: int = NO_CLASS) -> None:
    """One presentation of ``x`` in the map's training loop."""
    _present_chunk(state, np.asarray(x, dtype=float)[None], np.array([label]),
                   np.array([0]), allow_insert=True, observer=None)


def node_at(center, relevance=None, label=NO_CLASS, wins=0) -> Node:
    center = np.asarray(center, dtype=float)
    rel = np.ones_like(center) if relevance is None else np.asarray(relevance,
                                                                    float)
    return Node(center=center, relevance=rel,
                dist_avg=np.zeros_like(center), wins=wins, label=label)


# -- init and insertion ------------------------------------------------------

def test_init_map_unlabeled():
    som = init_map(np.array([0.2, 0.8]), n_max=5)
    assert som.n_nodes == 1 and som.nwins == 1
    node = som.node(0)
    assert node.label == NO_CLASS and node.wins == 0
    assert np.array_equal(node.center, [0.2, 0.8])
    assert np.array_equal(node.relevance, [1.0, 1.0])
    assert np.array_equal(node.dist_avg, [0.0, 0.0])


def test_init_map_with_label_and_any_dim():
    for m in (1, 3, 7):
        som = init_map(np.linspace(0, 1, m), first_label=2, n_max=4)
        assert som.dim == m and som.node(0).label == 2


def test_insert_into_full_map_errors():
    som = init_map(np.zeros(2), n_max=1)
    with pytest.raises(MapFullError):
        insert_node(som, np.ones(2), minwd=0.5)


def test_unlabeled_insert_gets_no_class():
    som = init_map(np.zeros(2), n_max=3)
    j = insert_node(som, np.ones(2), minwd=0.5)
    assert som.label_of(j) == NO_CLASS


def test_labeled_insert_connects_to_same_label_fresh_nodes():
    som = init_map(np.zeros(2), first_label=1, n_max=4)
    insert_node(som, np.array([0.3, 0.3]), label=1, minwd=0.5)
    j = insert_node(som, np.array([0.6, 0.6]), label=1, minwd=0.5)
    # everyone still has all-ones relevance, so the gap is zero
    assert som.neighbors(j) == {0, 1}


# -- unsupervised step -------------------------------------------------------

def test_unsupervised_low_activation_inserts():
    som = init_map(np.array([0.1, 0.1]), n_max=5)
    params = params_for(5)
    state = fresh_state(som, params)
    x = np.array([0.9, 0.9])
    winner, act = som.find_winner(x)
    assert act < params.a_t
    present(state, x)
    assert som.n_nodes == 2 and state.stats.insertions == 1
    assert np.array_equal(som.node(1).center, x)


def test_unsupervised_high_activation_updates_winner():
    som = init_map(np.array([0.5, 0.5]), n_max=5)
    state = fresh_state(som, params_for(5))
    x = np.array([0.52, 0.5])
    winner, act = som.find_winner(x)
    assert act >= state.params.a_t
    before = weighted_distance(x, som.node(0))
    present(state, x)
    assert som.n_nodes == 1
    assert weighted_distance(x, som.node(0)) < before
    assert som.node(0).wins == 1


def test_unsupervised_full_budget_updates_instead_of_inserting():
    som = init_map(np.array([0.1, 0.1]), n_max=1)
    state = fresh_state(som, params_for(1))
    x = np.array([0.9, 0.9])
    winner, act = som.find_winner(x)
    assert act < state.params.a_t
    present(state, x)
    assert som.n_nodes == 1 and state.stats.insertions == 0
    assert som.node(0).wins == 1
    assert som.node(0).center[0] > 0.1  # moved toward x


# -- supervised step ---------------------------------------------------------

def test_supervised_unlabeled_winner_adopts_label_and_rewires():
    som = SomMap.from_nodes(2, 4, [node_at([0.5, 0.5]),
                                   node_at([0.52, 0.5], label=3)])
    som.rebuild_connections(0.3)
    assert som.connections == [(0, 1)]
    state = fresh_state(som, params_for(4))
    x = np.array([0.5, 0.52])
    winner, act = som.find_winner(x)
    assert winner == 0 and act >= state.params.a_t
    present(state, x, label=1)
    assert som.label_of(0) == 1
    # adopting class 1 breaks the link with the class-3 node
    assert som.connections == []
    assert som.node(0).wins == 1


def test_supervised_low_activation_inserts_labeled_node():
    som = init_map(np.array([0.1, 0.1]), first_label=0, n_max=5)
    state = fresh_state(som, params_for(5))
    x = np.array([0.9, 0.9])
    winner, act = som.find_winner(x)
    present(state, x, label=0)
    assert som.n_nodes == 2 and som.label_of(1) == 0


def test_supervised_wrong_winner_pushes_and_rewards_second():
    som = SomMap.from_nodes(2, 4, [node_at([0.2, 0.2], label=0),
                                   node_at([0.8, 0.8], label=1)])
    state = fresh_state(som, params_for(4, a_t=0.1, push_rate=0.1))
    x = np.array([0.22, 0.2])
    winner, act = som.find_winner(x)
    assert winner == 0
    before = weighted_distance(x, som.node(0))
    present(state, x, label=1)
    assert state.stats.pushes == 1
    assert weighted_distance(x, som.node(0)) > before
    assert som.node(1).wins == 1 and som.node(0).wins == 0
    assert som.label_of(0) == 0  # pushed winner keeps its class


def test_supervised_wrong_winner_no_second_inserts():
    som = SomMap.from_nodes(2, 4, [node_at([0.2, 0.2], label=0)])
    state = fresh_state(som, params_for(4, a_t=0.99))
    x = np.array([0.9, 0.9])
    winner, act = som.find_winner(x)
    present(state, x, label=1)
    assert som.n_nodes == 2 and som.label_of(1) == 1


def test_supervised_wrong_winner_full_map_changes_nothing():
    nodes = [node_at([0.2, 0.2], label=0), node_at([0.8, 0.8], label=1)]
    som = SomMap.from_nodes(2, 2, nodes)
    state = fresh_state(som, params_for(2, a_t=0.999))
    x = np.array([0.22, 0.2])
    winner, act = som.find_winner(x)
    assert act < state.params.a_t
    centers, rels = som.centers, som.relevances
    present(state, x, label=1)
    assert som.n_nodes == 2
    assert np.array_equal(som.centers, centers)
    assert np.array_equal(som.relevances, rels)
    assert np.array_equal(som.wins, [0, 0])
    assert state.stats.supervised == 1


# -- reset -------------------------------------------------------------------

def test_reset_boundary_wins_survive():
    # lp * age_wins = 0.25 * 8 = 2 exactly; wins of 2 must survive
    nodes = [node_at([0.1, 0.1], wins=2), node_at([0.5, 0.5], wins=1),
             node_at([0.9, 0.9], wins=5)]
    som = SomMap.from_nodes(2, 4, nodes)
    som.nwins = 8
    state = fresh_state(som, params_for(4, lp=0.25, age_wins=8))
    handle_reset(state)
    assert som.n_nodes == 2
    assert np.array_equal(som.centers,
                          np.array([[0.1, 0.1], [0.9, 0.9]]))
    assert np.array_equal(som.wins, [0, 0])
    assert som.nwins == 0
    assert state.stats.removals == 1


def test_reset_keeps_max_wins_node_when_all_fail():
    nodes = [node_at([0.1, 0.1], wins=0), node_at([0.5, 0.5], wins=1),
             node_at([0.9, 0.9], wins=0)]
    som = SomMap.from_nodes(2, 4, nodes)
    som.nwins = 8
    state = fresh_state(som, params_for(4, lp=0.5, age_wins=8))
    handle_reset(state)
    assert som.n_nodes == 1
    assert som.centers[0] == pytest.approx([0.5, 0.5])


# -- full runs ---------------------------------------------------------------

def test_train_rejects_empty_dataset():
    ds = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), (), ("a", "b"))
    with pytest.raises(ValueError):
        train(ds, params_for(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_patterns(bad):
    rng = np.random.default_rng(3)
    patterns = rng.random((50, 3))
    patterns[17, 1] = bad
    ds = Dataset(patterns, np.full(50, NO_CLASS), (), ("a", "b", "c"))
    with pytest.raises(ValueError, match="pattern 17 holds a non-finite"):
        train_with_state(ds, params_for(50))


def test_train_single_pattern_converges_onto_it():
    ds = Dataset(np.array([[0.3, 0.6]]), np.array([NO_CLASS]), (),
                 ("a", "b"))
    som = train(ds, params_for(1, age_wins=5, epochs=10))
    assert som.n_nodes == 1
    assert som.centers[0] == pytest.approx([0.3, 0.6], abs=1e-6)


def test_train_is_deterministic():
    ds = make_blobs(20, [[0.2, 0.2], [0.8, 0.8]], 0.05, seed=9)
    params = params_for(len(ds), seed=42)
    a = train_with_state(ds, params)
    b = train_with_state(ds, params)
    assert np.array_equal(a.som.centers, b.som.centers)
    assert np.array_equal(a.som.relevances, b.som.relevances)
    assert np.array_equal(a.som.wins, b.som.wins)
    assert np.array_equal(a.som.labels, b.som.labels)
    assert a.som.connections == b.som.connections
    assert a.stats == b.stats


def test_unlabeled_run_never_touches_supervision():
    ds = make_blobs(25, [[0.2, 0.2], [0.8, 0.8]], 0.05, seed=3)
    unlabeled = Dataset(ds.patterns, np.full(len(ds), NO_CLASS),
                        ds.class_names, ds.dim_names)
    seen = []

    def observer(event, state):
        if event == "step":
            seen.append(bool((state.som.labels != NO_CLASS).any()))

    state = train_with_state(unlabeled, params_for(len(ds), seed=5),
                             observer=observer)
    assert state.stats.supervised == 0
    assert state.stats.pushes == 0
    assert not any(seen)
    assert state.stats.unsupervised == state.t


def test_node_count_bounded_by_budget():
    ds = make_blobs(15, [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]], 0.08, seed=8)
    budget = 10

    def observer(event, state):
        assert 1 <= state.som.n_nodes <= budget

    train_with_state(ds, params_for(len(ds), n_max=budget, a_t=0.97,
                                    epochs=4, seed=2), observer=observer)


def test_convergence_never_inserts_and_sweeps_twice():
    ds = make_blobs(20, [[0.25, 0.25], [0.75, 0.75]], 0.06, seed=4)
    events = {"insertions_at_phase": None, "sweeps": 0, "in_convergence": False}

    def observer(event, state):
        if event == "phase":
            events["insertions_at_phase"] = state.stats.insertions
            events["in_convergence"] = True
        elif event == "post_reset" and events["in_convergence"]:
            events["sweeps"] += 1

    state = train_with_state(ds, params_for(len(ds), age_wins=50, epochs=2,
                                            seed=6), observer=observer)
    assert state.stats.insertions == events["insertions_at_phase"]
    assert events["sweeps"] == 2


def test_convergence_final_sweep_removes_idle_nodes():
    ds = make_blobs(20, [[0.25, 0.25], [0.75, 0.75]], 0.06, seed=4)
    snapshots = []

    def observer(event, state):
        if state.phase == "convergence" and event == "pre_reset":
            snapshots.append((state.som.wins, state.params))

    state = train_with_state(ds, params_for(len(ds), age_wins=40, epochs=2,
                                            seed=10), observer=observer)
    wins, params = snapshots[-1]
    threshold = params.lp * params.age_wins
    expected = int(np.count_nonzero(wins >= threshold)) or 1
    # zero-win nodes fail the threshold, so none of them survive the sweep
    assert state.som.n_nodes == expected
    assert np.array_equal(state.som.wins, np.zeros(expected, dtype=int))


@pytest.mark.parametrize("n", [1, 7, 300, 2 ** 33])
def test_chunked_draws_equal_scalar_draws(n):
    """Training draws its indices in chunks; they must be the scalar draws.

    Both the values and the generator's final state must agree, or every
    trained map would shift with the chunk size.
    """
    sizes = (3, _CHUNK, 1, _CHUNK, 5)
    chunked = np.random.default_rng(42)
    got = np.concatenate([chunked.integers(n, size=k) for k in sizes])
    scalar = np.random.default_rng(42)
    want = [int(scalar.integers(n)) for _ in range(sum(sizes))]
    assert got.tolist() == want
    assert chunked.bit_generator.state == scalar.bit_generator.state


def test_stats_count_presentations_per_phase():
    ds = make_blobs(20, [[0.25, 0.25], [0.75, 0.75]], 0.06, seed=4)
    seen = {"organization": 0, "convergence": 0}

    def observer(event, state):
        if event == "step":
            seen[state.phase] += 1

    params = params_for(len(ds), age_wins=50, epochs=2, seed=6)
    observed = train_with_state(ds, params, observer=observer)
    plain = train_with_state(ds, params)
    for state in (observed, plain):
        assert state.stats.growth_presentations == seen["organization"] == 80
        assert state.stats.convergence_presentations == seen["convergence"]
        assert state.t == 80 + seen["convergence"]
    assert observed.stats == plain.stats


# -- one driver ----------------------------------------------------------------

def test_observed_run_calls_the_compiled_loop(monkeypatch):
    if _kernel.compiled() is None:
        pytest.skip("no C compiler: maps use numpy kernels")
    calls = []
    run = _kernel._train

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(_kernel, "_train", counted)
    ds = make_blobs(30, [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]], 0.08, seed=12)
    params = params_for(len(ds), a_t=0.97, epochs=2, seed=8)
    state = train_with_state(ds, params, observer=lambda event, _: None)
    assert len(calls) == state.t  # one call per presentation
    assert state.som.n_nodes > 16  # past the first storage, on the way
