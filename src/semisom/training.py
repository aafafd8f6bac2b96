"""Two-phase training driver.

Training presents randomly drawn patterns to the map. Labeled patterns take
the supervised route (label-aware winner handling with a repulsive update
for wrong-class winners), unlabeled ones the unsupervised route. A growth
phase of ``epochs * |dataset|`` presentations may insert nodes wherever no
receptive field covers a pattern; periodic pruning sweeps drop nodes that
win too rarely. A follow-up convergence phase keeps adapting and pruning
but never inserts: it finishes the pruning cycle left open by the growth
phase and runs one more full cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from .model import NO_CLASS, HyperParams, SomMap

if TYPE_CHECKING:
    from .data import Dataset

# Observer callables receive (event, state) where event is one of
# "step", "pre_reset", "post_reset", "phase".
Observer = Callable[[str, "TrainState"], None]


@dataclass
class TrainStats:
    """Counters accumulated over one training run."""

    supervised: int = 0
    unsupervised: int = 0
    insertions: int = 0
    removals: int = 0
    pushes: int = 0
    resets: int = 0


@dataclass
class TrainState:
    """Mutable state threaded through one training run."""

    som: SomMap
    params: HyperParams
    rng: np.random.Generator
    t: int = 0
    phase: str = "organization"
    stats: TrainStats = field(default_factory=TrainStats)


def init_map(first_pattern: np.ndarray, first_label: int = NO_CLASS, *,
             n_max: int) -> SomMap:
    """Create a map holding one node centered on the first pattern.

    The node starts with all-ones relevances, zeroed distance averages and
    the pattern's label when one is given. The competition counter starts
    at one.
    """
    first_pattern = np.asarray(first_pattern, dtype=float)
    som = SomMap(dim=first_pattern.shape[0], node_budget=n_max)
    som.add_node(first_pattern, label=first_label)
    som.nwins = 1
    return som


def insert_node(som: SomMap, x: np.ndarray, label: int = NO_CLASS,
                minwd: float = 0.0) -> int:
    """Insert a fresh node at ``x`` and wire it to compatible nodes.

    Raises:
        MapFullError: if the node budget is exhausted; callers are expected
            to check the budget before deciding to insert.
    """
    j = som.add_node(x, label)
    som.rewire_node(j, minwd)
    return j


def _update_winner_and_neighbors(state: TrainState, j: int,
                                 x: np.ndarray) -> None:
    """Attract node ``j`` at rate e_b and its neighbors at rate e_n.

    The winner and its neighbors go through one batched update; since the
    winner never neighbors itself the rows are independent and the result
    matches sequential updates exactly.
    """
    p = state.params
    som = state.som
    nb = som.neighbor_array(j)
    if nb.size:
        rates = np.full((nb.size + 1, 1), p.e_n)
        rates[0, 0] = p.e_b
        som.update_nodes(np.concatenate(([j], nb)), x, rates, p.beta,
                         p.eps_beta)
    else:
        som.update_node(j, x, p.e_b, p.beta, p.eps_beta)
    som.record_win(j)


def unsupervised_step(state: TrainState, x: np.ndarray, winner: int,
                      act: float, *, allow_insert: bool = True) -> None:
    """Handle one unlabeled pattern.

    Below the activation threshold a node is inserted at the pattern when
    the budget allows (with insertion disabled the pattern is skipped);
    otherwise the winner and its neighbors move toward the pattern.
    """
    p = state.params
    som = state.som
    state.stats.unsupervised += 1
    if act < p.a_t:
        if not allow_insert:
            return
        if som.n_nodes < p.n_max:
            insert_node(som, x, NO_CLASS, p.minwd)
            state.stats.insertions += 1
        else:
            _update_winner_and_neighbors(state, winner, x)
    else:
        _update_winner_and_neighbors(state, winner, x)


def supervised_step(state: TrainState, x: np.ndarray, label: int, winner: int,
                    act: float, *, allow_insert: bool = True) -> None:
    """Handle one labeled pattern.

    A winner of the same class (or unlabeled) behaves as in the
    unsupervised route, except that an updated winner adopts the pattern's
    label and gets rewired. A wrong-class winner triggers a search for an
    alternative winner restricted to compatible nodes above the threshold:
    if one exists it is attracted while the wrong winner is pushed away;
    otherwise a labeled node is inserted when allowed.
    """
    p = state.params
    som = state.som
    state.stats.supervised += 1
    wl = som.label_of(winner)
    if wl == label or wl == NO_CLASS:
        if act < p.a_t:
            if allow_insert and som.n_nodes < p.n_max:
                insert_node(som, x, label, p.minwd)
                state.stats.insertions += 1
        else:
            _update_winner_and_neighbors(state, winner, x)
            som.set_label(winner, label)
            som.rewire_node(winner, p.minwd)
    else:
        second = som.find_winner_for_class(x, label, p.a_t)
        if second is not None:
            _update_winner_and_neighbors(state, second, x)
            som.update_node(winner, x, -p.push_rate, p.beta, p.eps_beta)
            state.stats.pushes += 1
        elif allow_insert and som.n_nodes < p.n_max:
            insert_node(som, x, label, p.minwd)
            state.stats.insertions += 1


def handle_reset(state: TrainState) -> None:
    """Prune rarely-winning nodes and restart the competition cycle.

    Nodes with fewer than ``lp * age_wins`` wins are removed; when that
    would empty the map the single node with the most wins is retained.
    Survivor connections are rebuilt, all win counters and the cycle
    counter return to zero.
    """
    p = state.params
    som = state.som
    threshold = p.lp * p.age_wins
    wins = som.wins
    keep = np.flatnonzero(wins >= threshold)
    if keep.size == 0:
        keep = np.array([int(np.argmax(wins))])
    state.stats.removals += som.n_nodes - keep.size
    som.keep_nodes(keep)
    som.rebuild_connections(p.minwd)
    som.reset_wins()
    som.nwins = 0
    state.stats.resets += 1


def _present(state: TrainState, x: np.ndarray, label: int, *,
             allow_insert: bool, observer: Observer | None = None) -> bool:
    """Run one pattern presentation; returns whether a pruning sweep ran."""
    som = state.som
    winner, act = som.find_winner(x)
    if label == NO_CLASS:
        unsupervised_step(state, x, winner, act, allow_insert=allow_insert)
    else:
        supervised_step(state, x, label, winner, act,
                        allow_insert=allow_insert)
    swept = False
    if som.nwins == state.params.age_wins:
        if observer is not None:
            observer("pre_reset", state)
        handle_reset(state)
        swept = True
        if observer is not None:
            observer("post_reset", state)
    som.nwins += 1
    state.t += 1
    if observer is not None:
        observer("step", state)
    return swept


def convergence_phase(state: TrainState, dataset: "Dataset", *,
                      observer: Observer | None = None) -> None:
    """Adapt without insertion until two pruning sweeps have completed.

    The first sweep closes the competition cycle left open by the growth
    phase; the second ends one further full cycle. Patterns whose winner
    falls below the activation threshold are skipped instead of spawning
    nodes.
    """
    state.phase = "convergence"
    if observer is not None:
        observer("phase", state)
    patterns = dataset.patterns
    labels = dataset.labels
    n = len(patterns)
    sweeps = 0
    while sweeps < 2:
        i = int(state.rng.integers(n))
        if _present(state, patterns[i], int(labels[i]), allow_insert=False,
                    observer=observer):
            sweeps += 1


def train_with_state(dataset: "Dataset", params: HyperParams, *,
                     observer: Observer | None = None) -> TrainState:
    """Run both training phases and return the full final state.

    The presentation order is drawn uniformly with replacement from a
    generator seeded by ``params.seed``, so identical inputs reproduce the
    map exactly.
    """
    params.validate()
    patterns = np.asarray(dataset.patterns, dtype=float)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(patterns)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(params.seed)
    som = init_map(patterns[0], int(labels[0]), n_max=params.n_max)
    state = TrainState(som=som, params=params, rng=rng)
    t_max = params.epochs * n
    for _ in range(t_max):
        i = int(rng.integers(n))
        _present(state, patterns[i], int(labels[i]), allow_insert=True,
                 observer=observer)
    convergence_phase(state, dataset, observer=observer)
    return state


def train(dataset: "Dataset", params: HyperParams, *,
          observer: Observer | None = None) -> SomMap:
    """Train a map on ``dataset``; see ``train_with_state`` for details."""
    return train_with_state(dataset, params, observer=observer).som
