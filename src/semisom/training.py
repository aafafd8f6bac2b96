"""Two-phase training driver.

Training presents randomly drawn patterns to the map. Labeled patterns take
the supervised route (label-aware winner handling with a repulsive update
for wrong-class winners), unlabeled ones the unsupervised route. A growth
phase of ``epochs * |dataset|`` presentations may insert nodes wherever no
receptive field covers a pattern; periodic pruning sweeps drop nodes that
win too rarely. A follow-up convergence phase keeps adapting and pruning
but never inserts: it finishes the pruning cycle left open by the growth
phase and runs one more full cycle.

The pattern indices are drawn in chunks of ``_CHUNK``, each as one
``rng.integers(n, size=k)`` call, which gives the values of ``k`` scalar
calls. A chunk runs on one of two paths with identical results:

- the compiled loop, ``som_train`` of ``_kernel.c``, which runs the whole
  chunk in one call, insertions and pruning sweeps included, with the
  interpreter lock released. It returns early only when an insertion needs
  more storage; Python then runs ``insert_node``, which grows it, finishes
  that presentation and resumes the loop;
- the Python loop, ``_present`` and the step functions below, one
  presentation at a time. It is the reference, and it runs when the map
  has no compiled kernels or an observer is passed.

Training runs on several threads at once therefore run in parallel on the
compiled loop (``experiments.run_sweep`` relies on it); on the Python loop
they take turns holding the interpreter lock.

The convergence phase draws whole chunks and stops within the last one, so
``TrainState.rng`` ends ahead of the draws actually presented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from . import _kernel
from .model import NO_CLASS, HyperParams, SomMap, _require_finite

if TYPE_CHECKING:
    from .data import Dataset

# Observer callables receive (event, state) where event is one of
# "step", "pre_reset", "post_reset", "phase".
Observer = Callable[[str, "TrainState"], None]

# pattern indices drawn at a time
_CHUNK = 4096


@dataclass
class TrainStats:
    """Counters accumulated over one training run."""

    supervised: int = 0
    unsupervised: int = 0
    insertions: int = 0
    removals: int = 0
    pushes: int = 0
    resets: int = 0
    growth_presentations: int = 0
    convergence_presentations: int = 0


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
    winner, act = state.som.find_winner(x)
    if label == NO_CLASS:
        unsupervised_step(state, x, winner, act, allow_insert=allow_insert)
    else:
        supervised_step(state, x, label, winner, act,
                        allow_insert=allow_insert)
    return _finish(state, observer)


def _finish(state: TrainState, observer: Observer | None = None) -> bool:
    """A presentation's tail: the sweep that ends a cycle, and the counts."""
    som = state.som
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
    _count_presentations(state, 1)
    if observer is not None:
        observer("step", state)
    return swept


def _count_presentations(state: TrainState, k: int) -> None:
    if state.phase == "convergence":
        state.stats.convergence_presentations += k
    else:
        state.stats.growth_presentations += k


def _present_chunk(state: TrainState, patterns: np.ndarray,
                   labels: np.ndarray, draws: np.ndarray, *,
                   allow_insert: bool, observer: Observer | None,
                   sweeps: int = 0) -> int:
    """Present the patterns ``draws`` indexes, in order.

    Stops after the presentation that completes the ``sweeps``-th pruning
    sweep when ``sweeps`` is positive. Returns the sweeps run.
    """
    if observer is None and state.som._train is not None:
        return _present_compiled(state, patterns, labels, draws,
                                 allow_insert=allow_insert, sweeps=sweeps)
    swept = 0
    for i in draws.tolist():
        if _present(state, patterns[i], int(labels[i]),
                    allow_insert=allow_insert, observer=observer):
            swept += 1
            if swept == sweeps:
                break
    return swept


def _present_compiled(state: TrainState, patterns: np.ndarray,
                      labels: np.ndarray, draws: np.ndarray, *,
                      allow_insert: bool, sweeps: int) -> int:
    """``_present_chunk`` on the compiled loop of ``_kernel.c``.

    ``som_train`` runs the chunk, insertions and pruning sweeps included,
    and stops after the ``sweeps``-th sweep. It returns early only at an
    insertion into full storage; ``insert_node`` then grows the storage,
    ``_finish`` completes the presentation, and the loop resumes.
    """
    som, stats, p = state.som, state.stats, state.params
    chunk = _kernel.Chunk(som.dim, patterns, labels, draws)
    swept = pos = 0
    while True:
        args = _kernel.params(p, allow_insert, sweeps - swept if sweeps else 0)
        chunk.count[:] = 0
        chunk.count[:3] = (pos, som.nwins, state.t)
        code = som._run_presentations(args, chunk)
        count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
        pos, som.nwins = count["pos"], count["nwins"]
        _count_presentations(state, count["t"] - state.t)
        state.t = count["t"]
        for name in ("supervised", "unsupervised", "pushes", "insertions",
                     "removals", "resets"):
            setattr(stats, name, getattr(stats, name) + count[name])
        swept += count["resets"]
        if code != _kernel.INSERT:
            return swept
        i = int(draws[pos])
        insert_node(som, patterns[i], int(labels[i]), p.minwd)
        stats.insertions += 1
        if _finish(state):
            swept += 1
            if swept == sweeps:
                return swept
        pos += 1


def _arrays(dataset: "Dataset") -> tuple[np.ndarray, np.ndarray]:
    return (np.ascontiguousarray(dataset.patterns, dtype=float),
            np.ascontiguousarray(dataset.labels, dtype=np.int64))


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
    patterns, labels = _arrays(dataset)
    sweeps = 0
    while sweeps < 2:
        draws = state.rng.integers(len(patterns), size=_CHUNK)
        sweeps += _present_chunk(state, patterns, labels, draws,
                                 allow_insert=False, observer=observer,
                                 sweeps=2 - sweeps)


def train_with_state(dataset: "Dataset", params: HyperParams, *,
                     observer: Observer | None = None) -> TrainState:
    """Run both training phases and return the full final state.

    The presentation order is drawn uniformly with replacement from a
    generator seeded by ``params.seed``, so identical inputs reproduce the
    map exactly. A pattern holding ``nan`` or ``inf`` raises ``ValueError``
    naming its row.
    """
    params.validate()
    patterns, labels = _arrays(dataset)
    n = len(patterns)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    _require_finite(patterns)
    rng = np.random.default_rng(params.seed)
    som = init_map(patterns[0], int(labels[0]), n_max=params.n_max)
    state = TrainState(som=som, params=params, rng=rng)
    t_max = params.epochs * n
    for start in range(0, t_max, _CHUNK):
        draws = rng.integers(n, size=min(_CHUNK, t_max - start))
        _present_chunk(state, patterns, labels, draws, allow_insert=True,
                       observer=observer)
    convergence_phase(state, dataset, observer=observer)
    return state


def train(dataset: "Dataset", params: HyperParams, *,
          observer: Observer | None = None) -> SomMap:
    """Train a map on ``dataset``; see ``train_with_state`` for details."""
    return train_with_state(dataset, params, observer=observer).som
