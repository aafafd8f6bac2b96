"""Two-phase training driver.

Training presents randomly drawn patterns to the map. Labeled patterns take
the supervised route (label-aware winner handling with a repulsive update
for wrong-class winners), unlabeled ones the unsupervised route. A growth
phase of ``epochs * |dataset|`` presentations may insert nodes wherever no
receptive field covers a pattern; periodic pruning sweeps drop nodes that
win too rarely. A follow-up convergence phase keeps adapting and pruning
but never inserts: it finishes the pruning cycle left open by the growth
phase and runs one more full cycle, ``2 * age_wins + 1 - nwins``
presentations in all, ``nwins`` counted at its start.

The pattern indices are drawn in chunks of ``_CHUNK``, each as one
``rng.integers(n, size=k)`` call, which gives the values of ``k`` scalar
calls; ``TrainState.rng`` ends right after the last draw presented. Each
chunk runs in the map's training loop, one of two twins with identical
results, which ``SomMap._bind`` chooses:

- ``som_train`` of ``_kernel.c`` runs the whole chunk in one call,
  insertions and pruning sweeps included, with the interpreter lock
  released. It returns early only when an insertion needs more storage;
- ``_train_numpy`` of ``model.py``, when the library does not load, runs
  the winner search and the step, and returns at every insertion and
  every sweep.

``_present_chunk`` drives either: at an early return ``insert_node`` and
``handle_reset``, the references for the insertion and the sweep of
``som_train``, finish that presentation, and the loop resumes. Training
runs on several threads at once therefore run in parallel on the compiled
loop (``experiments.run_sweep`` relies on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from . import _kernel
from .model import NO_CLASS, HyperParams, SomMap, _require_finite
# The two steps stay importable by these names: perfbench/tracer.py wraps
# them by this module's name.
from .model import _supervised_numpy as supervised_step  # noqa: F401
from .model import _unsupervised_numpy as unsupervised_step  # noqa: F401

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


def _finish(state: TrainState, observer: Observer | None = None) -> None:
    """A presentation's tail: the sweep that ends a cycle, and the counts."""
    som = state.som
    if som.nwins == state.params.age_wins:
        if observer is not None:
            observer("pre_reset", state)
        handle_reset(state)
        if observer is not None:
            observer("post_reset", state)
    som.nwins += 1
    state.t += 1
    _count_presentations(state, 1)
    if observer is not None:
        observer("step", state)


def _count_presentations(state: TrainState, k: int) -> None:
    if state.phase == "convergence":
        state.stats.convergence_presentations += k
    else:
        state.stats.growth_presentations += k


def _present_chunk(state: TrainState, patterns: np.ndarray,
                   labels: np.ndarray, draws: np.ndarray, *,
                   allow_insert: bool, observer: Observer | None) -> None:
    """Present the patterns ``draws`` indexes, in order, in the map's
    training loop.

    The loop returns early at a presentation whose step it made but whose
    insertion or sweep it leaves to its caller (``INSERT``, ``SWEEP``):
    ``insert_node`` inserts, ``_finish`` sweeps and counts, and the loop
    resumes at the next draw. An observer sees every event: the loop then
    presents one draw per call and never sweeps, and ``_finish`` ends each
    presentation.
    """
    som, stats, p = state.som, state.stats, state.params
    args = _kernel.params(p, allow_insert)
    if observer is not None:
        args.age_wins = _kernel.NEVER
    parts = ([draws] if observer is None
             else [draws[i:i + 1] for i in range(len(draws))])
    for part in parts:
        chunk = _kernel.Chunk(som.dim, patterns, labels, part)
        pos = 0
        while pos < chunk.k:
            chunk.count[:] = 0
            chunk.count[:3] = (pos, som.nwins, state.t)
            code = som._run_presentations(args, chunk)
            count = dict(zip(_kernel.SLOTS, chunk.count.tolist()))
            for name in ("supervised", "unsupervised", "pushes",
                         "insertions", "removals", "resets"):
                setattr(stats, name, getattr(stats, name) + count[name])
            if code == _kernel.END and observer is not None:
                # one draw, whose tail the loop counted without its sweep
                _finish(state, observer)
                break
            _count_presentations(state, count["t"] - state.t)
            som.nwins, state.t = count["nwins"], count["t"]
            if code == _kernel.END:
                break
            pos = count["pos"]
            if code == _kernel.INSERT:
                i = int(part[pos])
                insert_node(som, patterns[i], int(labels[i]), p.minwd)
                stats.insertions += 1
            _finish(state, observer)
            pos += 1


def _present_draws(state: TrainState, patterns: np.ndarray,
                   labels: np.ndarray, total: int, *, allow_insert: bool,
                   observer: Observer | None) -> None:
    """Draw ``total`` pattern indices, in chunks, and present them."""
    for start in range(0, total, _CHUNK):
        draws = state.rng.integers(len(patterns),
                                   size=min(_CHUNK, total - start))
        _present_chunk(state, patterns, labels, draws,
                       allow_insert=allow_insert, observer=observer)


def _arrays(dataset: "Dataset") -> tuple[np.ndarray, np.ndarray]:
    return (np.ascontiguousarray(dataset.patterns, dtype=float),
            np.ascontiguousarray(dataset.labels, dtype=np.int64))


def convergence_phase(state: TrainState, dataset: "Dataset", *,
                      observer: Observer | None = None) -> None:
    """Adapt without insertion until two pruning sweeps have completed.

    The first sweep closes the competition cycle left open by the growth
    phase; the second ends one further full cycle. A sweep ends every
    cycle of ``age_wins + 1`` presentations, so the phase runs exactly
    ``2 * age_wins + 1 - nwins`` of them. Patterns whose winner falls below
    the activation threshold are skipped instead of spawning nodes.
    """
    state.phase = "convergence"
    if observer is not None:
        observer("phase", state)
    patterns, labels = _arrays(dataset)
    _present_draws(state, patterns, labels,
                   2 * state.params.age_wins + 1 - state.som.nwins,
                   allow_insert=False, observer=observer)


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
    _present_draws(state, patterns, labels, params.epochs * n,
                   allow_insert=True, observer=observer)
    convergence_phase(state, dataset, observer=observer)
    return state


def train(dataset: "Dataset", params: HyperParams, *,
          observer: Observer | None = None) -> SomMap:
    """Train a map on ``dataset``; see ``train_with_state`` for details."""
    return train_with_state(dataset, params, observer=observer).som
