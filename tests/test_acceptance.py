"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from semisom import (NO_CLASS, REJECTED, DEFAULT_RANGES, TrainState, classify,
                     kfold_split, lhs_unit, load_arff, mask_labels, normalize,
                     run_one, run_sweep, save_model, summarize_curve,
                     train_with_state)
from helpers import (brute_connections, brute_winner, make_blobs,
                     make_synthetic, random_map, weighted_distance)

GLASS_PATH = Path(os.environ.get(
    "SEMISOM_GLASS_ARFF",
    Path(__file__).resolve().parent.parent / "data" / "glass.arff"))


def report(criterion: int, name: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


# -- 1: math kernel properties ------------------------------------------------

def test_c1_math_kernel_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)

    # activation stays in [0, 1)
    from semisom import SomMap, compute_relevances
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        som = SomMap.from_arrays(1, [rng.random(m)], [rng.random(m)],
                                 [rng.random(m)], [0], [NO_CLASS])
        act = som.activations(rng.random(m))[0]
        assert 0.0 <= act < 1.0

    # relevances in [0, 1], smaller distance average -> larger weight
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        d = rng.random(m)
        rel = compute_relevances(d, slope=float(rng.uniform(0.01, 0.1)))
        assert np.all(rel >= 0.0) and np.all(rel <= 1.0)
        order = np.argsort(d, kind="stable")
        ranked = rel[order]
        assert np.all(np.diff(ranked) <= 0.0)
        for a, b in zip(ranked[:-1], ranked[1:]):
            # strict unless the logistic saturated at a float endpoint
            if a == b:
                assert a in (0.0, 1.0)

    # unit relevance reduces the metric to Euclidean distance
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        c = rng.random(m)
        x = rng.random(m)
        assert abs(weighted_distance(x, c, np.ones(m))
                   - float(np.linalg.norm(x - c))) <= 1e-12

    # winner search agrees with an exhaustive scan
    for _ in range(1000):
        som = random_map(rng)
        x = rng.random(som.dim)
        assert som.find_winner(x)[0] == brute_winner(som, x)[0]

    # connection rebuilds agree with the pairwise predicate
    for _ in range(1000):
        som = random_map(rng)
        minwd = float(rng.uniform(0.0, 0.8))
        som.rebuild_connections(minwd)
        assert som.connections == brute_connections(som, minwd)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"kernel property suite took {elapsed:.1f}s"
    report(1, "math kernel properties")


# -- 2: structural invariants during training ---------------------------------

class InvariantMonitor:
    def __init__(self, params):
        self.params = params
        self.pre = None
        self.in_convergence = False
        self.insertions_at_phase = None

    def __call__(self, event, state: TrainState):
        som = state.som
        assert 1 <= som.n_nodes <= self.params.n_max
        if event == "pre_reset":
            self.pre = (som.wins, som.centers)
        elif event == "post_reset":
            wins, centers = self.pre
            threshold = self.params.lp * self.params.age_wins
            keep = np.flatnonzero(wins >= threshold)
            if keep.size == 0:
                keep = np.array([int(np.argmax(wins))])
            # survivors are exactly the qualifying nodes, in order
            assert np.array_equal(som.centers, centers[keep])
            assert np.array_equal(som.wins, np.zeros(keep.size, dtype=int))
        elif event == "phase":
            self.in_convergence = True
            self.insertions_at_phase = state.stats.insertions
        elif event == "step" and self.in_convergence:
            assert state.stats.insertions == self.insertions_at_phase


def test_c2_structural_invariants():
    from semisom import HyperParams
    started = time.perf_counter()
    fixtures = [
        make_blobs(20, [[0.2, 0.2], [0.8, 0.8]], 0.05, seed=1),
        make_blobs(15, [[0.1, 0.5, 0.9], [0.9, 0.5, 0.1], [0.5, 0.9, 0.5]],
                   0.07, seed=2),
        make_blobs(12, [[0.3, 0.3, 0.3, 0.3], [0.7, 0.7, 0.7, 0.7]], 0.1,
                   seed=3),
    ]
    for i, ds in enumerate(fixtures):
        n = len(ds)
        params = HyperParams(a_t=0.93, lp=0.02, beta=0.1, age_wins=2 * n,
                             e_b=0.12, push_rate=0.05, e_n=0.01,
                             eps_beta=0.05, minwd=0.3, epochs=4, n_max=n,
                             seed=100 + i)
        monitor = InvariantMonitor(params)
        state = train_with_state(ds, params, observer=monitor)
        assert monitor.in_convergence
        assert state.stats.insertions == monitor.insertions_at_phase
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"instrumented runs took {elapsed:.1f}s"
    report(2, "structural training invariants")


# -- 3: unsupervised degeneracy ------------------------------------------------

def test_c3_unsupervised_degeneracy():
    from semisom import HyperParams
    ds = make_blobs(25, [[0.25, 0.25], [0.75, 0.75]], 0.06, seed=7)
    hidden = mask_labels(ds, 0.0, seed=1)
    params = HyperParams(a_t=0.93, lp=0.02, beta=0.1, age_wins=100, e_b=0.1,
                         push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                         epochs=4, n_max=len(ds), seed=5)
    labeled_ever = []

    def observer(event, state):
        if event == "step":
            labeled_ever.append(bool((state.som.labels != NO_CLASS).any()))

    state = train_with_state(hidden, params, observer=observer)
    assert state.stats.supervised == 0
    assert state.stats.pushes == 0
    assert not any(labeled_ever)
    for x in ds.patterns:
        assert classify(state.som, x, params.a_t).label == REJECTED
    report(3, "unsupervised degeneracy")


# -- 4: determinism -------------------------------------------------------------

def _strip_runtime_column(text: str) -> str:
    lines = text.strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_c4_determinism(tmp_path):
    from semisom import HyperParams, emit_curve, emit_results
    ds = normalize(make_blobs(20, [[0.2, 0.3], [0.8, 0.7]], 0.05, seed=11))
    params = HyperParams(a_t=0.93, lp=0.02, beta=0.1, age_wins=80, e_b=0.1,
                         push_rate=0.05, e_n=0.01, eps_beta=0.05, minwd=0.3,
                         epochs=4, n_max=len(ds), seed=21)
    paths = []
    for name in ("a.json", "b.json"):
        state = train_with_state(ds, params)
        path = tmp_path / name
        save_model(path, state.som, params, norm_stats=ds.norm_stats,
                   class_names=ds.class_names)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    plan = kfold_split(ds, 2, 2, seed=3)
    seq = run_sweep(ds, plan, (0.5, 1.0), n_samples=3, seed=9, jobs=1)
    par = run_sweep(ds, plan, (0.5, 1.0), n_samples=3, seed=9, jobs=2)
    fa, fb = tmp_path / "seq.csv", tmp_path / "par.csv"
    emit_results(seq, fa)
    emit_results(par, fb)
    # runtime_ms is a wall-clock measurement; everything else must match
    assert (_strip_runtime_column(fa.read_text())
            == _strip_runtime_column(fb.read_text()))
    ca, cb = tmp_path / "ca.csv", tmp_path / "cb.csv"
    emit_curve(summarize_curve(seq), ca)
    emit_curve(summarize_curve(par), cb)
    assert ca.read_bytes() == cb.read_bytes()
    report(4, "determinism incl. parallel sweeps")


# -- 5: synthetic separation -----------------------------------------------------

def test_c5_synthetic_separation():
    started = time.perf_counter()
    informative = 4
    ds = normalize(make_synthetic(n=300, dim=10, informative=informative,
                                  clusters=3, sigma=0.05, seed=404))
    plan = kfold_split(ds, 1, 2, seed=31)
    results = run_sweep(ds, plan, (0.10,), n_samples=50, seed=606, jobs=2)
    best = max(results, key=lambda r: r.accuracy)
    assert best.accuracy >= 0.90, f"best fold accuracy {best.accuracy:.3f}"

    _, som, _ = run_one(ds, plan, best.repeat, best.fold, best.fraction,
                        best.sample_id, n_samples=50, seed=606)
    rel = som.relevances
    noise_mean = float(rel[:, informative:].mean())
    signal_mean = float(rel[:, :informative].mean())
    assert noise_mean < signal_mean, (noise_mean, signal_mean)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"separation check took {elapsed:.1f}s"
    report(5, "synthetic separation and relevance contrast")


# -- 6: supervision monotonicity --------------------------------------------------

def test_c6_supervision_monotonicity():
    ds = normalize(make_synthetic(n=300, dim=10, informative=4, clusters=3,
                                  sigma=0.05, seed=404))
    low, high = [], []
    for master_seed in (101, 102, 103, 104, 105):
        plan = kfold_split(ds, 1, 2, seed=master_seed)
        results = run_sweep(ds, plan, (0.01, 1.0), n_samples=6,
                            seed=master_seed, jobs=2)
        points = {p.fraction: p.mean_best_accuracy
                  for p in summarize_curve(results)}
        low.append(points[0.01])
        high.append(points[1.0])
    assert np.mean(high) >= np.mean(low), (np.mean(high), np.mean(low))
    report(6, "supervision monotonicity")


# -- 7: reduced-scale benchmark ----------------------------------------------------

@pytest.mark.skipif(not GLASS_PATH.exists(),
                    reason=f"{GLASS_PATH} not found; see scripts/fetch_glass.py")
def test_c7_glass_reduced_scale():
    started = time.perf_counter()
    ds = normalize(load_arff(GLASS_PATH))
    assert len(ds) == 214, "expected the 214-pattern glass dataset"
    plan = kfold_split(ds, 3, 3, seed=2024)
    results = run_sweep(ds, plan, (1.0,), n_samples=50, seed=77, jobs=2)
    (point,) = summarize_curve(results)
    assert abs(point.mean_best_accuracy - 0.714) <= 0.10, (
        f"mean best accuracy {point.mean_best_accuracy:.3f} outside "
        f"0.714 +/- 0.10")
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"benchmark took {elapsed:.1f}s"
    report(7, f"reduced-scale benchmark "
              f"(mean best {point.mean_best_accuracy:.3f})")


# -- 8: Latin Hypercube stratification ----------------------------------------------

def test_c8_lhs_stratification():
    d = len(DEFAULT_RANGES)
    for n in (2, 10, 500):
        unit = lhs_unit(n, d, seed=1234 + n)
        strata = np.floor(unit * n).astype(int)
        for dim in range(d):
            assert sorted(strata[:, dim].tolist()) == list(range(n)), (
                f"dimension {dim} misses strata for n={n}")
    report(8, "Latin Hypercube stratification")
