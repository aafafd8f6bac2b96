import multiprocessing
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from semisom import experiments
from semisom import (DEFAULT_RANGES, FRACTIONS, RunResult, best_per_fold,
                     classify, emit_curve, emit_curve_svg, emit_results,
                     kfold_split,
                     lhs_sample, lhs_unit, mean_std, normalize,
                     resolve_sample, run_one, run_sweep, summarize_curve)
from helpers import make_blobs, reference_classify


@pytest.fixture(scope="module")
def blob_ds():
    return normalize(make_blobs(20, [[0.2, 0.2, 0.5], [0.8, 0.8, 0.5]],
                                0.05, seed=2))


# -- Latin Hypercube ---------------------------------------------------------

def test_lhs_occupies_every_stratum_once():
    for n in (1, 5, 40):
        unit = lhs_unit(n, d=4, seed=3)
        strata = np.floor(unit * n).astype(int)
        for dim in range(4):
            assert sorted(strata[:, dim].tolist()) == list(range(n))


def test_lhs_two_samples_split_every_range():
    samples = lhs_sample(DEFAULT_RANGES, 2, seed=5, train_size=100)
    for prange in DEFAULT_RANGES:
        if prange.scale != "linear" or prange.integer:
            continue
        mid = (prange.low + prange.high) / 2
        values = sorted(getattr(s, prange.name) for s in samples)
        assert values[0] < mid <= values[1]


def test_lhs_single_sample_stays_in_range():
    (sample,) = lhs_sample(DEFAULT_RANGES, 1, seed=9, train_size=50)
    assert 0.80 <= sample.a_t <= 0.999
    assert 0.001 <= sample.lp <= 0.01
    assert 0.001 <= sample.beta <= 0.5
    assert 50 <= sample.age_wins <= 5000
    assert 0.001 <= sample.e_b <= 0.2
    assert 0.01 <= sample.eps_beta <= 0.1
    assert 0.0 <= sample.minwd <= 0.5
    assert 1 <= sample.epochs <= 100
    assert sample.n_max == 50


def test_multiplier_ranges_resolve_against_winner_rate():
    samples = lhs_sample(DEFAULT_RANGES, 50, seed=1, train_size=80)
    for s in samples:
        assert 0.01 * s.e_b <= s.push_rate <= s.e_b
        assert 0.002 * s.e_b <= s.e_n <= s.e_b
        assert isinstance(s.age_wins, int) and isinstance(s.epochs, int)


def test_resolve_sample_rejects_unknown_scale():
    from semisom import ParamRange
    with pytest.raises(ValueError):
        resolve_sample((ParamRange("a_t", 0, 1, scale="log"),),
                       np.array([0.5]), 10)


# -- sweep -------------------------------------------------------------------

def test_sweep_cardinality(blob_ds):
    plan = kfold_split(blob_ds, 3, 3, seed=4)
    results = run_sweep(blob_ds, plan, (1.0,), n_samples=1, seed=7)
    assert len(results) == 9
    assert {(r.repeat, r.fold) for r in results} == {(r, f) for r in range(3)
                                                     for f in range(3)}


def test_sweep_is_deterministic(blob_ds):
    plan = kfold_split(blob_ds, 2, 2, seed=4)
    a = run_sweep(blob_ds, plan, (0.5, 1.0), n_samples=2, seed=7)
    b = run_sweep(blob_ds, plan, (0.5, 1.0), n_samples=2, seed=7)
    strip = lambda rs: [(r.repeat, r.fold, r.fraction, r.sample_id,
                         r.accuracy, r.nodes) for r in rs]
    assert strip(a) == strip(b)


def test_sweep_parallel_matches_sequential(blob_ds):
    plan = kfold_split(blob_ds, 2, 2, seed=4)
    seq = run_sweep(blob_ds, plan, (1.0,), n_samples=2, seed=7, jobs=1)
    par = run_sweep(blob_ds, plan, (1.0,), n_samples=2, seed=7, jobs=2)
    strip = lambda rs: [(r.repeat, r.fold, r.fraction, r.sample_id,
                         r.accuracy, r.nodes) for r in rs]
    assert strip(seq) == strip(par)


def test_parallel_sweep_runs_on_threads_of_this_process(blob_ds,
                                                        monkeypatch):
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    seq = run_sweep(blob_ds, plan, (0.5, 1.0), n_samples=2, seed=7, jobs=1)

    def no_child(*args, **kwargs):
        raise AssertionError("the sweep started a child process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_child)
    monkeypatch.setattr(os, "fork", no_child)
    par = run_sweep(blob_ds, plan, (0.5, 1.0), n_samples=2, seed=7, jobs=2)
    strip = lambda rs: [(r.repeat, r.fold, r.fraction, r.sample_id,
                         r.accuracy, r.nodes) for r in rs]
    assert strip(par) == strip(seq)


@pytest.mark.parametrize("jobs, samples, workers", [
    (2, 2, 2), (8, 1, 2), (1, 2, None)])
def test_sweep_starts_at_most_one_thread_per_run(blob_ds, monkeypatch, jobs,
                                                  samples, workers):
    """Two folds of ``samples`` runs on ``workers`` threads, or on none
    when the runs go one after another."""
    started = []

    class Recording(experiments.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    results = run_sweep(blob_ds, plan, (1.0,), n_samples=samples, seed=7,
                        jobs=jobs)
    assert len(results) == 2 * samples
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(blob_ds, jobs):
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(blob_ds, plan, (1.0,), n_samples=1, seed=7, jobs=jobs)


def test_sweep_zero_fraction_rejects_everything(blob_ds):
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    results = run_sweep(blob_ds, plan, (0.0,), n_samples=1, seed=7)
    assert all(r.accuracy == 0.0 for r in results)


def test_run_one_reproduces_sweep_entry(blob_ds):
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    results = run_sweep(blob_ds, plan, (1.0,), n_samples=3, seed=7)
    pick = results[4]
    redone, som, params = run_one(blob_ds, plan, pick.repeat, pick.fold,
                                  pick.fraction, pick.sample_id,
                                  n_samples=3, seed=7)
    assert redone.accuracy == pick.accuracy and redone.nodes == pick.nodes
    # the returned model really is the one scored by the sweep
    test_idx = plan.test_indices(pick.repeat, pick.fold)
    hits = sum(classify(som, x, params.a_t).label == want
               for x, want in zip(blob_ds.patterns[test_idx],
                                  blob_ds.labels[test_idx]))
    assert hits / len(test_idx) == pick.accuracy


def test_run_accuracy_counts_patterns_like_the_reference(blob_ds):
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    test_idx = plan.test_indices(0, 1)
    for sample_id in range(3):
        result, som, params = run_one(blob_ds, plan, 0, 1, 0.2, sample_id,
                                      n_samples=3, seed=7)
        hits = sum(reference_classify(som, x, params.a_t).label == want
                   for x, want in zip(blob_ds.patterns[test_idx],
                                      blob_ds.labels[test_idx]))
        assert result.accuracy == hits / len(test_idx)


# -- aggregation -------------------------------------------------------------

def rr(repeat, fold, fraction, sample, acc):
    return RunResult(repeat, fold, fraction, sample, acc, nodes=3,
                     runtime_ms=1.0)


def test_best_per_fold_takes_max_over_samples():
    best = best_per_fold([rr(0, 0, 1.0, 0, 0.5), rr(0, 0, 1.0, 1, 0.7)])
    assert best == {(0, 0, 1.0): 0.7}
    assert mean_std(best.values()) == (0.7, 0.0)


def test_mean_std_across_folds():
    best = best_per_fold([rr(0, 0, 1.0, 0, 0.8), rr(0, 1, 1.0, 0, 0.6)])
    mean, std = mean_std(best.values())
    assert mean == pytest.approx(0.7)
    assert std == pytest.approx(0.1)  # population std


def test_best_per_fold_rejects_empty():
    with pytest.raises(ValueError):
        best_per_fold([])


def test_summarize_curve_one_point_per_fraction():
    results = [rr(0, f, frac, s, 0.5 + 0.01 * s)
               for f in range(3) for frac in FRACTIONS for s in range(2)]
    points = summarize_curve(results)
    assert [p.fraction for p in points] == sorted(FRACTIONS)
    assert all(p.mean_best_accuracy == pytest.approx(0.51) for p in points)


# -- emission ----------------------------------------------------------------

def test_emit_results_rows_and_header(tmp_path):
    results = [rr(r, f, 1.0, 0, 0.5) for r in range(3) for f in range(3)]
    path = tmp_path / "results.csv"
    emit_results(results, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "repeat,fold,fraction,sample_id,accuracy,nodes,runtime_ms"
    assert len(lines) == 10


def test_emission_is_reproducible(tmp_path):
    results = [rr(0, f, frac, s, 1 / 3 + s * 0.001)
               for f in range(2) for frac in (0.25, 1.0) for s in range(2)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(results, a)
    emit_results(list(reversed(results)), b)  # order must not matter
    assert a.read_bytes() == b.read_bytes()

    pa, pb = tmp_path / "ca.csv", tmp_path / "cb.csv"
    points = summarize_curve(results)
    emit_curve(points, pa)
    emit_curve(points, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert len(pb.read_text().strip().split("\n")) == 3  # header + 2 fractions


def test_curve_svg_escapes_its_title(tmp_path):
    points = summarize_curve([rr(0, 0, 0.5, 0, 0.8), rr(0, 0, 1.0, 0, 0.9)])
    path = tmp_path / "curve.svg"
    emit_curve_svg(points, path, title="a < b & c > d")
    root = ET.parse(path).getroot()
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
            ][0] == "a < b & c > d"


@pytest.mark.parametrize("fraction", [float("nan"), -0.5, 1.5])
def test_sweep_checks_every_fraction_before_any_run(blob_ds, monkeypatch,
                                                    fraction):
    runs = []
    monkeypatch.setattr(experiments, "_execute_run",
                        lambda *args, **kwargs: runs.append(args))
    plan = kfold_split(blob_ds, 1, 2, seed=4)
    with pytest.raises(ValueError, match=r"fractions must lie in \[0, 1\]"):
        run_sweep(blob_ds, plan, (0.5, fraction), n_samples=1, seed=7)
    assert runs == []
