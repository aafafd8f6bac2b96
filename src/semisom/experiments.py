"""Hyperparameter sweeps: Latin Hypercube sampling, fold runs, aggregation.

A sweep trains and evaluates one model per (repeat, fold, supervision
fraction, parameter sample) combination. Every run's randomness is derived
from the master seed and the run coordinates alone, so results do not
depend on execution order and sweeps parallelize safely. Parallel runs go
to threads of this process: training releases the interpreter lock inside
the compiled loop, so the runs share one copy of the data set and of the
library.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, FoldPlan, mask_labels
# ``classify`` stays importable from here: perfbench/tracer.py wraps it by
# this module's name.
from .inference import _classify_arrays, classify  # noqa: F401
from .model import HyperParams
from .training import train_with_state

# Supervision fractions exercised by default.
FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0)

# Stream tags separating the derived RNG uses of one run.
_MASK_STREAM = 1
_TRAIN_STREAM = 2


@dataclass(frozen=True)
class ParamRange:
    """Sampling range of one training parameter.

    ``scale`` declares how a sampled value is resolved: taken as is
    ("linear"), multiplied by the winner learning rate ("times_eb"), or
    multiplied by the training-set size ("times_train_size"). Integer
    parameters are rounded after resolution.
    """

    name: str
    low: float
    high: float
    scale: str = "linear"
    integer: bool = False


DEFAULT_RANGES: tuple[ParamRange, ...] = (
    ParamRange("a_t", 0.80, 0.999),
    ParamRange("lp", 0.001, 0.01),
    ParamRange("beta", 0.001, 0.5),
    ParamRange("age_wins", 1.0, 100.0, scale="times_train_size", integer=True),
    ParamRange("e_b", 0.001, 0.2),
    ParamRange("push_rate", 0.01, 1.0, scale="times_eb"),
    ParamRange("e_n", 0.002, 1.0, scale="times_eb"),
    ParamRange("eps_beta", 0.01, 0.1),
    ParamRange("minwd", 0.0, 0.5),
    ParamRange("epochs", 1.0, 100.0, integer=True),
)


@dataclass(frozen=True)
class RunResult:
    repeat: int
    fold: int
    fraction: float
    sample_id: int
    accuracy: float
    nodes: int
    runtime_ms: float


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    mean_best_accuracy: float
    std_best_accuracy: float


def lhs_unit(n: int, d: int, seed: int) -> np.ndarray:
    """Stratified unit-cube sample: one point per 1/n stratum per dimension.

    scipy.stats is imported here, on first use, as importing it takes
    about a second.
    """
    from scipy.stats import qmc

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return qmc.LatinHypercube(d=d, seed=seed).random(n)


def resolve_sample(ranges: tuple[ParamRange, ...], unit_row: np.ndarray,
                   train_size: int, *, seed: int = 0) -> HyperParams:
    """Map one unit-cube row onto concrete training parameters.

    Multiplier-scaled entries resolve against values appearing earlier in
    ``ranges`` (the winner rate precedes its multiples) or against the
    training-set size; integer entries round afterwards, floored at one.
    The node budget ``n_max`` is the training-set size.
    """
    values: dict[str, float | int] = {}
    for prange, u in zip(ranges, unit_row):
        value = prange.low + float(u) * (prange.high - prange.low)
        if prange.scale == "times_eb":
            value *= values["e_b"]
        elif prange.scale == "times_train_size":
            value *= train_size
        elif prange.scale != "linear":
            raise ValueError(f"unknown scale {prange.scale!r}")
        if prange.integer:
            value = max(1, int(round(value)))
        values[prange.name] = value
    return HyperParams(**values, n_max=train_size, seed=seed)


def lhs_sample(ranges: tuple[ParamRange, ...], n: int, seed: int,
               train_size: int) -> list[HyperParams]:
    """Draw ``n`` stratified parameter settings over ``ranges``."""
    unit = lhs_unit(n, len(ranges), seed)
    return [resolve_sample(ranges, row, train_size) for row in unit]


def _derived_seed(master: int, repeat: int, fold: int, fraction: float,
                  sample_id: int, stream: int) -> int:
    key = [master, repeat, fold, int(round(fraction * 1_000_000)),
           sample_id, stream]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass(frozen=True)
class _SweepContext:
    ds: Dataset
    plan: FoldPlan
    unit: np.ndarray
    ranges: tuple[ParamRange, ...]
    seed: int


def _execute_run(ctx: _SweepContext, repeat: int, fold: int, fraction: float,
                 sample_id: int, keep_model: bool = False):
    train_idx = ctx.plan.train_indices(repeat, fold)
    test_idx = ctx.plan.test_indices(repeat, fold)
    train_ds = ctx.ds.subset(train_idx)
    # One masking per (repeat, fold, fraction): parameter samples compete
    # on identical data.
    mask_seed = _derived_seed(ctx.seed, repeat, fold, fraction, 0,
                              _MASK_STREAM)
    masked = mask_labels(train_ds, fraction, mask_seed)
    params = resolve_sample(
        ctx.ranges, ctx.unit[sample_id], train_size=len(train_idx),
        seed=_derived_seed(ctx.seed, repeat, fold, fraction, sample_id,
                           _TRAIN_STREAM))
    started = time.perf_counter()
    state = train_with_state(masked, params)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    som = state.som
    truth = ctx.ds.labels[test_idx]
    _, label, _ = _classify_arrays(som, ctx.ds.patterns[test_idx], params.a_t)
    hits = np.count_nonzero(label == truth)
    result = RunResult(
        repeat=repeat, fold=fold, fraction=fraction, sample_id=sample_id,
        accuracy=hits / len(test_idx), nodes=som.n_nodes,
        runtime_ms=elapsed_ms)
    if keep_model:
        return result, som, params
    return result


def run_sweep(ds: Dataset, plan: FoldPlan, fractions=FRACTIONS, *,
              n_samples: int, seed: int = 0,
              ranges: tuple[ParamRange, ...] = DEFAULT_RANGES,
              jobs: int | None = 1) -> list[RunResult]:
    """Run the full grid of folds, fractions and parameter samples.

    Expects an already-normalized dataset with full ground-truth labels.
    For every run the training split is label-masked to the requested
    fraction, a model is trained, and the held-out fold is classified
    against the ground truth with rejections counted as errors. Results
    come back sorted by run coordinates regardless of scheduling, and equal
    whatever ``jobs`` is.

    ``jobs`` runs are in flight at once, on threads of this process
    (``None``: one per core), and never more threads than runs. They run
    in parallel on the compiled training loop and classification pass,
    both of which release the interpreter lock; on the numpy fallback they
    take turns and gain nothing. The classification of each run also
    multiplies matrices in BLAS on its own thread, so pin BLAS to one
    thread (``OPENBLAS_NUM_THREADS=1``) for ``jobs > 1``. Raises
    ``ValueError``, before any run, for ``jobs < 1`` and for a fraction
    outside ``[0, 1]``.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for fraction in fractions:
        if not 0.0 <= float(fraction) <= 1.0:
            raise ValueError(f"fractions must lie in [0, 1], got {fraction}")
    unit = lhs_unit(n_samples, len(ranges), seed)
    ctx = _SweepContext(ds=ds, plan=plan, unit=unit, ranges=ranges, seed=seed)
    specs = [(repeat, fold, float(fraction), sample)
             for repeat, fold in plan.iter_folds()
             for fraction in fractions
             for sample in range(n_samples)]
    workers = min(jobs, len(specs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda spec: _execute_run(ctx, *spec),
                                    specs))
    else:
        results = [_execute_run(ctx, *spec) for spec in specs]
    return sorted(results, key=lambda r: (r.repeat, r.fold, r.fraction,
                                          r.sample_id))


def run_one(ds: Dataset, plan: FoldPlan, repeat: int, fold: int,
            fraction: float, sample_id: int, *, n_samples: int,
            seed: int = 0, ranges: tuple[ParamRange, ...] = DEFAULT_RANGES):
    """Re-execute a single sweep run; returns (result, map, params).

    Reproduces exactly the run that ``run_sweep`` with the same master seed
    and sample count would perform at those coordinates.
    """
    unit = lhs_unit(n_samples, len(ranges), seed)
    ctx = _SweepContext(ds=ds, plan=plan, unit=unit, ranges=ranges, seed=seed)
    return _execute_run(ctx, repeat, fold, float(fraction), sample_id,
                        keep_model=True)


def best_per_fold(results: list[RunResult]) -> dict[tuple[int, int, float], float]:
    """Best accuracy over parameter samples, per (repeat, fold, fraction)."""
    if not results:
        raise ValueError("no results to aggregate")
    best: dict[tuple[int, int, float], float] = {}
    for r in results:
        key = (r.repeat, r.fold, r.fraction)
        if key not in best or r.accuracy > best[key]:
            best[key] = r.accuracy
    return best


def mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    return float(arr.mean()), float(arr.std())


def summarize_curve(results: list[RunResult]) -> list[CurvePoint]:
    """Mean and spread of per-fold best accuracies, one point per fraction."""
    best = best_per_fold(results)
    fractions = sorted({fraction for _, _, fraction in best})
    points = []
    for fraction in fractions:
        bests = [acc for (_, _, f), acc in best.items() if f == fraction]
        mean, std = mean_std(bests)
        points.append(CurvePoint(fraction, mean, std))
    return points


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def emit_results(results: list[RunResult], path) -> None:
    """Write one CSV row per run, sorted by run coordinates."""
    if not results:
        raise ValueError("no results to emit")
    path = Path(path)
    ordered = sorted(results, key=lambda r: (r.repeat, r.fold, r.fraction,
                                             r.sample_id))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repeat", "fold", "fraction", "sample_id",
                         "accuracy", "nodes", "runtime_ms"])
        for r in ordered:
            writer.writerow([r.repeat, r.fold, _fmt(r.fraction), r.sample_id,
                             _fmt(r.accuracy), r.nodes, _fmt(r.runtime_ms)])


def emit_curve(points: list[CurvePoint], path) -> None:
    """Write the per-fraction summary CSV."""
    if not points:
        raise ValueError("no curve points to emit")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "mean_best_accuracy",
                         "std_best_accuracy"])
        for p in points:
            writer.writerow([_fmt(p.fraction), _fmt(p.mean_best_accuracy),
                             _fmt(p.std_best_accuracy)])


def emit_curve_svg(points: list[CurvePoint], path, *,
                   title: str = "accuracy vs. supervision") -> None:
    """Render the summary curve as a small standalone SVG line plot."""
    if not points:
        raise ValueError("no curve points to plot")
    # the title is text content: escape the characters markup reserves
    for char, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")):
        title = title.replace(char, entity)
    width, height, margin = 640, 400, 56
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def sx(fraction: float) -> float:
        return margin + fraction * inner_w

    def sy(acc: float) -> float:
        return height - margin - acc * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{margin}" y1="{height - margin}" '
                 f'x2="{width - margin}" y2="{height - margin}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{sx(tick):.1f}" y="{height - margin + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tick:g}</text>')
        parts.append(f'<text x="{margin - 8}" y="{sy(tick) + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{tick:g}</text>')
    # error bars, then the mean line on top
    for p in points:
        lo = sy(max(0.0, p.mean_best_accuracy - p.std_best_accuracy))
        hi = sy(min(1.0, p.mean_best_accuracy + p.std_best_accuracy))
        x = sx(p.fraction)
        parts.append(f'<line x1="{x:.1f}" y1="{lo:.1f}" x2="{x:.1f}" '
                     f'y2="{hi:.1f}" stroke="steelblue"/>')
    line = " ".join(f"{sx(p.fraction):.1f},{sy(p.mean_best_accuracy):.1f}"
                    for p in points)
    parts.append(f'<polyline points="{line}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    for p in points:
        parts.append(f'<circle cx="{sx(p.fraction):.1f}" '
                     f'cy="{sy(p.mean_best_accuracy):.1f}" r="3" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
