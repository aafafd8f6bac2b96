"""The benchmark's workloads: set-up, one measured unit, output checks.

Why each workload exists:

``sweep-c5``
    The c5 yardstick: ``run_sweep`` over the 300x10 synthetic set with
    supervision fraction 0.1 and ``DEFAULT_RANGES``, two pool workers. Maps
    stay near 6 nodes, so each kernel call is mostly numpy overhead, about
    90 % of patterns take the unsupervised path and most presentations fall
    in the convergence phase. It stresses ``model`` call overhead, the
    ``training`` control flow and the ``experiments`` process pool, and
    barely touches ``data``, ``persistence``, ``cli`` or large-N arithmetic.
    One unit is one sweep of ``SWEEP_SAMPLES`` Latin Hypercube samples over
    two folds. The samples come from the c5 test's master seed, so every
    unit and every workload seed trains the same parameter settings; the
    workload seed draws the fold split. Run lengths vary 100-fold between
    parameter settings, so drawing the settings from the workload seed
    would make the work per run, not the program, set the figure.

``train-subspace``
    ``semisom train`` run in-process on a fully labeled ARFF file of
    projected clusters: each class lives on its own random subset of
    dimensions, the others are uniform noise, the paper's setting. The map
    grows to several hundred nodes, so ``find_winner``, ``rewire_node`` on
    every supervised update and the n^2*m ``rebuild_connections`` dominate,
    together with ``data.load_arff`` and ``persistence.save_model``. It
    takes the supervised and push paths that ``sweep-c5`` mostly skips.

``predict-bulk``
    ``semisom predict`` run in-process on a model trained once in set-up
    (30 % labels, so some nodes stay unlabeled) and a large CSV of held-out
    patterns mixed with uniform outliers, so both the labeled fallback and
    ``REJECTED`` occur. It uses the activation kernel read-only, beside
    ``train-subspace`` which reads and writes it, and stresses
    ``inference.classify`` per pattern, ``data.load_csv``,
    ``persistence.load_model`` and the CSV writer in ``cli``.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import inputs

SWEEP_SAMPLES = 6
SWEEP_FRACTION = 0.10
SWEEP_JOBS = 2
SWEEP_MASTER_SEED = 606
# The bar the c5 acceptance test holds the best sweep run to.
SWEEP_BAR = 0.90

# Parameters under which the projected-cluster map grows to ~600 nodes.
SUBSPACE_PARAMS = {"a_t": 0.95, "lp": 0.0002, "beta": 0.1, "e_b": 0.05,
                   "push_rate": 0.005, "e_n": 0.001, "eps_beta": 0.05,
                   "minwd": 0.2, "epochs": 2}
PREDICT_LABELED = 0.30
PREDICT_OUTLIERS = 0.20


def derive(seed: int, *tags: int) -> int:
    """A 31-bit seed derived from the workload seed and a stream tag."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Unit:
    """One measured unit of work."""

    wall: float
    ops: int
    failed: int
    output: object  # workload-specific; None when the unit raised


def run_unit(fn, ops: int) -> Unit:
    """Time ``fn()``; an exception or a non-zero exit code fails all ops."""
    started = time.perf_counter()
    try:
        code, output = fn()
    except Exception as exc:  # noqa: BLE001 - counted as failed operations
        print(f"unit raised {type(exc).__name__}: {exc}", flush=True)
        return Unit(time.perf_counter() - started, ops, ops, None)
    wall = time.perf_counter() - started
    return Unit(wall, ops, ops if code != 0 else 0,
                output if code == 0 else None)


def throughput(units: list[Unit]) -> float | None:
    """Operations per second of the fastest successful unit.

    Every unit of a run does the same work. On a shared machine the speed
    drifts for seconds to minutes at a time as other tenants come and go;
    the fastest unit is the figure least disturbed by them.
    """
    done = [u for u in units if not u.failed]
    if not done:
        return None
    return done[0].ops / min(u.wall for u in done)


def _write_spec(work: Path, spec: dict) -> None:
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")


def _read_spec(work: Path) -> dict:
    return json.loads((work / "spec.json").read_text(encoding="utf-8"))


def _sizes(work: Path, names) -> dict:
    return {name: (work / name).stat().st_size for name in names}


def _same_outputs(units: list[Unit], what: str) -> None:
    digests = {u.output for u in units if u.output is not None}
    if len(digests) > 1:
        raise CheckFailed(f"{len(digests)} different {what} from identical "
                          f"inputs")


def check_model_roundtrip(path: Path, dim: int, classes: int) -> object:
    """Reload a model file and check that save -> load -> save is stable.

    Returns the loaded model.
    """
    from semisom.persistence import load_model, save_model
    model = load_model(path)
    if model.som.dim != dim:
        raise CheckFailed(f"model has dim {model.som.dim}, expected {dim}")
    if len(model.class_names) != classes:
        raise CheckFailed(f"model has {len(model.class_names)} classes, "
                          f"expected {classes}")
    first = path.with_suffix(".resaved1.json")
    second = path.with_suffix(".resaved2.json")
    save_model(first, model.som, model.params, norm_stats=model.norm_stats,
               class_names=model.class_names)
    again = load_model(first)
    save_model(second, again.som, again.params, norm_stats=again.norm_stats,
               class_names=again.class_names)
    original = path.read_bytes()
    if not first.read_bytes() == second.read_bytes() == original:
        raise CheckFailed("save -> load -> save is not byte-identical")
    return model


def expected_labels(model, patterns: np.ndarray) -> list[str]:
    """Library ``classify_batch`` labels, as the predictions CSV names them."""
    from semisom.data import apply_norm
    from semisom.inference import REJECTED, classify_batch
    scaled = (patterns if model.norm_stats is None
              else apply_norm(model.norm_stats, patterns))
    preds = classify_batch(model.som, scaled, model.params.a_t)
    return ["REJECTED" if p.label == REJECTED else model.class_names[p.label]
            for p in preds]


def check_predictions(path: Path, expected: list[str]) -> list[str]:
    """Check one row per input, in order, with the library's labels."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["pattern_index", "node_id", "label",
                               "activation"]:
        raise CheckFailed("predictions CSV lacks its header")
    body = rows[1:]
    if len(body) != len(expected):
        raise CheckFailed(f"{len(body)} prediction rows for "
                          f"{len(expected)} patterns")
    labels = []
    for i, row in enumerate(body):
        if len(row) != 4 or row[0] != str(i):
            raise CheckFailed(f"prediction row {i} is malformed: {row}")
        labels.append(row[2])
    wrong = sum(a != b for a, b in zip(labels, expected))
    if wrong:
        raise CheckFailed(f"{wrong} predicted labels differ from "
                          f"classify_batch")
    return labels


def check_sweep(units: list[Unit], runs_per_unit: int) -> float:
    """Check every sweep result; returns the mean per-fold best accuracy."""
    from semisom.experiments import best_per_fold
    bests = []
    for u in units:
        if u.output is None:
            continue
        results = u.output
        if len(results) != runs_per_unit:
            raise CheckFailed(f"{len(results)} runs, expected "
                              f"{runs_per_unit}")
        if any(not 0.0 <= r.accuracy <= 1.0 for r in results):
            raise CheckFailed("accuracy outside [0, 1]")
        bests.extend(best_per_fold(results).values())
    if not bests:
        raise CheckFailed("no sweep completed")
    accuracy = float(np.mean(bests))
    if accuracy < SWEEP_BAR:
        raise CheckFailed(f"mean per-fold best accuracy {accuracy:.3f} "
                          f"below the c5 bar {SWEEP_BAR}")
    return accuracy


def _load_test_helpers(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_helpers", root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SweepC5:
    name = "sweep-c5"
    jobs = SWEEP_JOBS

    def __init__(self, tiny: bool = False):
        self.samples = 4 if tiny else SWEEP_SAMPLES
        self.runs_per_unit = 2 * self.samples

    def setup(self, root: Path, work: Path, seed: int) -> dict:
        patterns, labels = inputs.c5_patterns()
        ref = _load_test_helpers(root).make_synthetic(
            n=300, dim=10, informative=4, clusters=3, sigma=0.05, seed=404)
        if not (np.array_equal(ref.patterns, patterns)
                and np.array_equal(ref.labels, labels)):
            raise CheckFailed("c5 set differs from tests/helpers.py")
        inputs.write_arff(work / "c5.arff", patterns, labels,
                          inputs.class_names(3))
        _write_spec(work, {"plan_seed": derive(seed, 1)})
        return {"inputs_bytes": _sizes(work, ["c5.arff"]),
                "patterns": 300, "dim": 10}

    def prepare(self, work: Path) -> dict:
        from semisom.data import kfold_split, load_arff, normalize
        spec = _read_spec(work)
        ds = normalize(load_arff(work / "c5.arff"))
        return {"ds": ds, "plan": kfold_split(ds, 1, 2, spec["plan_seed"])}

    def unit(self, ctx: dict, jobs: int) -> Unit:
        from semisom import experiments

        def sweep():
            return 0, experiments.run_sweep(
                ctx["ds"], ctx["plan"], (SWEEP_FRACTION,),
                n_samples=self.samples, seed=SWEEP_MASTER_SEED, jobs=jobs)
        return run_unit(sweep, self.runs_per_unit)

    def same_work(self, a: Unit, b: Unit) -> bool:
        def strip(u):
            return [(r.repeat, r.fold, r.sample_id, r.accuracy, r.nodes)
                    for r in u.output]
        return strip(a) == strip(b)

    def check(self, ctx: dict, units: list[Unit]) -> dict:
        accuracy = check_sweep(units, self.runs_per_unit)
        return {"accuracy": accuracy,
                "named": {"sweep.runs_per_s": (throughput(units), "runs/s"),
                          "sweep.best_accuracy": (accuracy, "ratio")}}


class _SubspaceSizes:
    def __init__(self, tiny: bool, n: int, classes: int):
        self.n = 300 if tiny else n
        self.dim = 8 if tiny else 32
        self.classes = 8 if tiny else classes
        self.sub = 4 if tiny else 12
        self.sigma = 0.03


class TrainSubspace:
    name = "train-subspace"
    jobs = 1

    def __init__(self, tiny: bool = False):
        self.size = _SubspaceSizes(tiny, n=3000, classes=192)
        self.holdout = 200 if tiny else 2000

    def setup(self, root: Path, work: Path, seed: int) -> dict:
        s = self.size
        rng = np.random.default_rng(derive(seed, 3))
        patterns, labels, gen = inputs.subspace_clusters(
            rng, s.n, s.dim, s.classes, s.sub, s.sigma)
        names = inputs.class_names(s.classes)
        inputs.write_arff(work / "train.arff", patterns, labels, names)
        held = rng.integers(s.classes, size=self.holdout)
        np.savez(work / "holdout.npz",
                 patterns=inputs.draw_subspace(rng, gen, held), labels=held)
        params = dict(SUBSPACE_PARAMS, age_wins=2 * s.n,
                      seed=derive(seed, 4))
        _write_spec(work, {"params": params})
        return {"inputs_bytes": _sizes(work, ["train.arff"]),
                "patterns": s.n, "dim": s.dim, "classes": s.classes}

    def prepare(self, work: Path) -> dict:
        flags = []
        for name, value in _read_spec(work)["params"].items():
            flags += [f"--{name.replace('_', '-')}", str(value)]
        return {"work": work, "flags": flags}

    def unit(self, ctx: dict, jobs: int) -> Unit:
        from semisom import cli
        out = ctx["work"] / "model.json"

        def train():
            return cli.main(["train", str(ctx["work"] / "train.arff"),
                             "-o", str(out), "--quiet", *ctx["flags"]]), None
        unit = run_unit(train, 1)
        if not unit.failed:
            unit.output = sha256(out)
        return unit

    def same_work(self, a: Unit, b: Unit) -> bool:
        return a.output == b.output

    def check(self, ctx: dict, units: list[Unit]) -> dict:
        _same_outputs(units, "model files")
        if all(u.output is None for u in units):
            raise CheckFailed("no train command succeeded")
        model = check_model_roundtrip(ctx["work"] / "model.json",
                                      self.size.dim, self.size.classes)
        held = np.load(ctx["work"] / "holdout.npz")
        predicted = expected_labels(model, held["patterns"])
        truth = [model.class_names[c] for c in held["labels"]]
        accuracy = float(np.mean([p == t for p, t in zip(predicted, truth)]))
        return {"accuracy": accuracy,
                "named": {"train.wall_s": (1.0 / throughput(units), "s"),
                          "train.holdout_accuracy": (accuracy, "ratio"),
                          "train.nodes": (model.som.n_nodes, "nodes")}}


class PredictBulk:
    name = "predict-bulk"
    jobs = 1

    def __init__(self, tiny: bool = False):
        self.size = _SubspaceSizes(tiny, n=3000, classes=96)
        self.patterns = 500 if tiny else 20000

    def setup(self, root: Path, work: Path, seed: int) -> dict:
        from semisom.data import Dataset, mask_labels, normalize
        from semisom.model import HyperParams
        from semisom.persistence import save_model
        from semisom.training import train_with_state
        s = self.size
        rng = np.random.default_rng(derive(seed, 5))
        patterns, labels, gen = inputs.subspace_clusters(
            rng, s.n, s.dim, s.classes, s.sub, s.sigma)
        names = inputs.class_names(s.classes)
        ds = normalize(Dataset(patterns, labels, tuple(names),
                               tuple(f"f{i}" for i in range(s.dim))))
        masked = mask_labels(ds, PREDICT_LABELED, derive(seed, 6))
        params = HyperParams(**SUBSPACE_PARAMS, age_wins=2 * s.n,
                             n_max=s.n, seed=derive(seed, 7))
        som = train_with_state(masked, params).som
        save_model(work / "model.json", som, params,
                   norm_stats=ds.norm_stats, class_names=ds.class_names)

        n_out = int(self.patterns * PREDICT_OUTLIERS)
        held = rng.integers(s.classes, size=self.patterns - n_out)
        bulk = np.vstack([inputs.draw_subspace(rng, gen, held),
                          rng.uniform(0.0, 1.0, size=(n_out, s.dim))])
        truth = np.concatenate([held, np.full(n_out, -1)])
        order = rng.permutation(self.patterns)
        bulk, truth = bulk[order], truth[order]
        inputs.write_csv(work / "bulk.csv", bulk,
                         [names[t] if t >= 0 else "outlier" for t in truth])
        np.savez(work / "bulk.npz", patterns=bulk, truth=truth)
        return {"inputs_bytes": _sizes(work, ["bulk.csv", "model.json"]),
                "patterns": self.patterns, "dim": s.dim,
                "model_nodes": som.n_nodes,
                "model_labeled_nodes": int(np.count_nonzero(som.labels >= 0))}

    def prepare(self, work: Path) -> dict:
        return {"work": work}

    def unit(self, ctx: dict, jobs: int) -> Unit:
        from semisom import cli
        work = ctx["work"]
        out = work / "predictions.csv"

        def predict():
            return cli.main(["predict", str(work / "model.json"),
                             str(work / "bulk.csv"), "-o", str(out),
                             "--quiet"]), None
        unit = run_unit(predict, self.patterns)
        if not unit.failed:
            unit.output = sha256(out)
        return unit

    def same_work(self, a: Unit, b: Unit) -> bool:
        return a.output == b.output

    def check(self, ctx: dict, units: list[Unit]) -> dict:
        from semisom.persistence import load_model
        _same_outputs(units, "prediction files")
        if all(u.output is None for u in units):
            raise CheckFailed("no predict command succeeded")
        work = ctx["work"]
        model = load_model(work / "model.json")
        bulk = np.load(work / "bulk.npz")
        labels = check_predictions(work / "predictions.csv",
                                   expected_labels(model, bulk["patterns"]))
        truth = bulk["truth"]
        held = truth >= 0
        hits = sum(label == model.class_names[t]
                   for label, t in zip(labels, truth) if t >= 0)
        accuracy = hits / int(held.sum())
        rejected = np.array([label == "REJECTED" for label in labels])
        return {"accuracy": accuracy,
                "named": {
                    "predict.patterns_per_s": (throughput(units),
                                               "patterns/s"),
                    "predict.accuracy": (accuracy, "ratio"),
                    "predict.rejected_outliers": (
                        float(rejected[~held].mean()), "ratio"),
                    "predict.rejected_held_out": (
                        float(rejected[held].mean()), "ratio")}}


WORKLOADS = {w.name: w for w in (SweepC5, TrainSubspace, PredictBulk)}
