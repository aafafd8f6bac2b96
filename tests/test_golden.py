"""Golden outputs: three small command recipes whose bytes must not change.

Each recipe runs ``semisom train``, ``sweep`` or ``predict`` on a small
generated data set and returns the bytes the command writes: the model
JSON, ``results.csv`` without its ``runtime_ms`` column, and the
predictions CSV. ``golden.json`` holds the sha256 of each, together with
the platform and the numpy and scipy series it was computed on;
``scripts/golden.py`` recomputes it. Every recipe must give the recorded
bytes on both kernel paths, compiled and numpy.

The outputs depend on the C library's ``exp``, which both kernel paths
call, and on numpy's and scipy's float kernels. On another platform or
series the tests skip and say so; there the compiled-vs-numpy equality
tests of ``test_kernel.py`` remain the check.
"""

import csv
import hashlib
import io
import json
import sysconfig
from pathlib import Path

import numpy as np
import pytest
import scipy

from semisom import _kernel
from semisom import (HyperParams, mask_labels, normalize, save_model,
                     train_with_state)
from semisom.cli import main
from helpers import make_synthetic

GOLDEN = Path(__file__).with_name("golden.json")


def environment() -> dict:
    """What the golden bytes depend on besides the code."""
    def series(version: str) -> str:
        return ".".join(version.split(".")[:2])
    return {"platform": sysconfig.get_platform(),
            "numpy": series(np.__version__), "scipy": series(scipy.__version__)}


def _run(*argv) -> None:
    assert main([*map(str, argv), "--quiet"]) == 0


def _write_table(path: Path, patterns, tags) -> None:
    """ARFF or CSV by suffix; ``tags`` are the class names, one per row."""
    dims = [f"f{i}" for i in range(patterns.shape[1])]
    rows = [",".join(map(repr, row)) + "," + tag
            for row, tag in zip(patterns.tolist(), tags)]
    if path.suffix == ".arff":
        head = ["@relation golden"]
        head += [f"@attribute {d} numeric" for d in dims]
        head += ["@attribute class {" + ",".join(sorted(set(tags))) + "}",
                 "@data"]
    else:
        head = [",".join(dims + ["class"])]
    path.write_text("\n".join(head + rows) + "\n", encoding="utf-8")


def recipe_train(tmp: Path) -> bytes:
    """A fully labeled map: supervised steps, pushes and insertions."""
    ds = make_synthetic(n=240, dim=8, seed=21)
    _write_table(tmp / "train.arff", ds.patterns,
                 [ds.class_names[c] for c in ds.labels])
    _run("train", tmp / "train.arff", "-o", tmp / "model.json",
         "--epochs", 3, "--age-wins", 480, "--seed", 11)
    return (tmp / "model.json").read_bytes()


def recipe_sweep(tmp: Path) -> bytes:
    """Half the c5 set, two parameter samples, two folds, two fractions."""
    ds = make_synthetic(n=150, seed=404)
    _write_table(tmp / "c5.arff", ds.patterns,
                 [ds.class_names[c] for c in ds.labels])
    _run("sweep", tmp / "c5.arff", "-o", tmp / "sweep", "--samples", 2,
         "--repeats", 1, "--folds", 2, "--fractions", "0.1,1.0",
         "--seed", 3, "--jobs", 1)
    with (tmp / "sweep" / "results.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("runtime_ms")
    out = io.StringIO()
    csv.writer(out).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return out.getvalue().encode()


def recipe_predict(tmp: Path) -> bytes:
    """A 30 %-labeled map on held-out patterns and uniform outliers."""
    ds = make_synthetic(n=600, dim=8, seed=5)
    train = normalize(type(ds)(ds.patterns[::2], ds.labels[::2],
                               ds.class_names, ds.dim_names))
    params = HyperParams(a_t=0.95, lp=0.005, beta=0.1, age_wins=600,
                         e_b=0.1, push_rate=0.01, e_n=0.005, eps_beta=0.05,
                         minwd=0.25, epochs=3, n_max=300, seed=12)
    som = train_with_state(mask_labels(train, 0.3, seed=9), params).som
    save_model(tmp / "model.json", som, params, norm_stats=train.norm_stats,
               class_names=train.class_names)
    outliers = np.random.default_rng(6).uniform(0.0, 1.0, size=(60, 8))
    _write_table(tmp / "bulk.csv",
                 np.vstack([ds.patterns[1::2], outliers]),
                 [ds.class_names[c] for c in ds.labels[1::2]]
                 + ["outlier"] * len(outliers))
    _run("predict", tmp / "model.json", tmp / "bulk.csv",
         "-o", tmp / "predictions.csv")
    return (tmp / "predictions.csv").read_bytes()


RECIPES = {"train": recipe_train, "sweep": recipe_sweep,
           "predict": recipe_predict}


@pytest.mark.parametrize("name", sorted(RECIPES))
@pytest.mark.builds("clones", "numpy", ids=["compiled", "numpy"])
def test_golden_output(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    env = environment()
    recorded = {key: expected[key] for key in env}
    if recorded != env:
        pytest.skip(f"golden bytes recorded on {recorded}, running on {env}; "
                    f"the compiled-vs-numpy equality tests of test_kernel.py "
                    f"remain the check here")
    digest = hashlib.sha256(RECIPES[name](tmp_path)).hexdigest()
    assert digest == expected["sha256"]


# The sha256 of the predictions the benchmark's predict-bulk workload
# (perfbench/workloads.py) writes for seed 3, recorded where golden.json
# records the predict recipe.
PREDICT_BULK_SEED_3 = ("90be5f3d744248df899c7d8efdab409a"
                       "33601e0d592e3f3ff49a89cb30778443")


def test_predict_bulk_seed_3_keeps_its_predictions(tmp_path, monkeypatch):
    """The benchmark's seed-3 predictions, 20,000 rows from a model of
    ~400 nodes, keep their bytes through the compiled writer and through
    the ``%`` pass it mirrors."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["predict"]
    env = environment()
    if {key: recorded[key] for key in env} != env:
        pytest.skip(f"predictions recorded on {recorded}, running on {env}")
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench.workloads import PredictBulk
    PredictBulk().setup(tmp_path, tmp_path, 3)
    for writer in ("compiled", "%"):
        if writer == "%":
            monkeypatch.setattr(_kernel, "format_predictions",
                                lambda *args: None)
        out = tmp_path / "predictions.csv"
        _run("predict", tmp_path / "model.json", tmp_path / "bulk.csv",
             "-o", out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PREDICT_BULK_SEED_3, writer
