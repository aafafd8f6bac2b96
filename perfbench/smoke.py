"""Smoke check of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke.py

1. Every workload runs at a tiny size, plain and traced, and prints exactly
   the metrics ``BENCHMARK.json`` names, with their units.
2. Every output check rejects a deliberately corrupted output, and a unit
   that raises or exits non-zero counts all its operations as failed.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   run exits non-zero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402
from perfbench.workloads import CheckFailed, Unit  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def expect_check_fails(fn, what: str) -> None:
    try:
        fn()
    except CheckFailed as exc:
        expect(True, f"{what} is rejected ({exc})")
    else:
        expect(False, f"{what} is rejected")


def run_bench(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def tiny_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            code, out = run_bench(ROOT, workload, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace={trace} prints a result")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace} runs and passes its checks")
            expect(got == wanted,
                   f"{workload} trace={trace} prints the {key} metrics")


def corrupted_outputs(work: Path) -> None:
    # sweep: too few runs, and accuracy below the c5 bar
    sweep = wl.SweepC5(tiny=True)
    ctx = sweep.prepare(_setup(sweep, work / "sweep"))
    unit = sweep.unit(ctx, jobs=1)
    expect(sweep.check(ctx, [unit])["accuracy"] >= wl.SWEEP_BAR,
           "sweep check accepts a real sweep")
    expect_check_fails(lambda: wl.check_sweep(
        [Unit(1.0, 8, 0, unit.output[:-1])], 8), "a sweep missing a run")
    poor = [replace(r, accuracy=0.5) for r in unit.output]
    expect_check_fails(lambda: wl.check_sweep(
        [Unit(1.0, len(poor), 0, poor)], len(poor)),
        "a sweep below the accuracy bar")

    # train: model reload, dimension and byte-stable round trip
    train = wl.TrainSubspace(tiny=True)
    ctx = train.prepare(_setup(train, work / "train"))
    units = [train.unit(ctx, 1), train.unit(ctx, 1)]
    train.check(ctx, units)
    expect(True, "train check accepts a real model")
    other = Unit(1.0, 1, 0, "0" * 64)
    expect_check_fails(lambda: train.check(ctx, units + [other]),
                       "a train command giving another model")
    model = ctx["work"] / "model.json"
    dim, classes = train.size.dim, train.size.classes
    expect_check_fails(lambda: wl.check_model_roundtrip(model, dim + 1,
                                                        classes),
                       "a model of the wrong dimension")
    doc = json.loads(model.read_text(encoding="utf-8"))
    model.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    expect_check_fails(lambda: wl.check_model_roundtrip(model, dim, classes),
                       "a model file that does not round-trip byte for byte")

    # predict: one row per input, labels equal to classify_batch
    predict = wl.PredictBulk(tiny=True)
    ctx = predict.prepare(_setup(predict, work / "predict"))
    units = [predict.unit(ctx, 1)]
    predict.check(ctx, units)
    expect(True, "predict check accepts real predictions")
    out = ctx["work"] / "predictions.csv"
    rows = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    expect_check_fails(lambda: predict.check(ctx, units),
                       "predictions missing a row")
    first = rows[1].split(",")
    first[2] = "REJECTED" if first[2] != "REJECTED" else "k0"
    out.write_text("\n".join([rows[0], ",".join(first), *rows[2:]]) + "\n",
                   encoding="utf-8")
    expect_check_fails(lambda: predict.check(ctx, units),
                       "predictions with a wrong label")

    # failed operations: an exception and a non-zero exit code
    def boom():
        raise RuntimeError("deliberate")
    unit = wl.run_unit(boom, 7)
    expect(unit.failed == 7 and unit.output is None,
           "a unit that raises fails all its operations")
    from semisom import cli
    absent = ctx["work"] / "absent.json"
    unit = wl.run_unit(lambda: (cli.main(
        ["predict", str(absent), str(ctx["work"] / "bulk.csv"), "-o",
         str(ctx["work"] / "none.csv"), "--quiet"]), None), 5)
    expect(unit.failed == 5 and unit.output is None,
           "a predict command exiting non-zero fails all its operations")


def _setup(workload, work: Path) -> Path:
    work.mkdir(parents=True)
    workload.setup(ROOT, work, 3)
    return work


def bare_directory(base: Path) -> None:
    bare = base / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench(bare, "sweep-c5", 0)
    expect(code != 0 and not out.strip(),
           "without the program the run exits non-zero and prints nothing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = ROOT / ".perfbench_out" / "smoke"
    shutil.rmtree(base, ignore_errors=True)
    try:
        tiny_runs(spec)
        corrupted_outputs(base)
        bare_directory(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(failures)} smoke failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
