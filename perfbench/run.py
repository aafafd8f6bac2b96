"""semisom benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-c5 --seed 1 --seconds 24

Workloads: ``sweep-c5``, ``train-subspace``, ``predict-bulk`` (see
``workloads.py`` for why each exists). The run

1. sets up ``SETUP_REPS`` times (a fresh-interpreter ``import semisom`` plus
   the workload's seeded inputs) and reports the median as ``setup_s``;
2. runs the measured stage (``measure.py``) in a fresh interpreter for
   ``--seconds`` seconds of whole units, then checks the outputs;
3. prints the named figures, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A full record of the run, with the environment, goes to
``.perfbench_out/``; a traced run also leaves its spans and counters there.
Without ``src/semisom`` in the current directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process started from here,
# so that two pool workers do not oversubscribe two cores.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPS = 3
# A run must end within 180 s; the measured stage is stopped before that.
RUN_LIMIT_S = 175.0
OUT_DIR = ".perfbench_out"


def time_import(root: Path) -> float:
    """Wall time of ``import semisom`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import semisom"], env=env,
                   check=True, cwd=root)
    return time.perf_counter() - started


def _cache_size(level: int) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            return None
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "semisom" / "__init__.py").is_file():
        print(f"error: no src/semisom under {root}; run from the root of a "
              f"semisom checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS, CheckFailed
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)

    out_dir = root / OUT_DIR
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    run_started = time.perf_counter()
    try:
        setups, imports, spans, info = [], [], [], {}
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            imports.append(time_import(root))
            try:
                info = workload.setup(root, work, args.seed)
            except CheckFailed as exc:
                print(f"error: set-up: {exc}", file=sys.stderr)
                return 1
            spans.append((started, time.perf_counter()))
            setups.append(spans[-1][1] - started)
        setup_s = statistics.median(setups)
        import_s = statistics.median(imports)

        stage_out = work / "measure.json"
        cmd = [sys.executable, str(root / "perfbench" / "measure.py"),
               "--workload", args.workload, "--work", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--import-s", repr(import_s), "--out", str(stage_out)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(
            cmd, cwd=root, stdout=sys.stderr,
            timeout=RUN_LIMIT_S - (time.perf_counter() - run_started))
        if proc.returncode != 0 or not stage_out.exists():
            print(f"error: measured stage exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        stage = json.loads(stage_out.read_text(encoding="utf-8"))

        if args.trace:
            metrics = stage["per_layer"]
            trace = json.loads((work / "trace.json").read_text("utf-8"))
            # perf_counter is CLOCK_MONOTONIC, shared with the stage process
            trace["spans"] += [
                {"id": len(trace["spans"]) + i, "parent": None,
                 "name": "setup", "start": start, "end": end}
                for i, (start, end) in enumerate(spans)]
            (out_dir / f"trace-{tag}.json").write_text(
                json.dumps(trace, indent=1), encoding="utf-8")
        else:
            ok = stage["attempted"] - stage["failed"]
            metrics = {
                "setup_s": (setup_s, "s"),
                "throughput": (stage["throughput"] or 0.0, "op/s"),
                "accuracy": (stage["accuracy"] or 0.0, "ratio"),
                "peak_rss_mb": (stage["peak_rss_mb"], "MB"),
                "success_ratio": (ok / stage["attempted"], "ratio"),
            }
        correct = not stage["failures"]
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": environment(root), "setup": info,
                  "setup_runs_s": setups, "import_runs_s": imports,
                  "stage": stage, "correct": correct}
        (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                             encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = record["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"L2={env['l2_cache']} L3={env['l3_cache']} sha={env['git_sha']}")
    print(f"inputs: {json.dumps(info)}")
    for failure in stage["failures"]:
        print(f"CHECK FAILED: {failure}")
    named = dict(stage["named"])
    named["setup_s"] = (setup_s, "s")
    named["peak_rss_mb"] = (stage["peak_rss_mb"], "MB")
    named["failed_ratio"] = (stage["failed"] / stage["attempted"], "ratio")
    for name, (value, unit) in sorted(named.items()):
        print(f"{name} = {_fmt(value)} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": stage["attempted"],
        "failed": stage["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
