"""Measured stage of one benchmark run, in an interpreter of its own.

``run.py`` starts this after set-up, so the peak RSS it reports covers the
measured units (pool workers included) and not the set-up. It runs whole
units until ``--seconds`` have passed, checks their outputs and writes its
figures as JSON to ``--out``.

With ``--trace 1`` every unit runs twice on identical inputs, first plain
and then traced; the per-layer figures come from the traced copies and the
ratio of the two walls is the tracing overhead. A traced sweep runs on one
process so that all counters stay in this one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def peak_rss_mb(jobs: int) -> float:
    """Own peak RSS plus, per pool worker, the largest worker's peak.

    Only pool workers are children of this process; without a pool the
    children's peak is 0.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * worker) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--import-s", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, CheckFailed, throughput

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    work = Path(args.work)
    ctx = workload.prepare(work)
    tracer = Tracer() if args.trace else None
    jobs = 1 if args.trace else workload.jobs

    units, plain, traced = [], [], []
    stage = tracer.begin("measure") if tracer is not None else None
    started = time.perf_counter()
    index = 0
    while True:
        unit = workload.unit(ctx, jobs)
        units.append(unit)
        if tracer is not None:
            plain.append(unit)
            with tracer.installed(), tracer.span("unit", index=index):
                unit = workload.unit(ctx, jobs)
            units.append(unit)
            traced.append(unit)
        index += 1
        if time.perf_counter() - started >= args.seconds:
            break
    measured_s = time.perf_counter() - started
    if tracer is not None:
        tracer.end(stage)
    rss = peak_rss_mb(jobs)

    failures = []
    quality = {"accuracy": None, "named": {}}
    if tracer is not None:
        for a, b in zip(plain, traced):
            if a.output is not None and b.output is not None \
                    and not workload.same_work(a, b):
                failures.append("traced unit gave other outputs than the "
                                "same unit untraced")
    with tracer.span("check") if tracer is not None else nullcontext():
        try:
            quality = workload.check(ctx, units)
        except CheckFailed as exc:
            failures.append(str(exc))

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "units": len(units),
        "unit_walls": [u.wall for u in units],
        "measured_s": measured_s,
        "throughput": throughput(units),
        "accuracy": quality["accuracy"],
        "named": quality["named"],
        "peak_rss_mb": rss,
    }
    if tracer is not None:
        overhead = (sum(u.wall for u in traced) / sum(u.wall for u in plain)
                    - 1.0)
        result["per_layer"] = tracer.per_layer(len(traced), args.import_s,
                                               overhead)
        tracer.dump(work / "trace.json")
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
