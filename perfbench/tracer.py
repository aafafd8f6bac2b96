"""In-memory tracing of calls into semisom, installed from benchmark code.

``SomMap`` kernels are wrapped at class level; module functions are wrapped
at the name their caller resolves (``semisom.cli.load_csv``, not
``semisom.data.load_csv``), so nothing under ``src/semisom`` changes. The
kernels run about a million times per sweep, so they are recorded as
aggregated count, total and self time; only coarse stages (measured unit,
training run, growth and convergence phase) become spans with parent links.
Everything stays in memory until ``dump``.

Self time is a call's duration minus the durations of the traced calls it
made. The bookkeeping of a wrapper counts as time of the caller's child, so
a parent's self time excludes the tracing cost of its children.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self.runtimes_ms: list[float] = []
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._stack: list[float] = []  # child time of each open timed call
        self._phase: str | None = None
        self._phase_span: int | None = None
        self._acts_key = None
        self._last_acts = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": self._open[-1]
                           if self._open else None, "name": name,
                           "start": clock(), "end": None, **attrs})
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = clock()
        self._open.remove(sid)

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.begin(name, **attrs)
        try:
            yield sid
        finally:
            self.end(sid)

    # -- wrappers ------------------------------------------------------

    def _timed(self, name: str, fn, hook=None):
        stat = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
            if hook is not None:
                hook(args, kwargs, result)
            if stack:
                stack[-1] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks run after the wrapped call, outside its timed region

    def _after_find_winner(self, args, kwargs, result):
        som = args[0]
        n = som.n_nodes
        counts = self.counts
        counts["find_winner.nodes"] += n
        counts["find_winner.bytes"] += n * som.dim * 8 * 2
        if self._phase is not None:
            counts["presentations." + self._phase] += 1

    def _after_activations(self, args, kwargs, result):
        self._acts_key = args[1]
        self._last_acts = result

    def _after_run_sweep(self, args, kwargs, result):
        self.runtimes_ms.extend(r.runtime_ms for r in result)
        self.counts["run_sweep.jobs"] = kwargs.get("jobs", 1) or 1

    def _after_load_csv(self, args, kwargs, result):
        self.counts["load_csv.bytes"] += os.path.getsize(args[0])

    def _after_save_model(self, args, kwargs, result):
        self.counts["save_model.bytes"] += os.path.getsize(args[0])

    def _after_classify(self, args, kwargs, result):
        if result.label == self._rejected:
            self.counts["classify.rejected"] += 1
            return
        som, x = args[0], args[1]
        acts = (self._last_acts if self._acts_key is x
                else self._unwrapped_activations(som, x))
        if result.node != int(np.argmax(acts)):
            self.counts["classify.fallback"] += 1

    def _wrap_train(self, fn):
        timed = self._timed("training.train_with_state", fn)

        def train_with_state(*args, **kwargs):
            run = self.begin("train_run", patterns=len(args[0]))
            self._phase = "growth"
            self._phase_span = self.begin("growth")
            try:
                return timed(*args, **kwargs)
            finally:
                if self._phase_span is not None:
                    self.end(self._phase_span)
                self._phase = self._phase_span = None
                self.end(run)

        train_with_state.__wrapped__ = fn
        return train_with_state

    def _wrap_convergence(self, fn):
        stat = self.stats["training.convergence_phase"]

        def convergence_phase(*args, **kwargs):
            stat.calls += 1
            if self._phase_span is not None:
                self.end(self._phase_span)
            self._phase = "convergence"
            self._phase_span = self.begin("convergence")
            return fn(*args, **kwargs)

        convergence_phase.__wrapped__ = fn
        return convergence_phase

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap the traced entry points; ``uninstall`` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from semisom import cli, experiments, inference, training
        from semisom.model import SomMap

        self._unwrapped_activations = SomMap.activations
        for method, hook in (
                ("find_winner", self._after_find_winner),
                ("activations", self._after_activations),
                ("update_nodes", None), ("update_node", None),
                ("find_winner_for_class", None), ("rewire_node", None),
                ("rebuild_connections", None), ("add_node", None),
                ("keep_nodes", None)):
            self._patch(SomMap, method, self._timed(
                "model." + method, getattr(SomMap, method), hook))

        for name in ("insert_node", "supervised_step", "unsupervised_step"):
            self._patch(training, name, self._counted(
                "training." + name, getattr(training, name)))
        self._patch(training, "handle_reset", self._timed(
            "training.handle_reset", training.handle_reset))
        self._patch(training, "convergence_phase",
                    self._wrap_convergence(training.convergence_phase))

        train = self._wrap_train(training.train_with_state)
        for module in (training, experiments, cli):
            self._patch(module, "train_with_state", train)
        self._rejected = inference.REJECTED
        classify = self._timed("inference.classify", inference.classify,
                               self._after_classify)
        for module in (inference, experiments, cli):
            self._patch(module, "classify", classify)

        self._patch(experiments, "run_sweep", self._timed(
            "experiments.run_sweep", experiments.run_sweep,
            self._after_run_sweep))
        for name, hook in (("load_arff", None),
                           ("load_csv", self._after_load_csv),
                           ("normalize", None), ("apply_norm", None)):
            self._patch(cli, name, self._timed(
                "data." + name, getattr(cli, name), hook))
        self._patch(cli, "save_model", self._timed(
            "persistence.save_model", cli.save_model, self._after_save_model))
        self._patch(cli, "load_model", self._timed(
            "persistence.load_model", cli.load_model))
        for name in ("cmd_train", "cmd_predict"):
            self._patch(cli, name, self._timed(
                "cli." + name, getattr(cli, name)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def per_layer(self, units: int, import_s: float,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and times per traced unit.

        ``units`` is the number of traced measured units, each the same
        work as one unit of the untraced run.
        """
        s, c = self.stats, self.counts
        per = 1.0 / units

        def calls(name):
            return s[name].calls * per, "count"

        def us_per_call(name):
            st = s[name]
            return (st.total / st.calls * 1e6 if st.calls else 0.0), "us"

        def self_s(name):
            return s[name].self_time * per, "s"

        def total_s(name):
            return s[name].total * per, "s"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        fw = s["model.find_winner"]
        presentations = (c["presentations.growth"]
                         + c["presentations.convergence"])
        classify = s["inference.classify"]
        sweep = s["experiments.run_sweep"]
        runtimes = self.runtimes_ms or [0.0]
        csv_load = s["data.load_csv"]
        m = {
            "model.find_winner.calls": calls("model.find_winner"),
            "model.find_winner.us_per_call": us_per_call("model.find_winner"),
            "model.find_winner.nodes_mean": (
                c["find_winner.nodes"] / fw.calls if fw.calls else 0.0,
                "nodes"),
            "model.find_winner.bytes_computed": (
                c["find_winner.bytes"] * per, "bytes"),
        }
        for name in ("update_nodes", "update_node", "activations"):
            m[f"model.{name}.calls"] = calls("model." + name)
            m[f"model.{name}.us_per_call"] = us_per_call("model." + name)
        for name in ("find_winner_for_class", "rewire_node",
                     "rebuild_connections"):
            m[f"model.{name}.calls"] = calls("model." + name)
            m[f"model.{name}.self_s"] = self_s("model." + name)
        m["model.add_node.calls"] = calls("model.add_node")
        m["model.keep_nodes.calls"] = calls("model.keep_nodes")

        tws = s["training.train_with_state"]
        m["training.train_with_state.self_s"] = self_s(
            "training.train_with_state")
        m["training.presentations.growth"] = (
            c["presentations.growth"] * per, "count")
        m["training.presentations.convergence"] = (
            c["presentations.convergence"] * per, "count")
        m["training.us_per_presentation"] = (
            tws.total / presentations * 1e6 if presentations else 0.0, "us")
        m["training.handle_reset.calls"] = calls("training.handle_reset")
        m["training.handle_reset.self_s"] = self_s("training.handle_reset")
        for name in ("insert_node", "supervised_step", "unsupervised_step"):
            m[f"training.{name}.calls"] = calls("training." + name)

        m["inference.classify.calls"] = calls("inference.classify")
        m["inference.classify.us_per_call"] = us_per_call(
            "inference.classify")
        m["inference.rejected_ratio"] = ratio(c["classify.rejected"],
                                              classify.calls)
        m["inference.fallback_ratio"] = ratio(c["classify.fallback"],
                                              classify.calls)

        m["experiments.run_sweep.s"] = total_s("experiments.run_sweep")
        m["experiments.run_ms.p50"] = (float(np.percentile(runtimes, 50)),
                                       "ms")
        m["experiments.run_ms.p90"] = (float(np.percentile(runtimes, 90)),
                                       "ms")
        m["experiments.parallel_efficiency"] = ratio(
            sum(self.runtimes_ms) / 1e3,
            c["run_sweep.jobs"] * sweep.total)
        # classification time inside sweep runs over the sweep's wall time
        m["experiments.eval_share"] = ratio(
            classify.total if sweep.calls else 0.0, sweep.total)

        m["data.load_arff.s"] = total_s("data.load_arff")
        m["data.load_csv.s"] = total_s("data.load_csv")
        m["data.load_csv.mb_per_s"] = (
            c["load_csv.bytes"] / csv_load.total / 1e6
            if csv_load.total else 0.0, "MB/s")
        m["data.normalize.s"] = total_s("data.normalize")
        m["data.apply_norm.s"] = total_s("data.apply_norm")
        m["persistence.save_model.s"] = total_s("persistence.save_model")
        m["persistence.save_model.bytes"] = (c["save_model.bytes"] * per,
                                             "bytes")
        m["persistence.load_model.s"] = total_s("persistence.load_model")
        m["cli.import_s"] = (import_s, "s")
        m["cli.cmd_predict.self_s"] = self_s("cli.cmd_predict")
        m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return m

    def dump(self, path) -> None:
        doc = {
            "stats": {name: {"calls": st.calls, "total_s": st.total,
                             "self_s": st.self_time}
                      for name, st in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
