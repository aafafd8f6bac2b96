"""Command-line front end: train, predict, sweep, inspect.

Exit codes: 0 success, 1 usage or parameter error, 2 data error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import _kernel
from .data import (DataFormatError, Dataset, _utf8_text, apply_norm,
                   kfold_split, load_arff, load_csv, normalize)
from .experiments import (FRACTIONS, emit_curve, emit_curve_svg, emit_results,
                          run_sweep, summarize_curve)
# ``classify`` stays importable from here: perfbench/tracer.py wraps it by
# this module's name.
from .inference import REJECTED, _classify_arrays, classify  # noqa: F401
from .model import NO_CLASS, HyperParams
from .persistence import FORMAT_VERSION, load_model, save_model
from .training import train_with_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_PARAM_ALIASES = {"e_w": "push_rate"}
_PARAM_FIELDS = tuple(f.name for f in fields(HyperParams))
_INT_FIELDS = {f.name for f in fields(HyperParams) if f.type in ("int", int)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_dataset(path: str, label_column: str | None = None) -> Dataset:
    suffix = Path(path).suffix.lower()
    if suffix == ".arff":
        return load_arff(path)
    if suffix == ".csv":
        return load_csv(path, label_column)
    raise DataFormatError(f"{path}: unsupported extension {suffix!r} "
                          f"(expected .arff or .csv)")


def _read_params_file(path: str) -> dict:
    values = {}
    text = _utf8_text(path, Path(path).read_bytes())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"{path}:{lineno}: expected 'name = value'")
        key = _PARAM_ALIASES.get(key.strip(), key.strip())
        if key not in _PARAM_FIELDS:
            raise DataFormatError(f"{path}:{lineno}: unknown parameter "
                                  f"{key!r}")
        if key in values:
            raise DataFormatError(f"{path}:{lineno}: duplicate parameter "
                                  f"{key!r}")
        try:
            values[key] = (int(value.strip()) if key in _INT_FIELDS
                           else float(value.strip()))
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: bad value {value.strip()!r}") from None
    return values


def _build_params(args, n_patterns: int) -> HyperParams:
    values = {
        "a_t": 0.95, "lp": 0.005, "beta": 0.1, "age_wins": 10 * n_patterns,
        "e_b": 0.1, "push_rate": 0.01, "e_n": 0.005, "eps_beta": 0.05,
        "minwd": 0.25, "epochs": 10, "n_max": n_patterns, "seed": 0,
    }
    if args.params_file:
        values.update(_read_params_file(args.params_file))
    for name in _PARAM_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    params = HyperParams(**values)
    params.validate()
    return params


def _print_coverage(som, class_names) -> None:
    """Print the number of nodes of each class, by class name."""
    coverage = Counter(class_names[l] for l in som.labels if l != NO_CLASS)
    for name, count in sorted(coverage.items()):
        print(f"  {name}: {count} nodes")


def cmd_train(args) -> int:
    ds = normalize(_load_dataset(args.data, args.label_column))
    params = _build_params(args, len(ds))
    state = train_with_state(ds, params)
    som = state.som
    save_model(args.out, som, params, norm_stats=ds.norm_stats,
               class_names=ds.class_names)
    if not args.quiet:
        labeled = int(np.count_nonzero(som.labels != NO_CLASS))
        print(f"trained map: {som.n_nodes} nodes ({labeled} labeled), "
              f"{len(som.connections)} connections")
        _print_coverage(som, ds.class_names)
        print(f"model written to {args.out}")
    return EXIT_OK


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields
    (alone in a row, an empty field is written ``""``)."""
    fh = io.StringIO()
    csv.writer(fh, lineterminator="").writerow((text, ""))
    return fh.getvalue()[:-1]


_PREDICTIONS_HEADER = b"pattern_index,node_id,label,activation\r\n"


def _write_predictions(path: Path, node: np.ndarray, pick: np.ndarray,
                       texts: list[str], act: np.ndarray, n_nodes: int):
    """Write the predictions file: a header, then for pattern i the row
    ``"%d,%s,%s,%.6g\\r\\n" % (i, node id, texts[pick[i]], act[i])``, as
    ``csv.writer`` would write it (each text is a class name rendered by
    ``_csv_field``), and no node id for a rejection (node -1), in UTF-8.

    The compiled writer makes the rows' bytes in one call; where it
    declines (no library, a value it does not write, a text UTF-8 cannot
    encode), the ``%`` pass below, its mirror, makes them.
    """
    try:
        body = _kernel.format_predictions(node, pick,
                                          [t.encode() for t in texts], act)
    except UnicodeEncodeError:  # a lone surrogate, which the pass refuses too
        body = None
    if body is None:  # one formatting pass over all rows
        rows = [None] * (4 * len(node))
        rows[0::4] = range(len(node))
        rows[1::4] = np.array([*map(str, range(n_nodes)), ""],
                              dtype=object)[node].tolist()
        rows[2::4] = np.array(texts, dtype=object)[pick].tolist()
        rows[3::4] = act.tolist()
        body = (("%d,%s,%s,%.6g\r\n" * len(node)) % tuple(rows)).encode()
    with path.open("wb") as fh:
        fh.write(_PREDICTIONS_HEADER)
        fh.write(body)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = _load_dataset(args.data, args.label_column)
    if ds.dim != model.som.dim:
        raise DataFormatError(
            f"{args.data}: {ds.dim} dimensions, model expects "
            f"{model.som.dim}")
    patterns = (ds.patterns if model.norm_stats is None
                else apply_norm(model.norm_stats, ds.patterns))
    node, label, act = _classify_arrays(model.som, patterns,
                                        model.params.a_t)
    classes = [*model.class_names, "REJECTED"]
    pick = np.where(label == REJECTED, len(model.class_names), label)
    names = np.array(classes, dtype=object)[pick]
    truth = ds.labels != NO_CLASS
    scored = np.count_nonzero(truth)
    hits = np.count_nonzero(
        names[truth] == np.array(ds.class_names, dtype=object)[
            ds.labels[truth]])
    _write_predictions(Path(args.out), node, pick,
                       [_csv_field(c) for c in classes], act,
                       model.som.n_nodes)
    if not args.quiet:
        print(f"predictions written to {args.out}")
        if scored:
            print(f"accuracy on {scored} labeled patterns: "
                  f"{hits / scored:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    ds = normalize(_load_dataset(args.data, args.label_column))
    if ds.n_labeled < len(ds):
        raise DataFormatError(
            f"{args.data}: sweep needs full ground-truth labels")
    fractions = tuple(float(f) for f in args.fractions.split(","))
    plan = kfold_split(ds, args.repeats, args.folds, args.seed or 0)
    results = run_sweep(ds, plan, fractions, n_samples=args.samples,
                        seed=args.seed or 0, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_results(results, out_dir / "results.csv")
    points = summarize_curve(results)
    emit_curve(points, out_dir / "curve.csv")
    if args.svg:
        emit_curve_svg(points, out_dir / "curve.svg")
    if not args.quiet:
        print(f"{len(results)} runs written to {out_dir / 'results.csv'}")
        for p in points:
            print(f"  fraction {p.fraction:g}: best accuracy "
                  f"{p.mean_best_accuracy:.4f} "
                  f"(std {p.std_best_accuracy:.4f})")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    som = model.som
    labeled = int(np.count_nonzero(som.labels != NO_CLASS))
    print(f"format version: {FORMAT_VERSION}")
    print(f"dimensions: {som.dim}")
    print(f"nodes: {som.n_nodes} ({labeled} labeled)")
    print(f"connections: {len(som.connections)}")
    _print_coverage(som, model.class_names)
    print("params:")
    for name in _PARAM_FIELDS:
        print(f"  {name} = {getattr(model.params, name)}")
    return EXIT_OK


def _int_from(low: int):
    """An argparse type for the integers ``>= low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_from(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="semisom",
                     description="Semi-supervised self-organizing map")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several commands read; each command registers those it reads
    shared = {
        "seed": dict(type=_int_from(0), default=None,
                     help="master random seed"),
        "jobs": dict(type=_positive_int, default=None,
                     help="sweep runs in flight at once, on threads "
                          "(default: one per core); set "
                          "OPENBLAS_NUM_THREADS=1 when above 1"),
        "quiet": dict(action="store_true", help="suppress progress output"),
        "label-column": dict(default=None,
                             help="CSV column holding class labels"),
    }

    def common(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p_train = sub.add_parser("train", help="train a map and save it")
    common(p_train, "seed", "quiet", "label-column")
    p_train.add_argument("data", help="dataset file (.arff or .csv)")
    p_train.add_argument("-o", "--out", required=True,
                         help="output model path (JSON)")
    p_train.add_argument("--params-file", default=None,
                         help="file of 'name = value' parameter lines")
    for name in _PARAM_FIELDS:
        if name == "seed":
            continue
        p_train.add_argument(f"--{name.replace('_', '-')}", dest=name,
                             type=int if name in _INT_FIELDS else float,
                             default=None)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify patterns with a model")
    common(p_pred, "quiet", "label-column")
    p_pred.add_argument("model", help="model file from 'train'")
    p_pred.add_argument("data", help="dataset file (.arff or .csv)")
    p_pred.add_argument("-o", "--out", required=True,
                        help="output predictions CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep",
                             help="cross-validated hyperparameter search")
    common(p_sweep, "seed", "jobs", "quiet", "label-column")
    p_sweep.add_argument("data", help="fully labeled dataset file")
    p_sweep.add_argument("-o", "--out-dir", required=True,
                         help="directory for results.csv / curve.csv")
    p_sweep.add_argument("--samples", type=_positive_int, default=50,
                         help="Latin Hypercube sample count")
    p_sweep.add_argument("--repeats", type=_positive_int, default=3)
    p_sweep.add_argument("--folds", type=_positive_int, default=3,
                         help="folds per repeat, at least 2")
    p_sweep.add_argument("--fractions",
                         default=",".join(str(f) for f in FRACTIONS),
                         help="comma-separated supervision fractions")
    p_sweep.add_argument("--svg", action="store_true",
                         help="also render curve.svg")
    p_sweep.set_defaults(func=cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="print a model summary")
    p_inspect.add_argument("model", help="model file from 'train'")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        if isinstance(exc, DataFormatError):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
