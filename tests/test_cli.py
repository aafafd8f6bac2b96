import csv
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semisom
from semisom import (REJECTED, HyperParams, apply_norm, mask_labels,
                     normalize, save_model, train_with_state)
from semisom import _kernel
from semisom.cli import (_csv_field, _read_params_file, _write_predictions,
                         main)
from helpers import make_synthetic, reference_classify

ARFF = """@relation toy
@attribute f1 numeric
@attribute f2 numeric
@attribute class {red,blue}
@data
0.10,0.20,red
0.15,0.22,red
0.12,0.18,red
0.11,0.24,red
0.80,0.85,blue
0.82,0.80,blue
0.78,0.88,blue
0.81,0.79,blue
"""

TRAIN_ARGS = ["--epochs", "15", "--age-wins", "40", "--seed", "3", "--quiet"]


@pytest.fixture
def arff_path(tmp_path):
    path = tmp_path / "toy.arff"
    path.write_text(ARFF, encoding="utf-8")
    return path


def test_import_leaves_scipy_stats_and_special_unloaded():
    """``import semisom`` loads neither scipy.stats nor scipy.special.

    Together they take over a second to import, which every command would
    pay; only ``lhs_unit`` and the numpy kernels need them, on first use.
    """
    src = str(Path(semisom.__file__).parents[1])
    code = ("import sys, semisom; print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.special')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["[]"]


def test_train_writes_model(arff_path, tmp_path):
    out = tmp_path / "model.json"
    assert main(["train", str(arff_path), "-o", str(out)] + TRAIN_ARGS) == 0
    assert out.exists()
    assert '"format": "semisom-model"' in out.read_text()


def test_train_same_seed_gives_identical_files(arff_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["train", str(arff_path), "-o", str(a)] + TRAIN_ARGS) == 0
    assert main(["train", str(arff_path), "-o", str(b)] + TRAIN_ARGS) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_invalid_threshold(arff_path, tmp_path, capsys):
    code = main(["train", str(arff_path), "-o", str(tmp_path / "m.json"),
                 "--a-t", "1.5"])
    assert code == 1
    assert "a_t" in capsys.readouterr().err


def test_train_reads_params_file(arff_path, tmp_path):
    pfile = tmp_path / "params.txt"
    pfile.write_text("a_t = 0.9\nepochs = 5\ne_w = 0.02\n# comment\n",
                     encoding="utf-8")
    out = tmp_path / "m.json"
    assert main(["train", str(arff_path), "-o", str(out), "--params-file",
                 str(pfile), "--quiet", "--seed", "1"]) == 0
    text = out.read_text()
    assert '"a_t": 0.9' in text and '"push_rate": 0.02' in text


def test_params_file_with_a_byte_order_mark(tmp_path):
    """Excel and Notepad may start a UTF-8 file with U+FEFF; it is not part
    of the first parameter's name."""
    pfile = tmp_path / "params.txt"
    pfile.write_text("\ufeffa_t = 0.9\nepochs = 5\n", encoding="utf-8")
    assert _read_params_file(pfile) == {"a_t": 0.9, "epochs": 5}


@pytest.mark.parametrize("name", ["push_rate", "e_w"])
def test_params_file_naming_a_parameter_twice_is_a_data_error(
        arff_path, tmp_path, capsys, name):
    pfile = tmp_path / "params.txt"
    pfile.write_text(f"a_t = 0.9\n{name} = 0.1\n\npush_rate = 0.2\n")
    assert main(["train", str(arff_path), "-o", str(tmp_path / "m.json"),
                 "--params-file", str(pfile), "--quiet"]) == 2
    assert ":4: duplicate parameter 'push_rate'" in capsys.readouterr().err


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = main(["train", str(tmp_path / "nope.arff"), "-o",
                 str(tmp_path / "m.json")])
    assert code == 2


def test_train_rejects_non_finite_data(tmp_path, capsys):
    csv_path = tmp_path / "nan.csv"
    csv_path.write_text("f1,f2\n0.1,0.2\nnan,0.4\n0.5,inf\n",
                        encoding="utf-8")
    out = tmp_path / "m.json"
    assert main(["train", str(csv_path), "-o", str(out), "--quiet"]) == 2
    assert "nan.csv:3" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["train"]) == 1


def test_predict_round_trip(arff_path, tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(arff_path), "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "pattern_index,node_id,label,activation"
    assert len(lines) == 9
    assert "accuracy" in capsys.readouterr().out


def test_predict_unlabeled_model_rejects_everything(tmp_path):
    csv_path = tmp_path / "plain.csv"
    rows = "\n".join(f"{a:.2f},{b:.2f}" for a, b in
                     np.random.default_rng(0).random((8, 2)))
    csv_path.write_text("f1,f2\n" + rows + "\n", encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", str(csv_path), "-o", str(model), "--quiet",
                 "--epochs", "5", "--age-wins", "20", "--seed", "1"]) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(csv_path), "-o", str(out)]) == 0
    body = out.read_text().strip().split("\n")[1:]
    assert all(line.split(",")[2] == "REJECTED" for line in body)


def test_predict_dimension_mismatch_is_data_error(arff_path, tmp_path):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    wide = tmp_path / "wide.csv"
    wide.write_text("f1,f2,f3\n0.1,0.2,0.3\n", encoding="utf-8")
    assert main(["predict", str(model), str(wide), "-o",
                 str(tmp_path / "p.csv")]) == 2


def test_predict_inconsistent_model_is_data_error(arff_path, tmp_path,
                                                  capsys):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["nodes"][0]["label"] = len(doc["classes"])
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["predict", str(model), str(arff_path), "-o",
                 str(tmp_path / "p.csv")]) == 2
    assert "node 0 has label 2" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda text: text[:-30], "not valid JSON", id="not-json"),
    pytest.param(lambda text: text.replace('"wins"', '"won"', 1),
                 "missing key 'wins'", id="missing-key"),
    pytest.param(lambda text: json.dumps({**json.loads(text),
                                          "connections": [[0, 999]]}),
                 "connection (0, 999) names a node outside",
                 id="dead-connection"),
])
def test_predict_malformed_model_is_data_error(arff_path, tmp_path, capsys,
                                               edit, message):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    model.write_text(edit(model.read_text(encoding="utf-8")),
                     encoding="utf-8")
    assert main(["predict", str(model), str(arff_path), "-o",
                 str(tmp_path / "p.csv")]) == 2
    assert message in capsys.readouterr().err


def test_predict_output_matches_per_pattern_reference(tmp_path, capsys):
    raw = make_synthetic(n=400, dim=12, clusters=4, seed=21)
    ds = normalize(raw)
    params = HyperParams(a_t=0.95, lp=0.001, beta=0.1, age_wins=800,
                         e_b=0.1, push_rate=0.01, e_n=0.005, eps_beta=0.05,
                         minwd=0.25, epochs=2, n_max=len(ds), seed=4)
    som = train_with_state(mask_labels(ds, 0.3, seed=5), params).som
    model = tmp_path / "model.json"
    save_model(model, som, params, norm_stats=ds.norm_stats,
               class_names=ds.class_names)
    rng = np.random.default_rng(8)
    probes = np.vstack([raw.patterns[::2], rng.random((100, raw.dim))])
    tags = [raw.class_names[k] for k in raw.labels[::2]] + ["outlier"] * 100
    data = tmp_path / "probes.csv"
    with data.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(raw.dim_names) + ["class"])
        writer.writerows([repr(v) for v in row] + [tag]
                         for row, tag in zip(probes.tolist(), tags))
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(data), "-o", str(out)]) == 0

    # Built row by row, formatted as the per-pattern command did.
    scaled = apply_norm(ds.norm_stats, probes)
    preds = [reference_classify(som, x, params.a_t) for x in scaled]
    names = ["REJECTED" if p.label == REJECTED else ds.class_names[p.label]
             for p in preds]
    want = tmp_path / "want.csv"
    with want.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pattern_index", "node_id", "label", "activation"])
        writer.writerows(
            [i, "" if p.node is None else p.node, name,
             f"{p.activation:.6g}"]
            for i, (p, name) in enumerate(zip(preds, names)))
    assert out.read_bytes() == want.read_bytes()
    hits = sum(name == tag for name, tag in zip(names, tags))
    assert (f"accuracy on {len(tags)} labeled patterns: "
            f"{hits / len(tags):.4f}") in capsys.readouterr().out

    # The probes reach every branch of the rule.
    winners = [int(np.argmax(som.activations(x))) for x in scaled]
    kinds = {"rejected" if p.node is None
             else "winner" if p.node == j else "fallback"
             for p, j in zip(preds, winners)}
    assert kinds == {"winner", "fallback", "rejected"}
    assert ",," in out.read_text(encoding="utf-8")


def test_predictions_file_is_what_csv_writer_writes(tmp_path):
    """Class names that need quoting, and rejected rows, come out byte for
    byte as ``csv.writer`` writes the same rows."""
    raw = make_synthetic(n=400, dim=12, clusters=4, seed=21)
    ds = normalize(raw)
    params = HyperParams(a_t=0.95, lp=0.001, beta=0.1, age_wins=800,
                         e_b=0.1, push_rate=0.01, e_n=0.005, eps_beta=0.05,
                         minwd=0.25, epochs=2, n_max=len(ds), seed=4)
    som = train_with_state(mask_labels(ds, 0.3, seed=5), params).som
    names = ("a,b", 'say "hi"', " pad ", "plain")
    model = tmp_path / "model.json"
    save_model(model, som, params, norm_stats=ds.norm_stats,
               class_names=names)
    probes = np.vstack([raw.patterns[::2],
                        np.random.default_rng(8).random((100, raw.dim))])
    data = tmp_path / "probes.csv"
    with data.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(raw.dim_names)
        writer.writerows(map(repr, row) for row in probes.tolist())
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(data), "-o", str(out),
                 "--quiet"]) == 0

    preds = semisom.classify_batch(
        som, apply_norm(ds.norm_stats, probes), params.a_t)
    want = tmp_path / "want.csv"
    with want.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pattern_index", "node_id", "label", "activation"])
        writer.writerows(
            [i, "" if p.node is None else p.node,
             "REJECTED" if p.label == REJECTED else names[p.label],
             f"{p.activation:.6g}"]
            for i, p in enumerate(preds))
    assert out.read_bytes() == want.read_bytes()
    # every class and a rejection appear
    text = out.read_text(encoding="utf-8")
    for field in (',"a,b",', ',"say ""hi""",', ", pad ,", ",,REJECTED,"):
        assert field in text


def test_inspect_prints_summary(arff_path, tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    assert main(["inspect", str(model)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "a_t" in out


@pytest.mark.parametrize("command, flag", [
    ("inspect", ["--jobs", "2"]), ("inspect", ["--seed", "1"]),
    ("inspect", ["--quiet"]), ("inspect", ["--label-column", "class"]),
    ("predict", ["--seed", "1"]), ("predict", ["--jobs", "2"]),
    ("train", ["--jobs", "2"]),
])
def test_commands_refuse_flags_they_do_not_read(arff_path, tmp_path, capsys,
                                                command, flag):
    """A flag is registered only on the commands that read it; elsewhere
    it is a usage error, exit 1, not silently ignored."""
    model = tmp_path / "model.json"
    assert main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS) == 0
    argv = {"inspect": ["inspect", str(model)],
            "predict": ["predict", str(model), str(arff_path), "-o",
                        str(tmp_path / "pred.csv")],
            "train": ["train", str(arff_path), "-o",
                      str(tmp_path / "again.json")]}[command]
    capsys.readouterr()
    assert main(argv + flag) == 1
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()
    assert not (tmp_path / "again.json").exists()


def test_sweep_writes_artifacts_and_creates_directory(arff_path, tmp_path):
    out_dir = tmp_path / "deep" / "sweep"
    code = main(["sweep", str(arff_path), "-o", str(out_dir), "--samples",
                 "2", "--repeats", "1", "--folds", "2", "--fractions",
                 "0.5,1.0", "--seed", "5", "--jobs", "1", "--quiet", "--svg"])
    assert code == 0
    results = (out_dir / "results.csv").read_text().strip().split("\n")
    assert len(results) == 1 + 2 * 2 * 2  # header + folds*fractions*samples
    curve = (out_dir / "curve.csv").read_text().strip().split("\n")
    assert curve[0] == "fraction,mean_best_accuracy,std_best_accuracy"
    assert len(curve) == 3
    assert (out_dir / "curve.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_sweep_rejects_fewer_than_one_job(arff_path, tmp_path, capsys, jobs):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(arff_path), "-o", str(out_dir), "--samples",
                 "1", "--repeats", "1", "--folds", "2", "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_requires_full_labels(tmp_path):
    csv_path = tmp_path / "plain.csv"
    csv_path.write_text("f1,f2\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n",
                        encoding="utf-8")
    assert main(["sweep", str(csv_path), "-o", str(tmp_path / "out"),
                 "--samples", "1", "--repeats", "1", "--folds", "2"]) == 2


@pytest.mark.parametrize("kind", ["csv", "arff", "params"])
def test_train_on_a_file_that_is_not_utf8_is_data_error(arff_path, tmp_path,
                                                        capsys, kind):
    """One byte that is not UTF-8, in the data or in the params file."""
    data, args = arff_path, []
    if kind == "csv":
        data = tmp_path / "bad.csv"
        data.write_bytes(b"f1,f2,class\n0.1,0.2,red\n0.8,0.\xff9,blue\n")
        bad = data
    elif kind == "arff":
        data = tmp_path / "bad.arff"
        data.write_bytes(ARFF.replace("0.80,0.85", "0.80,0.8\xff5")
                         .encode("latin-1"))
        bad = data
    else:
        bad = tmp_path / "params.txt"
        bad.write_bytes(b"a_t = 0.9\n# caf\xe9\n")
        args = ["--params-file", str(bad)]
    code = main(["train", str(data), "-o", str(tmp_path / "m.json"),
                 *TRAIN_ARGS, *args])
    assert code == 2
    assert f"{bad}: not UTF-8" in capsys.readouterr().err


def test_train_on_a_range_wider_than_the_largest_float(tmp_path):
    data = tmp_path / "wide.csv"
    data.write_text("f1,f2\n1e308,0.1\n-1e308,0.2\n0,0.3\n", encoding="utf-8")
    assert main(["train", str(data), "-o", str(tmp_path / "m.json"),
                 *TRAIN_ARGS]) == 0


@pytest.mark.parametrize("flags, names", [
    (["--folds", "1"], "k must be >= 2"),
    (["--folds", "0"], "--folds"),
    (["--repeats", "-1"], "--repeats"),
    (["--repeats", "0"], "--repeats"),
    (["--samples", "0"], "--samples"),
    (["--seed", "-3"], "--seed"),
    (["--fractions", "nan"], "fractions must lie in [0, 1], got nan"),
    (["--fractions=-0.5"], "fractions must lie in [0, 1], got -0.5"),
    (["--fractions", "0.5,1.5"], "fractions must lie in [0, 1], got 1.5"),
])
def test_sweep_rejects_bad_arguments_in_its_own_words(arff_path, tmp_path,
                                                      capsys, flags, names):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(arff_path), "-o", str(out_dir), "--samples",
                 "1", "--repeats", "1", "--folds", "2", *flags]) == 1
    assert names in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_rejects_a_negative_seed_in_a_params_file(arff_path, tmp_path,
                                                        capsys):
    params = tmp_path / "params.txt"
    params.write_text("seed = -3\n", encoding="utf-8")
    assert main(["train", str(arff_path), "-o", str(tmp_path / "m.json"),
                 "--params-file", str(params)]) == 1
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


# The predictions writer on the package's library, without a 128-bit
# integer type, and under the undefined-behaviour sanitizer with and
# without one.
writers = pytest.mark.builds("clones", "no-int128", "ubsan",
                             "ubsan-no-int128")


def _percent_rows(node, pick, texts, act) -> bytes:
    """The oracle: the rows as the ``%`` pass of ``cli`` writes them."""
    return "".join(
        "%d,%s,%s,%.6g\r\n" % (i, "" if j < 0 else j, texts[k], a)
        for i, (j, k, a) in enumerate(zip(node.tolist(), pick.tolist(),
                                          act.tolist()))).encode()


def _writes(act: float) -> bool:
    """Whether the compiled writer makes the digits of ``act`` itself."""
    return act == 0 or 2.0 ** -66 <= abs(act) < 2.0 ** 64


_NAMES = ("plain", "a,b", 'say "hi"', " pad ", "é", "名前", "new\nline", "")


def _check_writer(act, seed: int = 0) -> None:
    """The compiled writer on activations ``act``, node ids from -1 up and
    labels that need quoting or are not ASCII: the ``%`` pass's bytes, or
    ``None`` where some activation lies outside its range."""
    act = np.asarray(act, dtype=float)
    rng = np.random.default_rng(seed)
    node = rng.integers(-1, 10 ** rng.integers(1, 19), size=len(act))
    texts = [_csv_field(name) for name in _NAMES]
    pick = rng.integers(len(texts), size=len(act))
    got = _kernel.format_predictions(node.astype(np.intp), pick,
                                     [t.encode() for t in texts], act)
    if all(map(_writes, act.tolist())):
        assert bytes(got) == _percent_rows(node, pick, texts, act)
    else:
        assert got is None


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_IN_RANGE = st.floats(min_value=2.0 ** -66, max_value=2.0 ** 64,
                      exclude_max=True)


@writers
@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1).map(_double)
                | _IN_RANGE | _IN_RANGE.map(operator.neg), max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_writer_writes_what_percent_writes(values, seed):
    _check_writer(values, seed)


@writers
def test_writer_writes_the_edges_as_percent_does():
    """Exact ties, values that round up into the next decade, both sides
    of ``%g``'s switches at 1e-4 and 1e6, every power of two the writer
    takes and its neighbours, the ends of its range, zeros and 1."""
    powers = np.ldexp(1.0, np.arange(-66, 64))
    edges = [1234565.0, 100000.5, 123456.5, 123457.5, 12345.25,
             0.0009765625, 9.999995, 99999.95, 999999.5, 999999.4,
             9999995.0, 9.999995e-5, 1e-4, 1e-5, 1e6, 1e5, 1e16, 0.1, 1.0,
             0.5, 2.0 ** 63, 0.0, -0.0]
    edges += [y for x in (1e-4, 1e6, 2.0 ** -66, 2.0 ** 64, 1e5)
              for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    for values in (powers, np.array(edges)):
        for nudge in (0.0, -np.inf, np.inf):
            near = np.nextafter(values, nudge) if nudge else values
            for row in np.concatenate([near, np.negative(near)]):
                _check_writer([row])
    _check_writer(np.concatenate([powers, np.negative(powers)]))


@writers
def test_writer_writes_random_activations_as_percent_does():
    """2^16 values of random sign, mantissa and exponent within the
    writer's range, in one call."""
    rng = np.random.default_rng(16)
    values = np.ldexp(rng.random(2 ** 16) + 0.5,
                      rng.integers(-66, 64, size=2 ** 16))
    values *= rng.choice([-1.0, 1.0], size=len(values))
    _check_writer(values[np.abs(values) < 2.0 ** 64])


@pytest.mark.parametrize("act", [[0.5, -0.0, 1234565.0], [0.5, 5e-324],
                                 [0.5, float("nan")], [2.0 ** 64]])
@pytest.mark.builds("clones", "no-library")
def test_predictions_file_is_the_percent_pass(tmp_path, act):
    """The file ``cli`` writes, through the compiled writer or, where it
    declines, through ``%``, holds the header and the ``%`` pass's rows;
    a label UTF-8 cannot encode fails on either path."""
    act = np.array(act * 3)
    node = np.arange(len(act), dtype=np.intp) - 1
    texts = [_csv_field(name) for name in _NAMES]
    pick = np.arange(len(act), dtype=np.int64) % len(texts)
    path = tmp_path / "pred.csv"
    _write_predictions(path, node, pick, texts, act, len(act))
    assert path.read_bytes() == (b"pattern_index,node_id,label,activation"
                                 b"\r\n" + _percent_rows(node, pick, texts,
                                                          act))
    with pytest.raises(UnicodeEncodeError):
        _write_predictions(path, node, pick, ["\ud800"] * len(texts), act,
                           len(act))
