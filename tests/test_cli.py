import json

import numpy as np
import pytest

from semisom.cli import main

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


def test_inspect_prints_summary(arff_path, tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", str(arff_path), "-o", str(model)] + TRAIN_ARGS)
    assert main(["inspect", str(model)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "a_t" in out


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


def test_sweep_requires_full_labels(tmp_path):
    csv_path = tmp_path / "plain.csv"
    csv_path.write_text("f1,f2\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n",
                        encoding="utf-8")
    assert main(["sweep", str(csv_path), "-o", str(tmp_path / "out"),
                 "--samples", "1", "--repeats", "1", "--folds", "2"]) == 2
