import json

import numpy as np
import pytest

from semisom import (DataFormatError, HyperParams, SomMap, classify,
                     load_model, normalize, save_model, train_with_state)
from helpers import make_blobs


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ds = normalize(make_blobs(15, [[0.2, 0.3], [0.7, 0.8]], 0.05, seed=6))
    params = HyperParams(a_t=0.93, lp=0.01, beta=0.1, age_wins=60, e_b=0.1,
                         push_rate=0.02, e_n=0.01, eps_beta=0.05, minwd=0.3,
                         epochs=4, n_max=len(ds), seed=12)
    state = train_with_state(ds, params)
    path = tmp_path_factory.mktemp("models") / "model.json"
    save_model(path, state.som, params, norm_stats=ds.norm_stats,
               class_names=ds.class_names)
    return ds, params, state.som, path


def test_round_trip_is_byte_identical(trained, tmp_path):
    ds, params, som, path = trained
    loaded = load_model(path)
    again = tmp_path / "again.json"
    save_model(again, loaded.som, loaded.params,
               norm_stats=loaded.norm_stats, class_names=loaded.class_names)
    assert again.read_bytes() == path.read_bytes()


def test_round_trip_preserves_structure(trained):
    ds, params, som, path = trained
    loaded = load_model(path)
    assert loaded.params == params
    assert loaded.class_names == ds.class_names
    assert loaded.som.n_nodes == som.n_nodes
    assert np.array_equal(loaded.som.centers, som.centers)
    assert np.array_equal(loaded.som.relevances, som.relevances)
    assert np.array_equal(loaded.som.labels, som.labels)
    assert np.array_equal(loaded.som.wins, som.wins)
    assert loaded.som.connections == som.connections
    assert np.array_equal(loaded.norm_stats.mins, ds.norm_stats.mins)
    assert np.array_equal(loaded.norm_stats.maxs, ds.norm_stats.maxs)


def test_round_trip_preserves_predictions_on_random_probes(trained):
    ds, params, som, path = trained
    loaded = load_model(path)
    probes = np.random.default_rng(99).random((100, som.dim))
    for x in probes:
        a = classify(som, x, params.a_t)
        b = classify(loaded.som, x, params.a_t)
        assert (a.node, a.label) == (b.node, b.label)
        assert a.activation == b.activation


def test_save_refuses_non_finite_values(trained, tmp_path):
    ds, params, som, path = trained
    bad = som.node(0)
    bad.center[0] = np.nan
    broken = SomMap.from_nodes(som.dim, som.node_budget, [bad])
    out = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        save_model(out, broken, params)
    assert not out.exists()


def test_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(bad)
    versioned = tmp_path / "future.json"
    versioned.write_text('{"format": "semisom-model", "format_version": 99}',
                         encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(versioned)


def _corrupt(path, tmp_path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    out = tmp_path / "corrupt.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def _set(*keys, value):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value(target[keys[-1]])
    return edit


@pytest.mark.parametrize("edit, where", [
    pytest.param(_set("nodes", 0, "relevance", value=lambda v: v[:1]),
                 "node 0 relevance", id="short-relevance"),
    pytest.param(_set("nodes", 1, "dist_avg", value=lambda v: v + [0.5]),
                 "node 1 dist_avg", id="long-dist-avg"),
    pytest.param(_set("nodes", 1, "center", value=lambda v: v + [0.5]),
                 "node 1 center", id="unequal-dim"),
    pytest.param(_set("norm_stats", "maxs", value=lambda v: v[:1]),
                 "norm_stats maxs", id="short-norm-stats"),
    pytest.param(_set("nodes", 0, "label", value=lambda v: 2),
                 "node 0 has label 2", id="label-past-classes"),
    pytest.param(_set("nodes", 0, "label", value=lambda v: -3),
                 "node 0 has label -3", id="negative-label"),
    pytest.param(_set("nodes", 1, "center",
                      value=lambda v: [float("nan")] + v[1:]),
                 "node 1 center", id="nan-center"),
    pytest.param(_set("nodes", 0, "relevance",
                      value=lambda v: v[:-1] + [float("inf")]),
                 "node 0 relevance", id="inf-relevance"),
    pytest.param(_set("norm_stats", "mins",
                      value=lambda v: [float("-inf")] + v[1:]),
                 "norm_stats mins", id="inf-norm-stats"),
    pytest.param(_set("nodes", 0, "wins", value=lambda v: float("nan")),
                 "node 0", id="nan-wins"),
    pytest.param(_set("params", "e_b", value=lambda v: float("nan")),
                 "e_b", id="nan-param"),
])
def test_load_rejects_inconsistent_model_files(trained, tmp_path, edit,
                                               where):
    ds, params, som, path = trained
    assert som.n_nodes >= 2 and len(ds.class_names) == 2 and som.dim == 2
    bad = _corrupt(path, tmp_path, edit)
    with pytest.raises(DataFormatError, match=f"corrupt.json: .*{where}"):
        load_model(bad)


def _delete(*keys):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return edit


@pytest.mark.parametrize("edit, where", [
    pytest.param(_set("connections", value=lambda v: [[0, 99]]),
                 r"connection \(0, 99\) names a node outside the \d+ nodes",
                 id="missing-node"),
    pytest.param(_set("connections", value=lambda v: [[-1, 0]]),
                 r"connection \(-1, 0\) names a node outside",
                 id="negative-node"),
    pytest.param(_set("connections", value=lambda v: [[0, 1], [0, 1]]),
                 r"connection \(0, 1\) is listed twice", id="duplicate"),
    pytest.param(_set("connections", value=lambda v: [[0, 1], [1, 0]]),
                 r"connection \(1, 0\) is listed twice",
                 id="reversed-duplicate"),
    pytest.param(_set("connections", value=lambda v: [[1, 1]]),
                 r"connection \(1, 1\) joins a node to itself",
                 id="self-connection"),
    pytest.param(_set("connections", value=lambda v: [[0, 1, 2]]),
                 r"connection \[0, 1, 2\] is not a pair of node ids",
                 id="triple"),
    pytest.param(_delete("nodes", 1, "wins"), "node 1: missing key 'wins'",
                 id="missing-node-key"),
    pytest.param(_delete("params", "lp"), "params: missing key 'lp'",
                 id="missing-param"),
    pytest.param(_set("params", "lp", value=lambda v: "0.005"),
                 "params: must be real number", id="string-param"),
    pytest.param(lambda doc: doc["params"].update(speed=1.0),
                 "params: unknown key 'speed'", id="unknown-param"),
    pytest.param(_delete("connections"), "missing key 'connections'",
                 id="missing-top-level-key"),
    pytest.param(_delete("norm_stats", "mins"),
                 "norm_stats: missing key 'mins'", id="missing-norm-key"),
])
def test_load_rejects_malformed_model_files(trained, tmp_path, edit, where):
    bad = _corrupt(trained[3], tmp_path, edit)
    with pytest.raises(DataFormatError, match=f"corrupt.json: {where}"):
        load_model(bad)


def test_load_rejects_invalid_json(trained, tmp_path):
    bad = tmp_path / "truncated.json"
    bad.write_text(trained[3].read_text(encoding="utf-8")[:-40],
                   encoding="utf-8")
    with pytest.raises(DataFormatError, match="truncated.json: not valid"):
        load_model(bad)
