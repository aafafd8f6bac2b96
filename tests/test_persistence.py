import numpy as np
import pytest

from semisom import (HyperParams, SomMap, classify, load_model, normalize,
                     save_model, train_with_state)
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
