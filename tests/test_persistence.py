import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisom import (DataFormatError, HyperParams, NormStats, SomMap,
                     classify, load_model, normalize, save_model,
                     train_with_state)
from semisom.cli import EXIT_DATA, EXIT_RUNTIME, main
from helpers import make_blobs, reference_model_text
from test_kernel import _without_compiler


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


def test_round_trip_is_byte_identical(trained, tmp_path, monkeypatch):
    """The loaded map, and the map ``from_arrays`` rebuilds from the
    trained map's array properties, save to the bytes of the file, on the
    compiled kernel path and then on the numpy one."""
    ds, params, som, path = trained
    again = tmp_path / "again.json"
    for kernel_path in ("compiled", "numpy"):
        if kernel_path == "numpy":
            _without_compiler(monkeypatch, tmp_path)
        loaded = load_model(path)
        rebuilt = SomMap.from_arrays(som.node_budget, som.centers,
                                     som.relevances, som.dist_avgs, som.wins,
                                     som.labels, som.connections)
        for copy in (loaded.som, rebuilt):
            save_model(again, copy, loaded.params,
                       norm_stats=loaded.norm_stats,
                       class_names=loaded.class_names)
            assert again.read_bytes() == path.read_bytes(), kernel_path


def test_numpy_scalar_params_save_as_python_numbers(trained, tmp_path):
    """Parameters of numpy scalar types pass ``validate``; the model file
    holds them as it holds the Python numbers of the same value."""
    ds, params, som, path = trained
    counts = {name: np.int64(getattr(params, name))
              for name in ("age_wins", "epochs", "n_max", "seed")}
    numpy_params = dataclasses.replace(params, lp=np.float64(params.lp),
                                       **counts)
    numpy_params.validate()
    out = tmp_path / "numpy.json"
    save_model(out, som, numpy_params, norm_stats=ds.norm_stats,
               class_names=ds.class_names)
    assert out.read_bytes() == path.read_bytes()
    single = dataclasses.replace(params, a_t=np.float32(0.93))
    save_model(out, som, single, class_names=ds.class_names)
    assert load_model(out).params.a_t == float(np.float32(0.93))


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
    broken = SomMap.from_arrays(som.node_budget, som.centers[:1],
                                som.relevances[:1], som.dist_avgs[:1],
                                som.wins[:1], som.labels[:1])
    broken._arrays.centers[0, 0] = np.nan  # from_arrays refuses it
    out = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        save_model(out, broken, params)
    assert not out.exists()


def test_save_refuses_a_map_without_nodes(trained, tmp_path):
    _, params, _, _ = trained
    out = tmp_path / "empty.json"
    with pytest.raises(ValueError, match="no nodes"):
        save_model(out, SomMap(2, 5), params)
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


def test_load_rejects_inverted_norm_ranges(trained, tmp_path):
    """A column whose minimum lies above its maximum would scale every
    pattern to 0.5: the file is refused, and ``predict`` exits 2."""
    ds, params, som, _ = trained
    stats = NormStats(mins=ds.norm_stats.mins.copy(),
                      maxs=ds.norm_stats.maxs.copy())
    stats.mins[1], stats.maxs[1] = stats.maxs[1], stats.mins[1]
    path = tmp_path / "inverted.json"
    save_model(path, som, params, norm_stats=stats,
               class_names=ds.class_names)
    with pytest.raises(DataFormatError,
                       match="inverted.json: norm_stats: column 1 has "
                             "min .* above max"):
        load_model(path)
    assert _predict(path, tmp_path) == EXIT_DATA


def _predict(model, tmp_path) -> int:
    """Exit code of ``semisom predict`` with ``model`` on a 2-d CSV."""
    data = tmp_path / "probe.csv"
    data.write_text("f0,f1\n0.2,0.3\n0.9,0.1\n", encoding="utf-8")
    return main(["predict", str(model), str(data), "-o",
                 str(tmp_path / "out.csv"), "--quiet"])


@pytest.mark.parametrize("edit, where", [
    pytest.param(_set("classes", value=lambda v: 5),
                 "classes is not a list of names", id="classes-number"),
    pytest.param(_set("classes", value=lambda v: "ab"),
                 "classes is not a list of names", id="classes-string"),
    pytest.param(_set("classes", value=lambda v: [v[0], 7]),
                 "classes is not a list of names", id="class-name-number"),
    pytest.param(_set("connections", value=lambda v: 3),
                 "connections is not a list", id="connections-number"),
    pytest.param(_set("nodes", value=lambda v: 3),
                 "nodes is not a list", id="nodes-number"),
    pytest.param(_set("nodes", 0, "wins", value=lambda v: 10 ** 30),
                 r"node 0: wins \d+ outside", id="huge-wins"),
    pytest.param(_set("nodes", 0, "wins", value=lambda v: 2.7),
                 "node 0: wins 2.7 is not an integer", id="fractional-wins"),
    pytest.param(_set("nodes", 1, "label", value=lambda v: 1.5),
                 "node 1: label 1.5 is not an integer", id="fractional-label"),
    pytest.param(_set("nodes", 1, "label", value=lambda v: True),
                 "node 1: label True is not an integer", id="boolean-label"),
    pytest.param(_set("params", "e_b", value=lambda v: True),
                 "params: e_b must be a number, got True", id="boolean-param"),
    pytest.param(_set("norm_stats", "mins", value=lambda v: "x"),
                 "norm_stats mins is not an array of numbers",
                 id="string-norm-stats"),
    pytest.param(_set("nodes", 0, "center", value=lambda v: ["0.5"] + v[1:]),
                 "node 0 center is not an array of numbers",
                 id="string-in-vector"),
    pytest.param(_set("nodes", 0, "relevance", value=lambda v: [True] + v[1:]),
                 "node 0 relevance is not an array of numbers",
                 id="boolean-in-vector"),
    pytest.param(_set("nodes", 0, "dist_avg",
                      value=lambda v: [10 ** 400] + v[1:]),
                 "node 0 dist_avg holds a non-finite value",
                 id="huge-integer-in-vector"),
])
def test_model_of_wrong_json_types_is_a_data_error(trained, tmp_path, edit,
                                                   where):
    """Each value of the wrong type is refused as a data error, exit 2,
    not truncated, converted or left to fail later with exit 3."""
    bad = _corrupt(trained[3], tmp_path, edit)
    with pytest.raises(DataFormatError, match=f"corrupt.json: {where}"):
        load_model(bad)
    assert _predict(bad, tmp_path) == EXIT_DATA


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def _positions(doc, at=()):
    """The key paths of every value inside ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield at + (key,)
        yield from _positions(value, at + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_and_predict_survive_any_one_value(trained, data):
    """One value of a valid model file replaced by any JSON value: loading
    raises at most ``DataFormatError`` or ``ValueError``, and ``predict``
    never ends in a runtime error (exit 3)."""
    doc = json.loads(trained[3].read_text(encoding="utf-8"))
    doc["nodes"] = doc["nodes"][:3]
    doc["connections"] = [[0, 1]]
    at = data.draw(st.sampled_from(list(_positions(doc))))
    target = doc
    for key in at[:-1]:
        target = target[key]
    target[at[-1]] = data.draw(_JSON)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_model(path)
        except ValueError:  # DataFormatError included
            pass
        with np.errstate(all="ignore"):
            assert _predict(path, Path(tmp)) != EXIT_RUNTIME


def test_load_rejects_invalid_json(trained, tmp_path):
    bad = tmp_path / "truncated.json"
    bad.write_text(trained[3].read_text(encoding="utf-8")[:-40],
                   encoding="utf-8")
    with pytest.raises(DataFormatError, match="truncated.json: not valid"):
        load_model(bad)


# floats whose text json writes in its own ways: signed zero, subnormals,
# exponent forms and shortest round-trip digits
_ODD_FLOATS = [-0.0, 0.0, 5e-324, 2.5e-310, 1e16, -1e16, 1e-5, 1e22, 0.1,
               123456789.0, 1.7976931348623157e308, 2.0 ** -1074 * 3]


@st.composite
def _models(draw):
    """A map, parameters, ranges and class names to save."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def vector():
        v = rng.standard_normal(m) * 10.0 ** rng.uniform(-20, 20)
        odd = rng.random(m) < 0.3
        v[odd] = rng.choice(_ODD_FLOATS, size=int(odd.sum()))
        return v

    rows = [(vector(), vector(), vector(), int(rng.integers(0, 10 ** 9)),
             int(rng.integers(-1, 3))) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < draw(st.sampled_from([0.0, 0.5]))]
    with np.errstate(over="ignore"):  # relevance sums may overflow
        som = SomMap.from_arrays(n, *map(np.array, zip(*rows)), pairs)
    if draw(st.booleans()):  # a value json must refuse
        row = som._arrays.centers if draw(st.booleans()) else som._arrays.rel
        row[rng.integers(n), rng.integers(m)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    norm_stats = (NormStats(mins=vector(), maxs=vector())
                  if draw(st.booleans()) else None)
    names = tuple(draw(st.lists(st.text(max_size=6), max_size=4)))
    names += tuple(draw(st.lists(st.sampled_from(
        ['"', "\\", "é", "名前", "a\nb", "\x00", "\ud800", ""]),
        max_size=3)))
    params = HyperParams(a_t=draw(st.sampled_from([0.95, 1e-16, 0.1])),
                         lp=0.005, beta=0.1, age_wins=10 ** 6, e_b=0.1,
                         push_rate=0.01, e_n=0.005, eps_beta=0.05,
                         minwd=draw(st.sampled_from([0.25, 1e16, -0.0])),
                         epochs=3, n_max=n, seed=draw(st.integers(0, 9)))
    return som, params, norm_stats, names


@settings(max_examples=300, deadline=None)
@given(_models())
def test_save_writes_what_json_writes(case):
    """The direct writer against ``json.dumps(indent=1, sort_keys=True,
    allow_nan=False)`` of the model document, byte for byte; a NaN or inf
    is refused by both, and nothing is written."""
    som, params, norm_stats, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        try:
            want = reference_model_text(som, params, norm_stats, names)
        except ValueError:
            with pytest.raises(ValueError):
                save_model(path, som, params, norm_stats=norm_stats,
                           class_names=names)
            assert not path.exists()
            return
        save_model(path, som, params, norm_stats=norm_stats,
                   class_names=names)
        assert path.read_bytes() == (want + "\n").encode("utf-8")
