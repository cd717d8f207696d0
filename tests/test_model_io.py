import dataclasses
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrdiag import (
    Activation,
    DiagnosisLabel,
    LayerSpec,
    Network,
    NetworkConfig,
    NormalizationMap,
    SurrogateRule,
    TrainParams,
    as_training_batch,
    diagnose,
    evaluate,
    forward,
    init_network,
    load_model,
    model_from_training,
    prepared_embedded,
    save_model,
    train,
)
from hrdiag import model_io
from hrdiag.cli import main

LAYERS = (LayerSpec(4, Activation.LOGSIG), LayerSpec(1, Activation.TANSIG))


@pytest.fixture(scope="module")
def trained_model():
    dataset = prepared_embedded()
    batch = as_training_batch(dataset.training)
    params = TrainParams(max_epochs=300)
    net = init_network(NetworkConfig(3, LAYERS, seed=42))
    trained, _ = train(net, batch, params)
    return model_from_training(
        trained, dataset.normalization, params,
        evaluate(trained, batch), SurrogateRule(2.5),
        created_at="2026-08-09T00:00:00Z",
    )


def assert_predict_fails_with_one_line(path, capsys, needle):
    """``predict`` on the model at ``path`` exits 1 with one ``error:``
    line that contains ``needle``, and warns nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predict", str(path), "3,3,3"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:") and needle in err, err
    assert [str(w.message) for w in caught] == []


def nested(depth):
    """A number wrapped in ``depth`` one-element lists."""
    value = 0.5
    for _ in range(depth):
        value = [value]
    return value


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, trained_model, tmp_path):
        first = tmp_path / "model.json"
        second = tmp_path / "model2.json"
        save_model(trained_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_a_failed_save_leaves_the_old_file_and_no_sibling(self, trained_model, tmp_path,
                                                              monkeypatch):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        old = path.read_bytes()
        monkeypatch.setattr(model_io, "_model_dict", mock.Mock(side_effect=ValueError("no")))
        with pytest.raises(ValueError, match="^no$"):
            save_model(trained_model, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_loaded_model_predicts_to_zero_ulp(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        loaded = load_model(path)
        probes = [(1.0, 2.0, 1.0), (5.0, 5.0, 5.0), (-1.0, 0.0, 3.3), (2.5, 2.5, 2.5)]
        for raw in probes:
            assert diagnose(loaded, raw).raw_output == diagnose(trained_model, raw).raw_output

    def test_loaded_weights_bitwise_equal(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        loaded = load_model(path)
        for a, b in zip(loaded.network.weights + loaded.network.biases,
                        trained_model.network.weights + trained_model.network.biases):
            np.testing.assert_array_equal(a, b)

    def test_external_rule_round_trips(self, trained_model, tmp_path):
        model = model_from_training(
            trained_model.network, None, trained_model.train_params,
            0.05, None, created_at="2026-08-09T00:00:00Z",
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.surrogate_rule is None
        assert loaded.normalization is None
        assert json.loads(path.read_text())["surrogate_target_rule"] == "external"

    def test_final_mse_consistent_with_evaluate(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        loaded = load_model(path)
        dataset = prepared_embedded()
        batch = as_training_batch(dataset.training)
        assert abs(evaluate(loaded.network, batch) - loaded.final_train_mse) < 1e-12


class TestLoadValidation:
    def test_a_model_cannot_name_another_schema_version(self, trained_model):
        # save_model writes the one version load_model reads; another could not be read back.
        with pytest.raises(TypeError, match="schema_version"):
            dataclasses.replace(trained_model, schema_version=2)

    def test_schema_version_checked(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        raw["schema_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="schema"):
            load_model(path)

    def test_tampered_shapes_rejected(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        raw["weights"][0] = raw["weights"][0][:2]  # drop two neurons' rows
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_model(path)

    def test_missing_key_rejected(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        del raw["train_params"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize("section, key, value", [
        ("config", "seed", 2.5),
        ("config", "seed", True),
        ("train_params", "adaptive", "no"),
        ("train_params", "max_epochs", 2.5),
        ("train_params", "max_epochs", True),
        ("train_params", "learning_rate", True),
        ("train_params", "momentum", "0.9"),
        ("surrogate_target_rule", "threshold", "x"),
        ("surrogate_target_rule", "threshold", math.nan),
        ("surrogate_target_rule", "failure", None),
        ("surrogate_target_rule", "success", False),
        # Labeling applies the fixed -0.9/+0.9 whatever the file says.
        ("surrogate_target_rule", "failure", -0.1),
        ("surrogate_target_rule", "success", 0.9000000000000001),
        ("normalization", "scale", 0.0),
        ("normalization", "scale", math.inf),  # json writes Infinity
        ("normalization", "offset", math.nan),
        ("normalization", "offset", "x"),
        ("normalization", "offset", True),
        ("normalization", "scale", "x"),
        ("normalization", "scale", True),
        (None, "final_train_mse", "x"),
        (None, "final_train_mse", True),
        (None, "final_train_mse", -1),
        (None, "final_train_mse", math.nan),
        pytest.param("train_params", "learning_rate", 10**400,
                     id="train_params-learning_rate-huge-int"),
        pytest.param(None, "final_train_mse", 10**400, id="None-final_train_mse-huge-int"),
        (None, "schema_version", True),
        (None, "schema_version", 1.0),
        pytest.param(None, "created_at", ["2026-08-09T00:00:00Z"], id="None-created_at-list"),
        (None, "unknown_key", 1),
        ("train_params", "unknown_key", 1),
        ("config", "unknown_key", 1),
    ])
    def test_bad_field_fails_with_one_line(self, trained_model, tmp_path, capsys,
                                           section, key, value):
        # section None names a top-level field.
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        (raw if section is None else raw[section])[key] = value
        path.write_text(json.dumps(raw))
        assert_predict_fails_with_one_line(path, capsys, key)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["config"]["layers"][0].update(neurons=True), "neuron count"),
        (lambda raw: raw["config"]["layers"][1].update(neurons=True), "neuron count"),
        (lambda raw: raw["config"]["layers"][0].update(neurons=4.0), "neuron count"),
        (lambda raw: raw["weights"][0][1].__setitem__(2, True), "weights[0]"),
        (lambda raw: raw["weights"][1][0].__setitem__(0, "x"), "weights[1]"),
        (lambda raw: raw["weights"][0][3].pop(), "weights[0]"),
        (lambda raw: raw["biases"][0].__setitem__(3, None), "biases[0]"),
        (lambda raw: raw["biases"][1].__setitem__(0, False), "biases[1]"),
        (lambda raw: raw["biases"][0].__setitem__(0, [0.5]), "biases[0]"),
        (lambda raw: raw["weights"][0][1].__setitem__(2, 10**400), "weights[0]"),
        (lambda raw: raw["weights"][1][0].__setitem__(0, 2**53 + 1), "weights[1]"),
        (lambda raw: raw["weights"].__setitem__(1, nested(40)), "weights[1]"),
        (lambda raw: raw["config"]["layers"][0].update(unknown_key=1), "config.layers[0]"),
    ], ids=["neurons-true", "output-neurons-true", "neurons-float", "weight-true", "weight-str",
            "weight-ragged", "bias-null", "bias-false", "bias-list", "weight-huge-int",
            "weight-inexact-int", "weight-deep", "layer-unknown-key"])
    def test_bad_layer_fails_with_one_line(self, trained_model, tmp_path, capsys,
                                           edit, message):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        assert_predict_fails_with_one_line(path, capsys, message)

    def test_an_integer_weight_of_2_to_the_53_loads(self, trained_model, tmp_path):
        # The largest integer a float holds exactly; 2**53 + 1 is refused above.
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        raw["weights"][1][0][0] = 2**53
        path.write_text(json.dumps(raw))
        assert load_model(path).network.weights[1][0, 0] == 2.0**53

    @pytest.mark.parametrize("cell", [3, -2**53], ids=["small", "lowest"])
    def test_an_integer_weight_loads_as_its_float_beside_the_saved_ones(self, trained_model,
                                                                         tmp_path, cell):
        # One int among the floats fails the all-floats scan and takes the per-cell check.
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        raw["weights"][0][2][1] = cell
        path.write_text(json.dumps(raw))
        want = trained_model.network.weights[0].copy()
        want[2, 1] = cell
        assert load_model(path).network.weights[0].tobytes() == want.tobytes()

    def test_a_bool_weight_is_refused_with_its_one_line(self, trained_model, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        raw["weights"][0][2][1] = True
        path.write_text(json.dumps(raw))
        assert main(["predict", str(path), "3,3,3"]) == 1
        assert capsys.readouterr().err == (
            "error: weights[0] must be a rectangular array of floats or integers within 2**53\n")

    def test_deep_nesting_fails_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        assert_predict_fails_with_one_line(path, capsys, "nests too deeply")

    @pytest.mark.parametrize("content, reason", [
        (b'{"a": 1 2}', "is not valid JSON (Expecting ',' delimiter"),
        (b'{"a": ' + b"9" * 5000 + b"}", "holds an integer literal too long to read\n"),
        (b"\xff{}", "is not valid JSON ('utf-8' codec can't decode byte 0xff"),
    ], ids=["bad-json", "5000-digit-int", "not-utf8"])
    def test_unreadable_file_fails_with_one_line(self, tmp_path, capsys, content, reason):
        # The line names the file, and a digit-limit error names the
        # problem, not the interpreter setting that raises the limit.
        path = tmp_path / "model.json"
        path.write_bytes(content)
        assert_predict_fails_with_one_line(path, capsys, f"error: {path}: model file {reason}")

    @pytest.mark.parametrize("path", ["model\x00.json", "model\ud800.json"],
                             ids=["nul", "lone-surrogate"])
    def test_unopenable_path_is_not_blamed_on_the_file(self, path):
        # open() raises ValueError for these names before any byte is read.
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert "model file" not in str(info.value)

    @pytest.mark.parametrize("text", ["[1]", '"model"', "null", "3"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert_predict_fails_with_one_line(path, capsys, "must hold a JSON object")


class TestDiagnose:
    def test_label_matches_output_sign(self, trained_model):
        good = diagnose(trained_model, (5.0, 5.0, 5.0))
        bad = diagnose(trained_model, (1.0, 1.0, 1.0))
        assert good.label is DiagnosisLabel.SUCCESS and good.raw_output >= 0
        assert bad.label is DiagnosisLabel.FAILURE and bad.raw_output < 0
        assert -1.0 < good.raw_output < 1.0

    def test_accuracy_context(self, trained_model):
        d = diagnose(trained_model, (3.0, 3.0, 3.0))
        assert d.train_mse == trained_model.final_train_mse
        assert d.accuracy == 100.0 - trained_model.final_train_mse
        assert d.surrogate is True

    def test_wrong_dimension_rejected(self, trained_model):
        with pytest.raises(ValueError, match="expected 3"):
            diagnose(trained_model, (1.0, 2.0))

    def test_overflowing_output_is_an_error_without_warnings(self):
        config = NetworkConfig(3, (LayerSpec(1, Activation.PURELIN),), seed=0)
        net = Network(config, [np.full((1, 3), 1e308)], [np.zeros(1)])
        model = model_from_training(net, None, TrainParams(), 0.0, None,
                                    created_at="2026-08-09T00:00:00Z")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="non-finite output"):
                diagnose(model, (1.0, 1.0, 1.0))
        assert [str(w.message) for w in caught] == []

    def test_an_output_of_zero_is_success(self):
        config = NetworkConfig(3, LAYERS, seed=0)
        net = Network(config, [np.zeros((4, 3)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)])
        model = model_from_training(net, None, TrainParams(), 0.0, None,
                                    created_at="2026-08-09T00:00:00Z")
        d = diagnose(model, (1.0, 1.0, 1.0))
        assert d.raw_output == 0.0
        assert d.label is DiagnosisLabel.SUCCESS

    def test_out_of_range_rejected_with_range_named(self, trained_model):
        with pytest.raises(ValueError, match=r"\[-1, 5\]"):
            diagnose(trained_model, (6.0, 1.0, 1.0))
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError, match=rf"input value {bad} outside \[-1, 5\]"):
                diagnose(trained_model, (1.0, bad, 1.0))

    def test_load_then_diagnose_builds_one_network(self, trained_model, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        built = []
        check = Network.__post_init__
        monkeypatch.setattr(Network, "__post_init__", lambda net: (built.append(net), check(net)))
        diagnose(load_model(path), (3.0, 3.0, 3.0))
        assert len(built) == 1

    def test_normalization_applied(self, trained_model):
        # Diagnosing raw values must equal forwarding normalized ones by hand.
        nmap = NormalizationMap()
        raw = (4.0, 1.5, 2.0)
        scaled = [nmap.apply(v) for v in raw]
        out, _ = forward(trained_model.network, scaled)
        assert diagnose(trained_model, raw).raw_output == float(out[0])


# Any JSON value json.dumps can write: NaN and infinities included, and
# ints too large for a float.  Half the draws are single leaves, which
# st.recursive alone seldom yields.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
               | st.floats() | st.text(max_size=8))
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=8,
)


def node_paths(node, path=()):
    """The key path of ``node`` and of every node below it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, path + (key,))


@pytest.fixture(scope="module")
def model_dir(trained_model, tmp_path_factory):
    """A directory holding the saved trained model as ``saved.json``."""
    directory = tmp_path_factory.mktemp("fuzz")
    save_model(trained_model, directory / "saved.json")
    return directory


class TestLoadProperties:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_mutated_model_loads_whole_or_fails_with_one_line(self, model_dir, data):
        # One node of a saved model, the root included, becomes any JSON
        # value.  predict must then exit 0 with a model that re-saves to
        # exactly the mutated file, or exit 1 with one error line.
        raw = json.loads((model_dir / "saved.json").read_text())
        path = data.draw(st.sampled_from(list(node_paths(raw))))
        value = data.draw(JSON_VALUES)
        if path:
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            raw = value
        mutated = model_dir / "mutated.json"
        mutated.write_text(json.dumps(raw), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["predict", str(mutated), "3,3,3"])
        assert [str(w.message) for w in caught] == []
        if code == 0:
            save_model(load_model(mutated), model_dir / "resaved.json")
            assert json.loads((model_dir / "resaved.json").read_text()) == raw
        else:
            lines = err.getvalue().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), lines
