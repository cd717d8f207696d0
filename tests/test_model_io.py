import json
import math
import warnings

import numpy as np
import pytest

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


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, trained_model, tmp_path):
        first = tmp_path / "model.json"
        second = tmp_path / "model2.json"
        save_model(trained_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

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
        for a, b in zip(loaded.weights + loaded.biases,
                        trained_model.weights + trained_model.biases):
            np.testing.assert_array_equal(a, b)

    def test_external_rule_round_trips(self, trained_model, tmp_path):
        model = model_from_training(
            trained_model.network(), None, trained_model.train_params,
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
        assert abs(evaluate(loaded.network(), batch) - loaded.final_train_mse) < 1e-12


class TestLoadValidation:
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
    ])
    def test_bad_field_fails_with_one_line(self, trained_model, tmp_path, capsys,
                                           section, key, value):
        # section None names a top-level field.
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        raw = json.loads(path.read_text())
        (raw if section is None else raw[section])[key] = value
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["predict", str(path), "3,3,3"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err, err
        assert [str(w.message) for w in caught] == []


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

    def test_out_of_range_rejected_with_range_named(self, trained_model):
        with pytest.raises(ValueError, match=r"\[-1, 5\]"):
            diagnose(trained_model, (6.0, 1.0, 1.0))
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError, match=rf"input value {bad} outside \[-1, 5\]"):
                diagnose(trained_model, (1.0, bad, 1.0))

    def test_normalization_applied(self, trained_model):
        # Diagnosing raw values must equal forwarding normalized ones by hand.
        nmap = NormalizationMap()
        raw = (4.0, 1.5, 2.0)
        scaled = [nmap.apply(v) for v in raw]
        out, _ = forward(trained_model.network(), scaled)
        assert diagnose(trained_model, raw).raw_output == float(out[0])
