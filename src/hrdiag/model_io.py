"""Model persistence (JSON) and success/failure diagnosis.

The model file is plain JSON with full-precision floats (Python's repr
round-trips doubles exactly), so save -> load -> save is byte-identical
and a reloaded model predicts to 0 ulp of the original.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .data import (
    RAW_MAX, RAW_MIN, FAILURE_TARGET, SUCCESS_TARGET, NormalizationMap, check_finite_number,
    first_out_of_range,
)
from .network import LayerSpec, Network, NetworkConfig, forward
from .activations import Activation
from .training import TrainParams, accuracy_from_mse

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SurrogateRule:
    """The documented stand-in labeling: threshold on raw factor means."""

    threshold: float
    failure: float = FAILURE_TARGET
    success: float = SUCCESS_TARGET

    def __post_init__(self):
        check_finite_number("surrogate threshold", self.threshold)
        check_finite_number("surrogate failure target", self.failure)
        check_finite_number("surrogate success target", self.success)


@dataclass
class ModelFile:
    """Everything needed to reproduce predictions: architecture, weights,
    input normalization, training setup and provenance of the targets
    (a surrogate rule, or None for externally supplied labels)."""

    config: NetworkConfig
    normalization: NormalizationMap | None
    train_params: TrainParams
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    final_train_mse: float
    surrogate_rule: SurrogateRule | None
    created_at: str
    schema_version: int = SCHEMA_VERSION

    def network(self) -> Network:
        return Network(self.config, list(self.weights), list(self.biases))


def model_from_training(
    net: Network,
    normalization: NormalizationMap | None,
    params: TrainParams,
    final_train_mse: float,
    surrogate_rule: SurrogateRule | None,
    created_at: str | None = None,
) -> ModelFile:
    if created_at is None:
        created_at = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return ModelFile(
        net.config, normalization, params,
        list(net.weights), list(net.biases),
        final_train_mse, surrogate_rule, created_at,
    )


def _model_dict(model: ModelFile) -> dict:
    # Key order is fixed so that save -> load -> save is byte-identical.
    return {
        "schema_version": model.schema_version,
        "created_at": model.created_at,
        "config": {
            "input_dim": model.config.input_dim,
            "seed": model.config.seed,
            "layers": [
                {"neurons": spec.neurons, "activation": spec.activation.value}
                for spec in model.config.layers
            ],
        },
        "normalization": (
            {"offset": model.normalization.offset, "scale": model.normalization.scale}
            if model.normalization is not None else None
        ),
        "train_params": {
            "learning_rate": model.train_params.learning_rate,
            "momentum": model.train_params.momentum,
            "error_goal": model.train_params.error_goal,
            "max_epochs": model.train_params.max_epochs,
            "lr_increase": model.train_params.lr_increase,
            "lr_decrease": model.train_params.lr_decrease,
            "max_error_ratio": model.train_params.max_error_ratio,
            "adaptive": model.train_params.adaptive,
        },
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "final_train_mse": model.final_train_mse,
        "surrogate_target_rule": (
            {
                "threshold": model.surrogate_rule.threshold,
                "failure": model.surrogate_rule.failure,
                "success": model.surrogate_rule.success,
            }
            if model.surrogate_rule is not None else "external"
        ),
    }


def save_model(model: ModelFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_model_dict(model), indent=2) + "\n", encoding="utf-8")


def _real_array(name: str, value) -> np.ndarray:
    """A weight matrix or bias vector from its JSON lists, as floats.  Each
    cell must be an int or float, not a bool, and rows may not be ragged."""
    cells = np.asarray(value, dtype=object)
    if not all(type(c) in (int, float) for c in cells.flat):
        raise ValueError(f"{name} must be a rectangular array of real numbers")
    return cells.astype(float)


def load_model(path: str | Path) -> ModelFile:
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: model file must hold a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported model schema {version!r}, expected {SCHEMA_VERSION}")
    try:
        cfg = raw["config"]
        config = NetworkConfig(
            cfg["input_dim"],
            tuple(LayerSpec(l["neurons"], Activation(l["activation"])) for l in cfg["layers"]),
            seed=cfg["seed"],
        )
        norm = raw["normalization"]
        normalization = (
            NormalizationMap(norm["offset"], norm["scale"]) if norm is not None else None
        )
        tp = raw["train_params"]
        params = TrainParams(
            learning_rate=tp["learning_rate"],
            momentum=tp["momentum"],
            error_goal=tp["error_goal"],
            max_epochs=tp["max_epochs"],
            lr_increase=tp["lr_increase"],
            lr_decrease=tp["lr_decrease"],
            max_error_ratio=tp["max_error_ratio"],
            adaptive=tp["adaptive"],
        )
        weights = [_real_array(f"weights[{k}]", W) for k, W in enumerate(raw["weights"])]
        biases = [_real_array(f"biases[{k}]", b) for k, b in enumerate(raw["biases"])]
        rule_raw = raw["surrogate_target_rule"]
        rule = (
            None if rule_raw == "external"
            else SurrogateRule(rule_raw["threshold"], rule_raw["failure"], rule_raw["success"])
        )
        final_mse = raw["final_train_mse"]
        check_finite_number("final_train_mse", final_mse)
        if final_mse < 0:
            raise ValueError(f"final_train_mse must be >= 0, got {final_mse!r}")
        model = ModelFile(
            config, normalization, params, weights, biases,
            final_mse, rule, raw["created_at"], version,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    model.network()  # validates the weight shape chain
    return model


class DiagnosisLabel(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class Diagnosis:
    """Prediction for one respondent, with the model's quality context."""

    raw_output: float
    label: DiagnosisLabel
    train_mse: float
    accuracy: float
    surrogate: bool


def diagnose(model: ModelFile, raw_inputs) -> Diagnosis:
    """Score one respondent's raw aggregate values with a loaded model.

    Applies the stored normalization, runs the forward pass (which rejects
    a wrong length or a non-finite value) and thresholds the single output
    at zero (success when >= 0).
    """
    values = np.asarray(raw_inputs, dtype=float).ravel()
    if model.normalization is not None:
        # A stored normalization implies survey-domain inputs, so enforce
        # the declared raw range before scaling.
        bad = first_out_of_range(values, RAW_MIN, RAW_MAX)
        if bad is not None:
            raise ValueError(f"input value {values[bad]:g} outside [{RAW_MIN:g}, {RAW_MAX:g}]")
        values = model.normalization.apply(values)
    output, _ = forward(model.network(), values)
    raw = float(output[0])
    if not math.isfinite(raw):
        raise ValueError("model produced a non-finite output")
    label = DiagnosisLabel.SUCCESS if raw >= 0 else DiagnosisLabel.FAILURE
    return Diagnosis(
        raw, label,
        model.final_train_mse,
        accuracy_from_mse(model.final_train_mse),
        model.surrogate_rule is not None,
    )
