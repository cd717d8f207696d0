"""Model persistence (JSON) and success/failure diagnosis.

The model file is plain JSON with full-precision floats (Python's repr
round-trips doubles exactly), so save -> load -> save is byte-identical
and a reloaded model predicts to 0 ulp of the original.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import TextIO

import numpy as np

from .data import (
    RAW_MAX, RAW_MIN, FAILURE_TARGET, SUCCESS_TARGET, NormalizationMap, check_finite_number,
    _open_path, _replacing, first_out_of_range,
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
        for name, value, fixed in (("failure", self.failure, FAILURE_TARGET),
                                   ("success", self.success, SUCCESS_TARGET)):
            if value != fixed:  # the labeling applies the fixed targets alone
                raise ValueError(f"surrogate {name} target must be {fixed}, got {value!r}")


@dataclass
class ModelFile:
    """Everything needed to reproduce predictions: the trained network,
    input normalization, training setup and provenance of the targets
    (a surrogate rule, or None for externally supplied labels)."""

    network: Network
    normalization: NormalizationMap | None
    train_params: TrainParams
    final_train_mse: float
    surrogate_rule: SurrogateRule | None
    created_at: str

    def __post_init__(self):
        check_finite_number("final_train_mse", self.final_train_mse)
        if self.final_train_mse < 0:
            raise ValueError(f"final_train_mse must be >= 0, got {self.final_train_mse!r}")
        if not isinstance(self.created_at, str):
            raise ValueError(f"created_at must be a string, got {type(self.created_at).__name__}")


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
    return ModelFile(net, normalization, params, final_train_mse, surrogate_rule, created_at)


def _model_dict(model: ModelFile) -> dict:
    # Key order is fixed so that save -> load -> save is byte-identical;
    # a dataclass section's keys are its fields, in declaration order.
    net = model.network
    return {
        "schema_version": SCHEMA_VERSION,
        "created_at": model.created_at,
        "config": {
            "input_dim": net.config.input_dim,
            "seed": net.config.seed,
            "layers": [
                {"neurons": spec.neurons, "activation": spec.activation.value}
                for spec in net.config.layers
            ],
        },
        "normalization": asdict(model.normalization) if model.normalization is not None else None,
        "train_params": asdict(model.train_params),
        "weights": [W.tolist() for W in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "final_train_mse": model.final_train_mse,
        "surrogate_target_rule": (
            asdict(model.surrogate_rule) if model.surrogate_rule is not None else "external"
        ),
    }


def save_model(model: ModelFile, path: str | Path | TextIO) -> None:
    """Write ``model`` to an open text file, or to a path through its ``.part`` sibling."""
    with nullcontext(path) if hasattr(path, "write") else _replacing(Path(path)) as fh:
        fh.write(json.dumps(_model_dict(model), indent=2) + "\n")


def _real_array(name: str, value) -> np.ndarray:
    """A weight matrix or bias vector from its JSON lists, as floats.  Each
    cell must be a float or an int that a float holds exactly (|n| <= 2**53),
    not a bool, and rows may not be ragged."""
    cells = np.asarray(value, dtype=object)
    if cells.ndim > 2 or not all(type(c) is float or type(c) is int and abs(c) <= 2**53
                                 for c in cells.flat):
        raise ValueError(f"{name} must be a rectangular array of floats or integers within 2**53")
    return cells.astype(float)


def _object(name: str, value, keys) -> dict:
    """``value``, which must be a JSON object with exactly the keys ``keys``.
    :func:`load_model` reports the TypeError as a malformed file."""
    if not isinstance(value, dict) or value.keys() != set(keys):
        got = list(value) if isinstance(value, dict) else type(value).__name__
        raise TypeError(f"{name} must be an object with keys {', '.join(keys)}, got {got}")
    return value


def _section(name: str, value, cls):
    """``cls`` from a JSON object keyed by its fields (``__match_args__``); ``cls`` checks them."""
    return cls(**_object(name, value, cls.__match_args__))


def load_model(path: str | Path) -> ModelFile:
    path = Path(path)
    with _open_path(path, "rb", buffering=0) as fh:  # outside the try: not the file's fault
        content = fh.read()
    try:
        raw = json.loads(content.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: model file nests too deeply") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: model file is not valid JSON ({exc})") from None
    except ValueError:  # int() refuses literals longer than sys.get_int_max_str_digits()
        raise ValueError(f"{path}: model file holds an integer literal too long to read") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: model file must hold a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version!r}, "
                         f"expected {SCHEMA_VERSION}")
    try:
        _object("the top level", raw, (
            "schema_version", "created_at", "config", "normalization", "train_params",
            "weights", "biases", "final_train_mse", "surrogate_target_rule"))
        cfg = _object("config", raw["config"], ("input_dim", "seed", "layers"))
        specs = [_object(f"config.layers[{k}]", l, ("neurons", "activation"))
                 for k, l in enumerate(cfg["layers"])]
        config = NetworkConfig(cfg["input_dim"], tuple(
            LayerSpec(s["neurons"], Activation(s["activation"])) for s in specs), cfg["seed"])
        norm = raw["normalization"]
        rule = raw["surrogate_target_rule"]
        return ModelFile(
            Network(config,  # checks that the weight shapes chain
                    [_real_array(f"weights[{k}]", W) for k, W in enumerate(raw["weights"])],
                    [_real_array(f"biases[{k}]", b) for k, b in enumerate(raw["biases"])]),
            None if norm is None else _section("normalization", norm, NormalizationMap),
            _section("train_params", raw["train_params"], TrainParams),
            raw["final_train_mse"],
            None if rule == "external" else _section("surrogate_target_rule", rule, SurrogateRule),
            raw["created_at"],
        )
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None


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
    output, _ = forward(model.network, values)
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
