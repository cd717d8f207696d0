"""Deterministic feedforward-network diagnostics for HR survey data.

The pipeline: a 33-factor Likert questionnaire is reduced to three
aggregate scores (strategic, tactical, operational), a small MLP is
trained on them by full-batch gradient descent with momentum and an
adaptive learning rate, architectures are compared via a fixed grid
sweep, and the trained model labels respondents success or failure.
Importing the package loads no numpy: each name below loads its module
on first use (PEP 562), so the command can set up BLAS before numpy does.
"""

from importlib import import_module

_MODULES = {
    "Activation": "activations",
    "Dataset": "data",
    "NormalizationMap": "data",
    "QuestionnaireResponse": "data",
    "aggregate_questionnaire": "data",
    "as_training_batch": "data",
    "assign_surrogate_targets": "data",
    "load_csv": "data",
    "load_embedded": "data",
    "load_questionnaire_csv": "data",
    "normalize": "data",
    "prepared_embedded": "data",
    "split_70_30": "data",
    "Diagnosis": "model_io",
    "DiagnosisLabel": "model_io",
    "ModelFile": "model_io",
    "SurrogateRule": "model_io",
    "diagnose": "model_io",
    "load_model": "model_io",
    "model_from_training": "model_io",
    "save_model": "model_io",
    "Gradients": "network",
    "LayerSpec": "network",
    "Network": "network",
    "NetworkConfig": "network",
    "backprop_gradients": "network",
    "forward": "network",
    "init_network": "network",
    "zero_gradients": "network",
    "GridRow": "sweep",
    "SweepConfig": "sweep",
    "SweepRow": "sweep",
    "canonical_grid": "sweep",
    "render_csv": "sweep",
    "render_table": "sweep",
    "run_sweep": "sweep",
    "ALL_FACTORS": "tables",
    "FACTOR_GROUPS": "tables",
    "OPERATIONAL_FACTORS": "tables",
    "STRATEGIC_FACTORS": "tables",
    "TACTICAL_FACTORS": "tables",
    "EpochRecord": "training",
    "StoppingReason": "training",
    "TrainParams": "training",
    "TrainingTrace": "training",
    "Trajectory": "training",
    "accuracy_from_mse": "training",
    "evaluate": "training",
    "train": "training",
    "train_epoch": "training",
}
__all__ = list(_MODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULES[name]}", __name__), name)
