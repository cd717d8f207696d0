"""Deterministic feedforward-network diagnostics for HR survey data.

The pipeline: a 33-factor Likert questionnaire is reduced to three
aggregate scores (strategic, tactical, operational), a small MLP is
trained on them by full-batch gradient descent with momentum and an
adaptive learning rate, architectures are compared via a fixed grid
sweep, and the trained model labels respondents success or failure.
"""

from .activations import Activation
from .data import (
    Dataset,
    NormalizationMap,
    QuestionnaireResponse,
    aggregate_questionnaire,
    as_training_batch,
    assign_surrogate_targets,
    load_csv,
    load_embedded,
    load_questionnaire_csv,
    normalize,
    prepared_embedded,
    split_70_30,
)
from .model_io import (
    Diagnosis,
    DiagnosisLabel,
    ModelFile,
    SurrogateRule,
    diagnose,
    load_model,
    model_from_training,
    save_model,
)
from .network import (
    Gradients,
    LayerSpec,
    Network,
    NetworkConfig,
    backprop_gradients,
    forward,
    init_network,
    zero_gradients,
)
from .sweep import (
    GridRow,
    SweepConfig,
    SweepRow,
    canonical_grid,
    render_csv,
    render_table,
    run_sweep,
)
from .tables import (
    ALL_FACTORS,
    FACTOR_GROUPS,
    OPERATIONAL_FACTORS,
    STRATEGIC_FACTORS,
    TACTICAL_FACTORS,
)
from .training import (
    EpochRecord,
    StoppingReason,
    TrainParams,
    TrainingTrace,
    Trajectory,
    accuracy_from_mse,
    evaluate,
    train,
    train_epoch,
)

__version__ = "0.1.0"
