"""Score a questionnaire and diagnose the respondent with a trained model.

A full response rates all 33 factors on the 1..5 importance scale; the
three factor-group means become the network inputs.
"""

from hrdiag import (
    ALL_FACTORS,
    FACTOR_GROUPS,
    Activation,
    LayerSpec,
    NetworkConfig,
    QuestionnaireResponse,
    SurrogateRule,
    TrainParams,
    aggregate_questionnaire,
    as_training_batch,
    diagnose,
    evaluate,
    init_network,
    model_from_training,
    prepared_embedded,
    train,
)

# A respondent who rates strategic factors highly but everything else low.
scores = {factor: 2.0 for factor in ALL_FACTORS}
for factor in FACTOR_GROUPS["strategic"]:
    scores[factor] = 5.0
response = QuestionnaireResponse(scores)

aggregates = aggregate_questionnaire(response)   # (strategic, tactical, operational)
x1, x2, x3 = aggregates
print(f"x1={x1:.3f} x2={x2:.3f} x3={x3:.3f}")

# Train the default model on the bundled data, then diagnose.
dataset = prepared_embedded(threshold=2.5)
batch = as_training_batch(dataset.training)
params = TrainParams()
net = init_network(NetworkConfig(3, (LayerSpec(4, Activation.LOGSIG),
                                     LayerSpec(1, Activation.TANSIG)), seed=42))
trained, _ = train(net, batch, params)
model = model_from_training(trained, dataset.normalization, params,
                            evaluate(trained, batch), SurrogateRule(2.5))

result = diagnose(model, aggregates)
print(f"label: {result.label.value}")
print(f"raw output: {result.raw_output:.6f}")
print(f"model accuracy context: MSE {result.train_mse:.6f}, "
      f"accuracy {result.accuracy:.6f}")
print("note: the model was trained on surrogate labels, not observed outcomes")
