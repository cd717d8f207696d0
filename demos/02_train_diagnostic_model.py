"""Train the diagnostic model on the bundled survey data, end to end.

Pipeline: load the 52/23 bundled tables, attach surrogate success/failure
targets (no outcome labels were ever published for this data), normalize
inputs onto [-1, 1], train the default 4/logsig + 1/tansig network, and
then continue the loop on the held-out rows to record the validation
error trajectory.
"""

from dataclasses import replace

from hrdiag import (
    Activation,
    LayerSpec,
    NetworkConfig,
    TrainParams,
    accuracy_from_mse,
    as_training_batch,
    evaluate,
    init_network,
    prepared_embedded,
    train,
)

dataset = prepared_embedded(threshold=2.5)
train_batch = as_training_batch(dataset.training)
test_batch = as_training_batch(dataset.testing)

config = NetworkConfig(
    input_dim=3,
    layers=(LayerSpec(4, Activation.LOGSIG), LayerSpec(1, Activation.TANSIG)),
    seed=42,
)
params = TrainParams(learning_rate=0.01, error_goal=0.01, max_epochs=1000)

net = init_network(config)
trained, trace = train(net, train_batch, params)

print(f"stopped after {len(trace.records)} epochs ({trace.stopping_reason.value})")
print(f"final training MSE: {trace.final_mse:.6f}")
print(f"accuracy (100 - MSE): {accuracy_from_mse(trace.final_mse):.6f}")
print(f"held-out MSE: {evaluate(trained, test_batch):.6f}")
print()

# Every tenth epoch of the training trajectory.
for record in trace.records[::10]:
    print(f"  epoch {record.epoch:4d}  mse {record.mse:.6f}  "
          f"lr {record.learning_rate:.5f}  accepted {record.accepted}")
print()

# The validation procedure: keep training on the held-out batch and watch
# the error trajectory (it should not need many epochs).
_, holdout = train(trained, test_batch, replace(params, max_epochs=50))
print("validation trajectory:")
for line in holdout.error_lines():
    print(" ", line)
print("note: targets are surrogate labels, not observed outcomes")
