"""Build a small network, run it forward, and check its gradients.

The library computes analytic gradients by backpropagation; here we
verify them against central finite differences, which is also how the
test suite gates gradient correctness.
"""

import numpy as np

from hrdiag import (
    Activation,
    LayerSpec,
    Network,
    NetworkConfig,
    backprop_gradients,
    evaluate,
    forward,
    init_network,
)

# A 3-4-1 network: 4 logsig hidden neurons, one tansig output neuron.
config = NetworkConfig(
    input_dim=3,
    layers=(LayerSpec(4, Activation.LOGSIG), LayerSpec(1, Activation.TANSIG)),
    seed=42,
)
net = init_network(config)
print("weight shapes:", [W.shape for W in net.weights])

# Forward pass: the output plus every layer's activations.
output, activations = forward(net, [0.5, -0.2, 0.8])
print("output:", output)
print("hidden activations:", activations[0])

# Gradients of the batch MSE for a tiny batch: inputs X, one row per
# pattern, and targets T, one row per pattern.
batch = (np.array([[0.5, -0.2, 0.8], [-0.3, 0.1, -0.9]]), np.array([[0.9], [-0.9]]))
grads, mse = backprop_gradients(net, batch)
print(f"batch MSE: {mse:.6f}")

# Check one weight entry against a central finite difference.
h = 1e-5
k, idx = 0, (2, 1)
for eps in (+h, -h):
    tweaked = Network(config, [W.copy() for W in net.weights], [b.copy() for b in net.biases])
    tweaked.weights[k][idx] += eps
    if eps > 0:
        up = evaluate(tweaked, batch)
    else:
        down = evaluate(tweaked, batch)
numeric = (up - down) / (2 * h)
analytic = grads.weights[k][idx]
print(f"analytic dMSE/dW[0][2,1] = {analytic:.10f}")
print(f"numeric  dMSE/dW[0][2,1] = {numeric:.10f}")
print(f"agreement: {abs(analytic - numeric):.2e}")
