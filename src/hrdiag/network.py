"""Feedforward network state, evaluation, loss and analytic gradients.

The public functions are pure over immutable-by-convention values: none
mutates a :class:`Network` or :class:`Gradients` in place, and identical
inputs produce bit-identical outputs.  Batch reductions use a fixed
summation order, so results are reproducible across runs.  Underneath,
one forward and one backward pass (:class:`_Workspace`) write into
buffers their caller allocates, so a training run can allocate them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .activations import Activation, scratch


@dataclass(frozen=True)
class LayerSpec:
    """One layer: neuron count plus transfer function, e.g. 4/logsig."""

    neurons: int
    activation: Activation

    def __post_init__(self):
        if isinstance(self.neurons, bool) or not isinstance(self.neurons, int):
            raise ValueError(f"neuron count must be an integer, got {self.neurons!r}")
        if self.neurons < 1:
            raise ValueError(f"layer needs at least 1 neuron, got {self.neurons!r}")

    @classmethod
    def parse(cls, text: str) -> "LayerSpec":
        """Parse a "<neurons>/<activation>" string such as "4/logsig"."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"bad layer spec {text!r}, expected '<neurons>/<activation>'")
        count, name = parts
        try:
            neurons = int(count)
        except ValueError:
            raise ValueError(f"bad neuron count in layer spec {text!r}") from None
        try:
            activation = Activation(name.strip().lower())
        except ValueError:
            names = ", ".join(a.value for a in Activation)
            raise ValueError(f"unknown activation {name!r}, expected one of: {names}") from None
        return cls(neurons, activation)

    @property
    def label(self) -> str:
        return f"{self.neurons}/{self.activation.value}"


@dataclass(frozen=True)
class NetworkConfig:
    """Layer specification: hidden layers followed by exactly one output layer."""

    input_dim: int
    layers: tuple[LayerSpec, ...]
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        dim = self.input_dim
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"input_dim must be a positive integer, got {dim!r}")
        if len(self.layers) == 0:
            raise ValueError("need at least one layer (the output layer)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].neurons

    @property
    def label(self) -> str:
        """Human-readable architecture, e.g. "4/logsig + 1/tansig"."""
        return " + ".join(spec.label for spec in self.layers)

    def fan_ins(self) -> list[int]:
        """Input width of each layer; layer k consumes layer k-1 outputs."""
        return [self.input_dim] + [spec.neurons for spec in self.layers[:-1]]


@dataclass(eq=False)
class Network:
    """Realized weight state for a :class:`NetworkConfig`.

    ``weights[k]`` has shape (fan_out, fan_in) and ``biases[k]`` shape
    (fan_out,), with fan_in chaining from the previous layer.
    """

    config: NetworkConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        fan_ins = self.config.fan_ins()
        if len(self.weights) != len(self.config.layers) or len(self.biases) != len(self.config.layers):
            raise ValueError("one weight matrix and one bias vector per layer required")
        for k, (W, b, spec) in enumerate(zip(self.weights, self.biases, self.config.layers)):
            if W.shape != (spec.neurons, fan_ins[k]):
                raise ValueError(
                    f"layer {k}: weight shape {W.shape} does not chain, "
                    f"expected {(spec.neurons, fan_ins[k])}"
                )
            if b.shape != (spec.neurons,):
                raise ValueError(f"layer {k}: bias shape {b.shape}, expected {(spec.neurons,)}")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite parameters")

    @property
    def output_dim(self) -> int:
        return self.config.output_dim


@dataclass(eq=False)
class Gradients:
    """Per-parameter partials of the batch MSE, shape-congruent with a Network."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def check_congruent(self, net: Network) -> None:
        ok = (
            len(self.weights) == len(net.weights)
            and len(self.biases) == len(net.biases)
            and all(g.shape == W.shape for g, W in zip(self.weights, net.weights))
            and all(g.shape == b.shape for g, b in zip(self.biases, net.biases))
        )
        if not ok:
            raise ValueError("gradients are not shape-congruent with the network")


def zero_gradients(net: Network) -> Gradients:
    """Gradients-shaped zeros, e.g. the initial momentum velocity."""
    return Gradients(
        [np.zeros_like(W) for W in net.weights],
        [np.zeros_like(b) for b in net.biases],
    )


def init_network(config: NetworkConfig) -> Network:
    """Create a network with weights and biases drawn uniformly from [-0.5, 0.5].

    The draw order is fixed (W then b, layer by layer) and the generator is
    seeded from ``config.seed``, so the same seed yields a bit-identical
    network.
    """
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, spec in zip(config.fan_ins(), config.layers):
        weights.append(rng.uniform(-0.5, 0.5, size=(spec.neurons, fan_in)))
        biases.append(rng.uniform(-0.5, 0.5, size=spec.neurons))
    return Network(config, weights, biases)


class _Workspace:
    """Scratch buffers for one layer stack on batches of ``rows`` rows,
    allocated once and reused by every pass.

    Layer k owns one :func:`~hrdiag.activations.scratch` triple of shape
    (rows, neurons).  The forward pass uses it for the transfer function's
    temporaries and the backward pass for that layer's delta and
    activation derivative; the output layer's second buffer also holds
    the squared residuals of the MSE.  Passes run one at a time, so the
    sharing is safe.  Activation stacks (:meth:`stack`) and residuals
    belong to the caller, who may keep several.
    """

    def __init__(self, layers, rows: int):
        self.layers = layers
        self.work = [scratch((rows, spec.neurons)) for spec in layers]
        # Bias gradients are delta's column sums.  einsum adds row after
        # row, as np.add.reduce (axis 0 by default) does for two or more
        # columns, and is faster on long batches; one column add.reduce
        # sums pairwise, so one-neuron layers keep it.
        self.bias_sums = [
            partial(np.einsum, "ij->j") if spec.neurons > 1 else np.add.reduce for spec in layers
        ]
        self.total = np.empty(())

    def stack(self, X: np.ndarray) -> list[np.ndarray]:
        """An activation stack for the batch inputs ``X``: X itself, then one
        unfilled (rows, neurons) array per layer."""
        return [X] + [np.empty((X.shape[0], spec.neurons)) for spec in self.layers]

    def forward(self, weights, biases, acts) -> None:
        """Fill ``acts[1:]`` with the layer activations of ``acts[0]``."""
        for k, spec in enumerate(self.layers):
            z = acts[k + 1]
            np.matmul(acts[k], weights[k].T, out=z)
            # Elementwise, so "F" (rows axis innermost) changes no bit.
            np.add(z, biases[k], out=z, order="F")
            spec.activation.apply_into(z, self.work[k])

    def score(self, weights, biases, acts, T, residual) -> float:
        """Forward pass, then the batch MSE against ``T``.  The residual
        Y - T is left in ``residual`` for :meth:`backward`."""
        self.forward(weights, biases, acts)
        squares = self.work[-1][1]
        np.subtract(acts[-1], T, out=residual)
        np.square(residual, out=squares)
        # The same sum and division as np.mean, without its per-call overhead.
        np.add.reduce(squares, axis=None, out=self.total)
        return float(self.total) / squares.size

    def backward(self, weights, acts, residual, grad_w, grad_b) -> None:
        """Write the batch-MSE gradients of every weight and bias into the
        ``grad_w``/``grad_b`` arrays, given a scored activation stack.

        Standard backpropagation: the output-layer delta is the MSE
        derivative times the activation derivative (written in the
        activation output), and deltas chain backwards through the weight
        matrices.
        """
        layers, work = self.layers, self.work
        delta, deriv, _ = work[-1]
        np.multiply(residual, 2.0 / residual.size, out=delta)
        layers[-1].activation.deriv_into(acts[-1], deriv)
        np.multiply(delta, deriv, out=delta)
        for k in range(len(layers) - 1, -1, -1):
            np.matmul(delta.T, acts[k], out=grad_w[k])
            self.bias_sums[k](delta, out=grad_b[k])
            if k > 0:
                below, deriv, _ = work[k - 1]
                np.matmul(delta, weights[k], out=below)
                layers[k - 1].activation.deriv_into(acts[k], deriv)
                np.multiply(below, deriv, out=below)
                delta = below


def _forward_arrays(layers, weights, biases, X: np.ndarray) -> list[np.ndarray]:
    """All layer activations for a (n, input_dim) batch; entry 0 is X itself.

    Overflow in a saturated net is not reported: the caller sees it as a
    non-finite output, the same way the training step does.
    """
    work = _Workspace(layers, X.shape[0])
    acts = work.stack(X)
    with np.errstate(all="ignore"):
        work.forward(weights, biases, acts)
    return acts


def forward(net: Network, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network on one input vector.

    Returns the output vector and the per-layer activation vectors (the
    last of which is the output itself).
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (net.config.input_dim,):
        raise ValueError(f"input has length {x.size}, expected {net.config.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    acts = _forward_arrays(net.config.layers, net.weights, net.biases, x[np.newaxis, :])
    return acts[-1][0], [a[0] for a in acts[1:]]


def as_batch_arrays(batch, net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Check that a batch is an (X, T) pair of arrays of shape (n, in_dim)
    and (n, out_dim), non-empty and finite, and return it unchanged."""
    if not (
        isinstance(batch, tuple)
        and len(batch) == 2
        and isinstance(batch[0], np.ndarray)
        and isinstance(batch[1], np.ndarray)
    ):
        raise ValueError("batch must be an (X, T) pair of arrays")
    X, T = batch
    if X.ndim != 2 or T.ndim != 2 or X.shape[0] != T.shape[0]:
        raise ValueError(f"inconsistent batch shapes {X.shape} and {T.shape}")
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[1] != net.config.input_dim:
        raise ValueError(f"batch inputs have width {X.shape[1]}, expected {net.config.input_dim}")
    if T.shape[1] != net.output_dim:
        raise ValueError(f"batch targets have width {T.shape[1]}, expected {net.output_dim}")
    if not (np.isfinite(X).all() and np.isfinite(T).all()):
        raise ValueError("batch contains non-finite values")
    return X, T


def backprop_gradients(net: Network, batch) -> tuple[Gradients, float]:
    """Gradients of the batch MSE for every weight and bias, plus that MSE."""
    X, T = as_batch_arrays(batch, net)
    work = _Workspace(net.config.layers, X.shape[0])
    acts, residual = work.stack(X), np.empty(T.shape)
    grads = zero_gradients(net)
    with np.errstate(all="ignore"):
        mse = work.score(net.weights, net.biases, acts, T, residual)
        work.backward(net.weights, acts, residual, grads.weights, grads.biases)
    return grads, mse
