"""Feedforward network state, evaluation, loss and analytic gradients.

The public functions are pure over immutable-by-convention values: none
mutates a :class:`Network` or :class:`Gradients` in place, and identical
inputs produce bit-identical outputs.  Batch reductions use a fixed
summation order, so results are reproducible across runs.  Underneath,
:class:`_Workspace` builds each pass as numpy calls on buffers it
allocates for its batch, and a training run allocates and builds them once,
in shared memory when it splits its rows between two processes.
"""

from __future__ import annotations

import contextvars
import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from .activations import _CALLS, _DERIV_CALLS, _ZERO, Activation, run_calls, scratch
from .data import check_integer


@dataclass(frozen=True)
class LayerSpec:
    """One layer: neuron count plus transfer function, e.g. 4/logsig."""

    neurons: int
    activation: Activation

    def __post_init__(self):
        check_integer("neuron count", self.neurons, 1)

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


def check_layers(layers) -> tuple[LayerSpec, ...]:
    """``layers`` as a tuple, refusing any entry that is not a :class:`LayerSpec`."""
    layers = tuple(layers)
    for k, spec in enumerate(layers):
        if not isinstance(spec, LayerSpec):
            raise ValueError(f"layer {k} must be a LayerSpec, got {spec!r}")
    return layers


@dataclass(frozen=True)
class NetworkConfig:
    """Layer specification: hidden layers followed by exactly one output layer."""

    input_dim: int
    layers: tuple[LayerSpec, ...]
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "layers", check_layers(self.layers))
        check_integer("input_dim", self.input_dim, 1)
        if len(self.layers) == 0:
            raise ValueError("need at least one layer (the output layer)")
        check_integer("seed", self.seed, 0)

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
    (fan_out,), with fan_in chaining from the previous layer; both are held as float64.
    """

    config: NetworkConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
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
            if np.count_nonzero(np.isfinite(W)) + np.count_nonzero(np.isfinite(b)) != W.size + b.size:
                raise ValueError(f"layer {k}: non-finite parameters")


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
    """Gradients-shaped float zeros in C order, the only ``out`` np.dot takes."""
    return Gradients(
        [np.zeros(W.shape) for W in net.weights],
        [np.zeros(b.shape) for b in net.biases],
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


# Batches of at least this many rows take _Workspace's long-batch forms, which give the bits
# of numpy's plain calls; shorter ones take the plain calls (np.dot for forward products of
# two or more terms, logsig's sign(z) mask), cheaper per call there.  A weight gradient of two
# or more rows is np.dot at every length.  µs per call on a (rows, 3) -> 4 layer, or one
# neuron's (rows, 1) (timeit, numpy 2.4, 1 BLAS thread); steps break even near 256 rows:
#   rows    bias add: F / plain  bias sum: einsum / add.reduce  hand-back: broadcast / matmul
#   52      1.38 / 1.29          1.92 / 1.81                    1.90 / 1.43
#   256     3.66 / 3.82          3.96 / 6.36                    4.92 / 5.09
#   20,000  57.4 / 123.6         74.5 / 345.8                   81.0 / 178.0
#   rows    forward product: matmul / dot  weight gradient: matmul / dot  1 neuron add, sum: 2-D / 1-D
#   52      1.02 / 0.68                    0.81 / 0.50                    0.81 / 0.38, 0.80 / 0.76
#   256     1.65 / 1.29                    1.23 / 0.93                    0.80 / 0.37, 0.82 / 0.78
#   20,000  21.5 / 32.1 (on the W.T copy)  42.6 / 42.2                    4.71 / 4.25, 5.78 / 5.84
#   rows    logsig mask and select: z >= 0 / sign(z)  scalar operand of np.add: float / 0-d
#   52      1.36 / 0.85                               0.55 / 0.37
#   256     2.03 / 1.73                               0.71 / 0.52
#   20,000  78.6 / 110.0                              22.2 / 21.0
# The fourth form, a contiguous (fan_in, neurons) copy of W.T as the forward
# product's operand: ~40-60 µs on 20,000 x 3 -> 4, the strided view ~120-180.
_LONG_ROWS = 256


class _Workspace:
    """The buffers of one network configuration on the batch inputs ``X``,
    allocated here, and the numpy calls of its passes on them.

    ``acts`` is the batch's one activation stack: X itself, then one
    (rows, neurons) array per layer; ``residual`` holds Y - T.  Layer k
    also owns one :func:`~hrdiag.activations.scratch` triple of shape
    (rows, neurons).  The forward pass uses it for the transfer function's
    temporaries and the backward pass for that layer's delta and
    activation derivative; the output layer's second buffer also holds
    the squared residuals of the MSE.  Passes run one at a time, so the
    sharing is safe.

    Each pass is described once, by the ``*_calls`` method that builds
    its numpy calls on given parameter arrays, every kernel form picked
    as they are built: a training run builds them once per run, a
    one-shot pass once per call (see :func:`~hrdiag.activations.run_calls`).
    The buffers come from ``empty``: shared memory for a run split between
    processes, each of which builds its calls on a :meth:`rows` view.
    """

    def __init__(self, config: NetworkConfig, X: np.ndarray, empty=np.empty):
        layers, rows = config.layers, X.shape[0]
        self.layers = layers
        self.acts = [X] + [empty((rows, spec.neurons)) for spec in layers]
        self.residual = empty((rows, config.output_dim))
        self.long = long = rows >= _LONG_ROWS
        # A float64 mask gives logsig its sign(z) form, which has no SIMD loop on long batches.
        self.work = [scratch((rows, spec.neurons), bool if long else float, empty) for spec in layers]
        # One-neuron views of W.T are already contiguous: they keep the view (None).
        self.weights_t = [empty((fan_in, spec.neurons)) if long and spec.neurons > 1
                          else None for fan_in, spec in zip(config.fan_ins(), layers)]
        # Elementwise, so "F" (rows axis innermost) changes no bit.
        self.bias_add = partial(np.add, order="F") if long else np.add
        # np.dot skips matmul's gufunc dispatch and gives its bits on a product of two or
        # more terms; on a one-term (outer) product a zero's sign or a NaN may differ.
        self.forward_products = [np.matmul if long or n < 2 else np.dot for n in config.fan_ins()]
        self.gradient_product = np.matmul if rows < 2 else np.dot
        self.total = np.empty(())
        self.sum_call = (np.add.reduce, (self.work[-1][1].reshape(-1), None, None, self.total))
        self.mse_scale = np.array(2.0 / self.residual.size)
        self.whole = True
        # numpy's error state is a context variable: ``run`` makes calls in
        # this copy, so overflow shows in outputs, not warnings.
        with np.errstate(all="ignore"):
            self.run = partial(contextvars.copy_context().run, run_calls)

    def rows(self, start: int, stop: int) -> "_Workspace":
        """Views of rows ``start:stop`` of this workspace's buffers, with its kernel forms and
        ``mse_scale``; their passes leave the ``W.T`` copies and the MSE's sum to it."""
        view = copy.copy(self)
        view.acts, view.residual = [a[start:stop] for a in self.acts], self.residual[start:stop]
        view.work = [tuple(a[start:stop] for a in triple) for triple in self.work]
        view.whole = False
        return view

    def transpose_calls(self, weights) -> list:
        """The long-batch forward operands: a contiguous copy of each ``W.T`` of two or more neurons."""
        return [(np.copyto, (W_t, W.T)) for W_t, W in zip(self.weights_t, weights) if W_t is not None]

    def forward_calls(self, weights, biases) -> list:
        """The calls that fill ``acts[1:]`` with the layer activations of ``acts[0]``."""
        calls, acts = (self.transpose_calls(weights) if self.whole else []), self.acts
        for k, spec in enumerate(self.layers):
            z, b, W_t = acts[k + 1], biases[k], self.weights_t[k]
            W = weights[k].T if W_t is None else W_t
            y, b = (z[:, 0], b[..., 0]) if spec.neurons == 1 else (z, b)  # 1 neuron: no broadcast
            calls += [(self.forward_products[k], (acts[k], W, z)), (self.bias_add, (y, b, y)),
                      *_CALLS[spec.activation](z, self.work[k])]
        return calls

    def score_calls(self, weights, biases, T) -> list:
        """The forward pass's calls, then those that leave Y - T in ``residual``
        and its sum of squares (np.mean's sum, on a 1-D view) in ``total`` for :meth:`score`."""
        squares, residual = self.work[-1][1], self.residual
        calls = self.forward_calls(weights, biases) + [
            (np.subtract, (self.acts[-1], T, residual)), (np.square, (residual, squares))]
        return calls + [self.sum_call] if self.whole else calls

    def score(self, calls) -> float:
        """Run ``calls``, ending with a score pass's, and return its MSE, divided as np.mean does."""
        self.run(calls)
        return float(self.total) / self.residual.size

    def backward_calls(self, weights, grad_w, grad_b) -> list:
        """The calls that write the batch-MSE gradients of every weight and bias into
        ``grad_w``/``grad_b``, given the last score pass under ``weights``."""
        return self.delta_calls(weights) + self.gradient_calls(grad_w, grad_b)

    def delta_calls(self, weights) -> list:
        """Backpropagation's row-local half: the output-layer delta is the MSE derivative
        times the activation derivative (written in the activation output), and deltas
        chain backwards through the weight matrices into each ``work[k][0]``."""
        work, acts, layers = self.work, self.acts, self.layers
        delta, deriv, _ = work[-1]
        calls = [(np.multiply, (self.residual, self.mse_scale, delta)),
                 *_DERIV_CALLS[layers[-1].activation](acts[-1], deriv),
                 (np.multiply, (delta, deriv, delta))]
        for k in range(len(work) - 1, 0, -1):
            below, deriv, _ = work[k - 1]
            if self.long and layers[k].neurons == 1:
                # The rank-1 product as a broadcast multiply, which is
                # faster; adding 0.0 turns its -0.0 into matmul's +0.0.
                calls += [(partial(np.multiply, order="F"), (delta, weights[k], below)),
                          (np.add, (below, _ZERO, below))]
            else:
                calls.append((np.matmul, (delta, weights[k], below)))
            calls += [*_DERIV_CALLS[layers[k - 1].activation](acts[k], deriv),
                      (np.multiply, (below, deriv, below))]
            delta = below
        return calls

    def gradient_calls(self, grad_w, grad_b) -> list:
        """The whole-batch half: per layer a weight product and a bias sum, each independent."""
        calls = []
        for k in range(len(self.work) - 1, -1, -1):
            delta = self.work[k][0]
            calls.append((self.gradient_product, (delta.T, self.acts[k], grad_w[k])))
            # Bias gradients are delta's column sums.  einsum adds row after row,
            # as np.add.reduce (axis 0) does for two or more columns; one column,
            # reduced as 1-D into a 0-d view, add.reduce sums pairwise.
            calls.append((np.add.reduce, (delta[:, 0], 0, None, grad_b[k][..., 0]))
                         if self.layers[k].neurons == 1
                         else (partial(np.einsum, "ij->j", out=grad_b[k]), (delta,)) if self.long
                         else (np.add.reduce, (delta, 0, None, grad_b[k])))
        return calls


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
    work = _Workspace(net.config, x[np.newaxis, :])
    work.run(work.forward_calls(net.weights, net.biases))
    return work.acts[-1][0], [a[0] for a in work.acts[1:]]


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
    if T.shape[1] != net.config.output_dim:
        raise ValueError(f"batch targets have width {T.shape[1]}, expected {net.config.output_dim}")
    if not (np.isfinite(X).all() and np.isfinite(T).all()):
        raise ValueError("batch contains non-finite values")
    return X, T


def _score_batch(net: Network, batch):
    """Validate an (X, T) batch and score it in one forward pass, warnings off
    as in training: the workspace, whose ``acts`` and ``residual`` now hold the
    batch's activations and Y - T, and the batch MSE."""
    X, T = as_batch_arrays(batch, net)
    work = _Workspace(net.config, X)
    return work, work.score(work.score_calls(net.weights, net.biases, T))


def backprop_gradients(net: Network, batch) -> tuple[Gradients, float]:
    """Gradients of the batch MSE for every weight and bias, plus that MSE."""
    work, mse = _score_batch(net, batch)
    grads = zero_gradients(net)
    work.run(work.backward_calls(net.weights, grads.weights, grads.biases))
    return grads, mse
