"""Shared test utilities, most importantly the finite-difference gradient
oracle.  The oracle only ever calls the forward/evaluate path, never the
backpropagation code it is used to check."""

import ctypes
import glob
import os

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from hrdiag import (
    Activation,
    Dataset,
    LayerSpec,
    Network,
    NetworkConfig,
    assign_surrogate_targets,
    evaluate,
    load_embedded,
)


def _perturbed(net, kind, layer, idx, eps):
    weights = [W.copy() for W in net.weights]
    biases = [b.copy() for b in net.biases]
    (weights if kind == "w" else biases)[layer][idx] += eps
    return Network(net.config, weights, biases)


def fd_gradients(net, batch, h=1e-5):
    """Central finite differences of the batch MSE for every parameter."""
    grad_w = [np.zeros_like(W) for W in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for k, W in enumerate(net.weights):
        for idx in np.ndindex(W.shape):
            up = evaluate(_perturbed(net, "w", k, idx, +h), batch)
            down = evaluate(_perturbed(net, "w", k, idx, -h), batch)
            grad_w[k][idx] = (up - down) / (2.0 * h)
    for k, b in enumerate(net.biases):
        for idx in np.ndindex(b.shape):
            up = evaluate(_perturbed(net, "b", k, idx, +h), batch)
            down = evaluate(_perturbed(net, "b", k, idx, -h), batch)
            grad_b[k][idx] = (up - down) / (2.0 * h)
    return grad_w, grad_b


def gradient_check(analytic, fd_w, fd_b, rel_tol=1e-6, abs_floor=1e-8):
    """Two-sided comparison: every entry must agree with the oracle either
    to ``rel_tol`` relatively or to ``abs_floor`` absolutely (the near-zero
    escape).  Returns (ok, worst_relative, worst_absolute)."""
    ok = True
    worst_rel = 0.0
    worst_abs = 0.0
    for a, f in zip(list(analytic.weights) + list(analytic.biases), fd_w + fd_b):
        diff = np.abs(a - f)
        scale = np.maximum(np.abs(a), np.abs(f))
        worst_abs = max(worst_abs, float(diff.max()))
        big = diff >= abs_floor
        if big.any():
            rel = float(np.max(diff[big] / scale[big]))
            worst_rel = max(worst_rel, rel)
            ok = ok and rel < rel_tol
    return ok, worst_rel, worst_abs


_ACTIVATIONS = (Activation.TANSIG, Activation.LOGSIG, Activation.PURELIN)


def random_config(rng, max_layers=3, max_neurons=8, max_inputs=5):
    n_layers = int(rng.integers(1, max_layers + 1))
    layers = tuple(
        LayerSpec(int(rng.integers(1, max_neurons + 1)), _ACTIVATIONS[int(rng.integers(0, 3))])
        for _ in range(n_layers)
    )
    return NetworkConfig(int(rng.integers(1, max_inputs + 1)), layers,
                         seed=int(rng.integers(0, 2**31)))


def random_batch(rng, config, max_patterns=8):
    n = int(rng.integers(1, max_patterns + 1))
    X = rng.uniform(-1.0, 1.0, size=(n, config.input_dim))
    T = rng.uniform(-0.9, 0.9, size=(n, config.layers[-1].neurons))
    return X, T


def raw_embedded_dataset(threshold=2.5):
    """Bundled data with surrogate targets, left in raw coordinates (the
    original experiment never documented input scaling)."""
    raw = load_embedded()
    return Dataset(
        assign_surrogate_targets(raw.training, threshold),
        assign_surrogate_targets(raw.testing, threshold),
    )


def platform_fingerprint() -> tuple[str, str]:
    """The kernel numpy's bundled OpenBLAS runs on (e.g. "SkylakeX") and
    numpy's highest enabled X86_V level: the golden digests hold on one
    pair of them alone.  A core that cannot be read is "unknown"."""
    top = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(top, os.pardir, "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(top, ".dylibs", "*openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    else:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    level = next((v for v in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(v)),
                 "below X86_V2")
    return core, level
