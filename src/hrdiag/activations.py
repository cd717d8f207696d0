"""Transfer functions for the diagnostic network.

The three kinds keep their classic toolbox names so that architecture
strings such as "4/logsig" read identically in configs, reports and
saved models: tansig (tanh shape, range (-1, 1)), logsig (logistic
sigmoid, range (0, 1)) and purelin (identity).

Each function and derivative is one in-place function writing into
buffers the caller owns (the training kernel allocates them once per
run); logsig's picks its numerator mask by the dtype of the caller's
mask buffer.  :meth:`Activation.apply` and
:meth:`Activation.deriv_from_output` run them on fresh buffers.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

# Read-only float64 0-d operands: ufuncs convert a Python float on every call.
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = _ONE.flags.writeable = False


def scratch(shape, mask=bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Temporaries for an in-place transfer function on an array of
    ``shape``: two float64 arrays and a mask of dtype ``mask``."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=mask)


def tansig_into(z, work) -> None:
    """Tanh-shaped sigmoid, algebraically 2 / (1 + exp(-2z)) - 1, in place."""
    np.tanh(z, out=z)


def logsig_into(z, work) -> None:
    """Logistic sigmoid 1 / (1 + exp(-z)), in place.

    exp() is only taken of non-positive arguments, so extreme inputs
    saturate cleanly instead of overflowing: with e = exp(-|z|) the result
    is 1 / (1 + e) for z >= 0 and e / (1 + e) below.  The numerator is the
    dense select max(e, z >= 0), several times faster than a masked store
    on large batches and exact: 1 where z >= 0 (-0.0 too), as e <= 1
    there, and e elsewhere, as e >= 0 (NaN fails the mask; max keeps it).
    A float64 mask buffer takes max(e, sign(z)) instead, the same bits
    without max's bool-to-float cast, cheaper below a few hundred rows:
    e = 1 at z = +-0, e >= 0 > -1 below, and max returns its first NaN, e.
    """
    e, d, mask = work
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, _ONE, out=d)
    if mask.dtype == bool:
        np.greater_equal(z, _ZERO, out=mask)
    else:
        np.sign(z, out=mask)
    np.maximum(e, mask, out=e)
    np.divide(e, d, out=z)


def purelin_into(z, work) -> None:
    """Identity: nothing to do."""


def tansig_deriv_into(output, out) -> None:
    """Derivative of tansig written in terms of its output: 1 - o**2."""
    np.square(output, out=out)
    np.subtract(_ONE, out, out=out)


def logsig_deriv_into(output, out) -> None:
    """Derivative of logsig written in terms of its output: o * (1 - o)."""
    np.subtract(_ONE, output, out=out)
    np.multiply(output, out, out=out)


def purelin_deriv_into(output, out) -> None:
    out.fill(1.0)


class Activation(Enum):
    """Supported transfer functions, keyed by their config-string names."""

    TANSIG = "tansig"
    LOGSIG = "logsig"
    PURELIN = "purelin"

    def apply(self, x):
        """The transfer function of ``x`` (a value or an array), freshly allocated."""
        z = np.array(x, dtype=float)
        _APPLY[self](z, scratch(z.shape))
        return z[()]

    def deriv_from_output(self, output):
        """Derivative evaluated from the activation output, not the input."""
        output = np.asarray(output, dtype=float)
        out = np.empty_like(output)
        _DERIV[self](output, out)
        return out[()]


_APPLY = {
    Activation.TANSIG: tansig_into,
    Activation.LOGSIG: logsig_into,
    Activation.PURELIN: purelin_into,
}

_DERIV = {
    Activation.TANSIG: tansig_deriv_into,
    Activation.LOGSIG: logsig_deriv_into,
    Activation.PURELIN: purelin_deriv_into,
}
