"""Transfer functions for the diagnostic network.

The three kinds keep their classic toolbox names so that architecture
strings such as "4/logsig" read identically in configs, reports and
saved models: tansig (tanh shape, range (-1, 1)), logsig (logistic
sigmoid, range (0, 1)) and purelin (identity).

Each function and derivative is described once, as the numpy calls it
makes in place on buffers the caller owns: a list of ``(function,
arguments)`` pairs that :func:`run_calls` makes in order.  The training
kernel builds these lists once per run, on buffers it allocates once;
logsig picks its numerator mask call by the dtype of the mask buffer
when its calls are built.  :meth:`Activation.apply` and
:meth:`Activation.deriv_from_output` build the calls and make them once.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

# Read-only float64 0-d operands: ufuncs convert a Python float on every call.
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = _ONE.flags.writeable = False


def run_calls(calls) -> None:
    """Make each ``(function, arguments)`` call of ``calls``, in order."""
    for fn, args in calls:
        fn(*args)


def scratch(shape, mask=bool, empty=np.empty) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Temporaries for an in-place transfer function on an array of
    ``shape``, from ``empty``: two float64 arrays and a mask of dtype ``mask``."""
    return empty(shape), empty(shape), empty(shape, mask)


def _maximum(x, y, out) -> None:
    # numpy 2.4 deprecates a third positional argument to np.maximum.
    np.maximum(x, y, out=out)


def tansig_calls(z, work) -> list:
    """Tanh-shaped sigmoid, algebraically 2 / (1 + exp(-2z)) - 1, in place."""
    return [(np.tanh, (z, z))]


def logsig_calls(z, work) -> list:
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
    sign = (np.greater_equal, (z, _ZERO, mask)) if mask.dtype == bool else (np.sign, (z, mask))
    return [(np.abs, (z, e)), (np.negative, (e, e)), (np.exp, (e, e)), (np.add, (e, _ONE, d)),
            sign, (_maximum, (e, mask, e)), (np.divide, (e, d, z))]


def purelin_calls(z, work) -> list:
    """Identity: no call."""
    return []


def tansig_deriv_calls(output, out) -> list:
    """Derivative of tansig written in terms of its output: 1 - o**2."""
    return [(np.square, (output, out)), (np.subtract, (_ONE, out, out))]


def logsig_deriv_calls(output, out) -> list:
    """Derivative of logsig written in terms of its output: o * (1 - o)."""
    return [(np.subtract, (_ONE, output, out)), (np.multiply, (output, out, out))]


def purelin_deriv_calls(output, out) -> list:
    return [(out.fill, (1.0,))]


class Activation(Enum):
    """Supported transfer functions, keyed by their config-string names."""

    TANSIG = "tansig"
    LOGSIG = "logsig"
    PURELIN = "purelin"

    __hash__ = object.__hash__  # agrees with ==, identity; Enum's own hash runs Python code

    def apply(self, x):
        """The transfer function of ``x`` (a value or an array), freshly allocated."""
        z = np.array(x, dtype=float)
        run_calls(_CALLS[self](z, scratch(z.shape)))
        return z[()]

    def deriv_from_output(self, output):
        """Derivative evaluated from the activation output, not the input."""
        output = np.asarray(output, dtype=float)
        out = np.empty_like(output)
        run_calls(_DERIV_CALLS[self](output, out))
        return out[()]


_CALLS = dict(zip(Activation, (tansig_calls, logsig_calls, purelin_calls)))
_DERIV_CALLS = dict(zip(Activation, (tansig_deriv_calls, logsig_deriv_calls, purelin_deriv_calls)))
