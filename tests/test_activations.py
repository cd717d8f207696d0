import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrdiag.activations import Activation, logsig_calls, run_calls, scratch


def test_known_points():
    assert Activation.TANSIG.apply(0.0) == 0.0
    assert Activation.LOGSIG.apply(0.0) == 0.5
    assert Activation.PURELIN.apply(-3.25) == -3.25
    assert Activation.TANSIG.apply(1.0) == pytest.approx(np.tanh(1.0))


def test_tansig_matches_algebraic_form():
    x = np.linspace(-10.0, 10.0, 2001)
    reference = 2.0 / (1.0 + np.exp(-2.0 * x)) - 1.0
    np.testing.assert_allclose(Activation.TANSIG.apply(x), reference, rtol=1e-12, atol=1e-15)


def test_logsig_matches_naive_form():
    x = np.linspace(-30.0, 30.0, 2001)
    np.testing.assert_allclose(Activation.LOGSIG.apply(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)


def test_extreme_inputs_saturate_without_overflow():
    x = np.array([-1e6, -1e3, -750.0, -36.0, 36.0, 750.0, 1e3, 1e6])
    # Underflow to zero is the intended saturation path; anything else is a bug.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        t = Activation.TANSIG.apply(x)
        s = Activation.LOGSIG.apply(x)
    assert np.isfinite(t).all() and np.isfinite(s).all()
    assert np.all(t >= -1.0) and np.all(t <= 1.0)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert t[0] == -1.0 and t[-1] == 1.0  # float64 saturation at the extremes


def test_outputs_strictly_interior_on_moderate_range():
    rng = np.random.default_rng(7)
    x = rng.uniform(-15.0, 15.0, size=5000)
    t = Activation.TANSIG.apply(x)
    s = Activation.LOGSIG.apply(x)
    assert np.all(t > -1.0) and np.all(t < 1.0)
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_derivative_identities():
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 10.0, size=1000)
    t = Activation.TANSIG.apply(x)
    s = Activation.LOGSIG.apply(x)
    np.testing.assert_allclose(Activation.TANSIG.deriv_from_output(t), 1.0 - t**2,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(Activation.LOGSIG.deriv_from_output(s), s * (1.0 - s),
                               rtol=0, atol=1e-12)
    purelin = Activation.PURELIN
    np.testing.assert_array_equal(purelin.deriv_from_output(purelin.apply(x)), np.ones_like(x))


@pytest.mark.parametrize("fn,dfn", [
    (Activation.TANSIG.apply, Activation.TANSIG.deriv_from_output),
    (Activation.LOGSIG.apply, Activation.LOGSIG.deriv_from_output),
], ids=["tansig-tansig_deriv", "logsig-logsig_deriv"])
def test_derivatives_match_finite_differences(fn, dfn):
    rng = np.random.default_rng(13)
    x = rng.uniform(-10.0, 10.0, size=500)
    h = 1e-6
    numeric = (fn(x + h) - fn(x - h)) / (2.0 * h)
    np.testing.assert_allclose(dfn(fn(x)), numeric, atol=1e-8)


def test_enum_dispatch_matches_functions():
    assert Activation("purelin") is Activation.PURELIN
    with pytest.raises(ValueError):
        Activation("relu")


def where_logsig(x):
    """The textbook stable logsig: both branches divided, then selected."""
    with np.errstate(all="ignore"):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def logsig_in_place(x, mask=bool):
    """logsig of a copy of ``x`` through a scratch mask of dtype ``mask``:
    bool takes the numerator mask z >= 0, float64 takes sign(z)."""
    z = x.copy()
    run_calls(logsig_calls(z, scratch(z.shape, mask)))
    return z


# Both numerator masks: the epoch kernel takes sign(z) below network._LONG_ROWS rows.
MASKS = (bool, float)
SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.0**-1022, -(2.0**-1022), 1e308, -1e308])


def test_logsig_matches_where_form_bit_for_bit():
    # The in-place logsig computes one divide where the textbook stable
    # form computes two; every bit must agree, signed zero, inf and NaN
    # included, with either mask.
    x = np.array([-np.inf, -1e6, -750.0, -36.0, -1.5, -1e-300, -0.0, 0.0, 1e-300,
                  0.7, 36.0, 750.0, np.inf, np.nan])
    x = np.concatenate([x, np.random.default_rng(5).normal(0.0, 8.0, size=2000)])
    reference = where_logsig(x)
    assert Activation.LOGSIG.apply(x).tobytes() == reference.tobytes()
    for mask in MASKS:
        assert logsig_in_place(x.reshape(-1, 2), mask).tobytes() == reference.tobytes(), mask


@settings(deadline=None, max_examples=200)
@given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 64), st.integers(1, 5)),
                    elements=st.floats(allow_subnormal=True)))
@example(x=SPECIALS.reshape(-1, 2))
def test_logsig_in_place_matches_where_form_on_any_floats(x):
    # NaN, +-inf, signed zeros and subnormals are all drawn.
    for mask in MASKS:
        assert logsig_in_place(x, mask).tobytes() == where_logsig(x).tobytes(), mask


def test_logsig_in_place_matches_where_form_on_a_large_mixed_batch():
    # A 20,000-row 4/logsig hidden layer: the shape the epoch kernel runs
    # on its largest batches.
    x = np.random.default_rng(17).normal(0.0, 4.0, size=(20_000, 4))
    for mask in MASKS:
        assert logsig_in_place(x, mask).tobytes() == where_logsig(x).tobytes(), mask
