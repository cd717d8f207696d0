import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from hrdiag.activations import run_calls
from hrdiag.network import _LONG_ROWS, _Workspace, as_batch_arrays, zero_gradients

from helpers import fd_gradients, gradient_check, random_batch, random_config

TANSIG = Activation.TANSIG
LOGSIG = Activation.LOGSIG
PURELIN = Activation.PURELIN


def zeroed(config):
    """A network with all weights and biases set to zero."""
    net = init_network(config)
    return Network(config, [np.zeros_like(W) for W in net.weights],
                   [np.zeros_like(b) for b in net.biases])


class TestLayerSpec:
    def test_parse_and_label(self):
        spec = LayerSpec.parse("4/logsig")
        assert spec == LayerSpec(4, LOGSIG)
        assert spec.label == "4/logsig"

    @pytest.mark.parametrize("bad", ["4", "x/logsig", "4/relu", "0/tansig", "4/logsig/1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            LayerSpec.parse(bad)


class TestInitNetwork:
    def test_shape_chaining(self):
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=42)
        net = init_network(config)
        assert [W.shape for W in net.weights] == [(4, 3), (1, 4)]
        assert [b.shape for b in net.biases] == [(4,), (1,)]

    def test_same_seed_bit_identical(self):
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=7)
        a, b = init_network(config), init_network(config)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        layers = (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG))
        a = init_network(NetworkConfig(3, layers, seed=1))
        b = init_network(NetworkConfig(3, layers, seed=2))
        assert any(
            not np.array_equal(x, y)
            for x, y in zip(a.weights + a.biases, b.weights + b.biases)
        )

    def test_uniform_bounds(self):
        net = init_network(NetworkConfig(5, (LayerSpec(8, TANSIG), LayerSpec(8, LOGSIG),
                                             LayerSpec(1, TANSIG)), seed=3))
        for arr in net.weights + net.biases:
            assert np.all(arr >= -0.5) and np.all(arr <= 0.5)

    def test_rejects_invalid_configs(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, (LayerSpec(1, TANSIG),))
        with pytest.raises(ValueError):
            NetworkConfig(3, ())
        with pytest.raises(ValueError):
            LayerSpec(0, TANSIG)
        with pytest.raises(ValueError, match="input_dim"):
            NetworkConfig(True, (LayerSpec(1, TANSIG),))
        # Unchecked, a layer given as text built and failed in init_network.
        with pytest.raises(ValueError, match="^layer 0 must be a LayerSpec, got '4/logsig'$"):
            NetworkConfig(3, ("4/logsig",))
        with pytest.raises(ValueError, match="^layer 1 must be a LayerSpec, got None$"):
            NetworkConfig(3, (LayerSpec(4, LOGSIG), None))

    @pytest.mark.parametrize("neurons", [True, False, 4.0, "4", None])
    def test_neuron_count_must_be_an_integer(self, neurons):
        with pytest.raises(ValueError, match="neuron count must be an integer"):
            LayerSpec(neurons, TANSIG)


class TestNetworkChecks:
    CONFIG = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=0)

    @pytest.mark.parametrize("n_weights, n_biases", [(1, 2), (2, 1)])
    def test_one_weight_matrix_and_one_bias_vector_per_layer(self, n_weights, n_biases):
        net = init_network(self.CONFIG)
        with pytest.raises(ValueError, match="one weight matrix and one bias vector per layer"):
            Network(self.CONFIG, net.weights[:n_weights], net.biases[:n_biases])

    def test_a_bias_of_the_wrong_length_is_refused(self):
        net = init_network(self.CONFIG)
        with pytest.raises(ValueError, match=r"^layer 0: bias shape \(3,\), expected \(4,\)$"):
            Network(self.CONFIG, net.weights, [net.biases[0][:3], net.biases[1]])

    def test_a_non_finite_bias_is_refused_beside_finite_weights(self):
        net = init_network(self.CONFIG)
        with pytest.raises(ValueError, match="^layer 1: non-finite parameters$"):
            Network(self.CONFIG, net.weights, [net.biases[0], np.array([np.nan])])

    def test_a_non_finite_target_is_refused_beside_finite_inputs(self):
        net = init_network(self.CONFIG)
        batch = (np.zeros((2, 3)), np.array([[0.5], [np.nan]]))
        with pytest.raises(ValueError, match="^batch contains non-finite values$"):
            as_batch_arrays(batch, net)

    # Each batch has one bad part, so each structural check must catch it
    # itself: numpy's own unpack and broadcast failures raise other messages.
    @pytest.mark.parametrize("batch, message", [
        ((np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((2, 1))), "batch must be an (X, T) pair of arrays"),
        (([[0.0, 0.0, 0.0]] * 2, np.zeros((2, 1))), "batch must be an (X, T) pair of arrays"),
        ((np.zeros((2, 3)), [[0.0]] * 2), "batch must be an (X, T) pair of arrays"),
        ((np.zeros(2), np.zeros((2, 1))), "inconsistent batch shapes (2,) and (2, 1)"),
        ((np.zeros((2, 3)), np.zeros(2)), "inconsistent batch shapes (2, 3) and (2,)"),
        ((np.zeros((2, 3)), np.zeros((3, 1))), "inconsistent batch shapes (2, 3) and (3, 1)"),
    ], ids=["three-tuple", "list-X", "list-T", "1-D-X", "1-D-T", "rows-differ"])
    def test_a_batch_with_one_bad_part_is_refused(self, batch, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_batch_arrays(batch, init_network(self.CONFIG))


class TestForward:
    def test_zero_net_tansig_outputs_zero(self):
        net = zeroed(NetworkConfig(3, (LayerSpec(1, TANSIG),), seed=0))
        out, _ = forward(net, [1.0, -2.0, 0.5])
        assert out.tolist() == [0.0]

    def test_zero_net_logsig_hidden_at_half(self):
        net = zeroed(NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=0))
        _, acts = forward(net, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(acts[0], [0.5, 0.5, 0.5, 0.5])

    def test_purelin_affine_map(self):
        config = NetworkConfig(3, (LayerSpec(1, PURELIN),), seed=0)
        net = Network(config, [np.array([[1.0, 1.0, 1.0]])], [np.array([0.0])])
        out, acts = forward(net, [1.0, 2.0, 3.0])
        assert out.tolist() == [6.0]
        assert acts[-1].tolist() == [6.0]

    def test_dimension_mismatch_reported(self):
        net = zeroed(NetworkConfig(3, (LayerSpec(1, TANSIG),), seed=0))
        with pytest.raises(ValueError, match="length 2"):
            forward(net, [1.0, 2.0])

    def test_non_finite_input_rejected(self):
        net = zeroed(NetworkConfig(3, (LayerSpec(1, TANSIG),), seed=0))
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, [1.0, np.nan, 0.0])

    def test_forward_is_pure(self):
        net = init_network(NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=5))
        x = [0.3, -0.7, 1.1]
        out1, _ = forward(net, x)
        out2, _ = forward(net, x)
        np.testing.assert_array_equal(out1, out2)


def identity_net(width):
    """A purelin net whose outputs are exactly its inputs."""
    config = NetworkConfig(width, (LayerSpec(width, PURELIN),), seed=0)
    return Network(config, [np.eye(width)], [np.zeros(width)])


class TestComputeMse:
    """The batch MSE that evaluate reports.  On an identity net the outputs
    are the batch inputs X, so each case reads as outputs against T."""

    def test_zero_residual(self):
        batch = (np.array([[0.2], [0.4]]), np.array([[0.2], [0.4]]))
        assert evaluate(identity_net(1), batch) == 0.0

    def test_mean_over_patterns(self):
        batch = (np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]]))
        assert evaluate(identity_net(1), batch) == 1.0

    def test_single_pattern(self):
        batch = (np.array([[0.5]]), np.array([[0.9]]))
        assert evaluate(identity_net(1), batch) == pytest.approx(0.16, abs=1e-12)

    def test_mean_over_components_too(self):
        # Residuals 1 and 0 in one pattern average to 0.5.
        batch = (np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]]))
        assert evaluate(identity_net(2), batch) == 0.5

    def test_errors(self):
        net = identity_net(1)
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, (np.empty((0, 1)), np.empty((0, 1))))
        with pytest.raises(ValueError):
            evaluate(net, (np.array([[0.0]]), np.array([[0.0], [1.0]])))
        with pytest.raises(ValueError):
            evaluate(net, (np.array([[0.0]]), np.array([[0.0, 1.0]])))


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.0**-1022, -1e308, 1e308)
# _Workspace takes numpy's plain calls (np.dot for a product of two or more
# terms) below _LONG_ROWS rows and its long-batch forms from there on, apart
# from the weight gradient, np.dot from two rows on: each kernel-form test
# pins both sides.
EDGE_ROWS = (_LONG_ROWS - 1, _LONG_ROWS)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 3000),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1020),
    specials=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIAL_VALUES)),
                      max_size=8),
)
@example(rows=EDGE_ROWS[0], cols=4, seed=1, spread=30, specials=[(5, -0.0), (9, np.nan)])
@example(rows=EDGE_ROWS[1], cols=4, seed=1, spread=30, specials=[(5, -0.0), (9, np.nan)])
def test_bias_gradient_is_the_axis0_reduce_of_delta(rows, cols, seed, spread, specials):
    # Whichever reducer a layer uses, its bias gradient must be the bytes
    # np.add.reduce(delta, axis=0) gives: row after row for two or more
    # columns, pairwise for one.  Exponents span up to +-spread.
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-spread, spread + 1, size=(rows, cols))
    residual = np.ldexp(rng.standard_normal((rows, cols)), exponents)
    for at, value in specials:
        residual.flat[at % residual.size] = value
    work = _Workspace(NetworkConfig(1, (LayerSpec(cols, PURELIN),)), np.ones((rows, 1)))
    work.acts[1][:], work.residual[:] = 0.0, residual
    grad_w, grad_b = [np.empty((cols, 1))], [np.empty(cols)]
    with np.errstate(all="ignore"):
        run_calls(work.backward_calls([np.zeros((cols, 1))], grad_w, grad_b))
        want = np.add.reduce(work.work[0][0], axis=0)  # the output delta
    assert grad_b[0].tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 3000),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1020),
    specials=st.lists(st.tuples(st.booleans(), st.integers(0, 2**31),
                                st.sampled_from(SPECIAL_VALUES)), max_size=8),
)
@example(rows=EDGE_ROWS[0], cols=4, seed=2, spread=30, specials=[(True, 1, -0.0), (False, 3, np.nan)])
@example(rows=EDGE_ROWS[1], cols=4, seed=2, spread=30, specials=[(True, 1, -0.0), (False, 3, np.nan)])
def test_one_neuron_hand_back_is_the_matmul(rows, cols, seed, spread, specials):
    # On a long batch a one-neuron layer hands its delta back with a
    # broadcast multiply; the bytes must be those of np.matmul(delta, W),
    # zero signs and NaNs included.  Purelin below it makes the hand-back the lower delta.
    rng = np.random.default_rng(seed)
    residual = np.ldexp(rng.standard_normal((rows, 1)), rng.integers(-spread, spread + 1, (rows, 1)))
    W = np.ldexp(rng.standard_normal((1, cols)), rng.integers(-spread, spread + 1, (1, cols)))
    for in_weights, at, value in specials:
        target = W if in_weights else residual
        target.flat[at % target.size] = value
    work = _Workspace(NetworkConfig(1, (LayerSpec(cols, PURELIN), LayerSpec(1, PURELIN))),
                      np.ones((rows, 1)))
    work.acts[1][:], work.acts[2][:], work.residual[:] = 0.0, 0.0, residual
    grad_w, grad_b = [np.empty((cols, 1)), np.empty((1, cols))], [np.empty(cols), np.empty(1)]
    with np.errstate(all="ignore"):
        run_calls(work.backward_calls([np.zeros((cols, 1)), W], grad_w, grad_b))
        want = np.matmul(work.work[1][0], W)  # the output delta, handed back
    assert work.work[0][0].tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 3000),
    fan_in=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1020),
    specials=st.lists(st.tuples(st.booleans(), st.integers(0, 2**31),
                                st.sampled_from(SPECIAL_VALUES)), max_size=8),
)
# One row makes the product a one-term (outer) product, whose zero sign
# np.dot need not share with np.matmul: a 0.0 input against a negative delta.
@example(rows=1, fan_in=1, cols=1, seed=4, spread=30,
         specials=[(True, 0, 0.0), (False, 0, -1.0)])
@example(rows=2, fan_in=3, cols=4, seed=4, spread=30,
         specials=[(True, 1, 0.0), (False, 0, -1.0)])
@example(rows=EDGE_ROWS[0], fan_in=3, cols=4, seed=4, spread=30,
         specials=[(True, 1, -0.0), (False, 3, np.nan)])
@example(rows=EDGE_ROWS[1], fan_in=3, cols=4, seed=4, spread=30,
         specials=[(True, 1, -0.0), (False, 3, np.nan)])
def test_weight_gradient_is_the_matmul_of_delta_and_inputs(rows, fan_in, cols, seed, spread,
                                                          specials):
    # Whichever entry point a batch length takes, the weight gradient must
    # be the bytes of np.matmul(delta.T, inputs), zero signs and NaNs included.
    rng = np.random.default_rng(seed)

    def draw(shape):
        return np.ldexp(rng.standard_normal(shape), rng.integers(-spread, spread + 1, shape))

    X, residual = draw((rows, fan_in)), draw((rows, cols))
    for in_inputs, at, value in specials:
        target = X if in_inputs else residual
        target.flat[at % target.size] = value
    work = _Workspace(NetworkConfig(fan_in, (LayerSpec(cols, PURELIN),)), X)
    work.acts[1][:], work.residual[:] = 0.0, residual
    grad_w, grad_b = [np.empty((cols, fan_in))], [np.empty(cols)]
    with np.errstate(all="ignore"):
        run_calls(work.backward_calls([np.zeros((cols, fan_in))], grad_w, grad_b))
        want = np.matmul(work.work[0][0].T, X)  # the output delta against the inputs
    assert grad_w[0].tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rows=st.one_of(st.integers(1, _LONG_ROWS - 1), st.integers(_LONG_ROWS, 3000)),
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=3),
    kinds=st.lists(st.sampled_from(list(Activation)), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1020),
    zero_biases=st.sampled_from([None, 0.0, -0.0]),
    specials=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**31),
                                st.sampled_from(SPECIAL_VALUES)), max_size=8),
)
@example(rows=EDGE_ROWS[0], widths=[3, 4, 1], kinds=[Activation.LOGSIG, Activation.TANSIG],
         seed=3, spread=30, zero_biases=None, specials=[(0, 7, -0.0)])
@example(rows=EDGE_ROWS[1], widths=[3, 4, 1], kinds=[Activation.LOGSIG, Activation.TANSIG],
         seed=3, spread=30, zero_biases=None, specials=[(0, 7, -0.0)])
# A logsig layer on both sides of _LONG_ROWS, one form of its numerator mask
# each (sign(z), then z >= 0), with NaN, +-inf and signed zeros in z.
@example(rows=EDGE_ROWS[0], widths=[1, 4], kinds=[LOGSIG, LOGSIG], seed=5, spread=1,
         zero_biases=-0.0, specials=[(0, 0, np.nan), (0, 1, np.inf), (0, 2, -np.inf),
                                     (0, 3, 0.0), (0, 4, -0.0)])
@example(rows=EDGE_ROWS[1], widths=[1, 4], kinds=[LOGSIG, LOGSIG], seed=5, spread=1,
         zero_biases=-0.0, specials=[(0, 0, np.nan), (0, 1, np.inf), (0, 2, -np.inf),
                                     (0, 3, 0.0), (0, 4, -0.0)])
# A subnormal input whose products underflow: on OpenBLAS's AVX-512 kernel a
# contiguous copy of W.T gives +0.0 here where the view gives -0.0.
@example(rows=2, widths=[1, 2, 3], kinds=[TANSIG, TANSIG], seed=0, spread=1,
         zero_biases=-0.0, specials=[(0, 0, 5e-324)])
# A fan_in of 1 makes the product a one-term (outer) product, whose zero sign
# np.dot need not share with np.matmul: an exact 0.0 against a negative weight,
# plus a -0.0 bias, carries the product's sign to the output.  First an input
# width of 1, then a one-neuron hidden layer whose output is that 0.0.
@example(rows=1, widths=[1, 1], kinds=[PURELIN, PURELIN], seed=0, spread=1,
         zero_biases=-0.0, specials=[(0, 0, 0.0), (1, 0, -1.0)])
@example(rows=1, widths=[3, 1, 1], kinds=[TANSIG, TANSIG], seed=0, spread=1, zero_biases=-0.0,
         specials=[(0, 0, 0.0), (0, 1, 0.0), (0, 2, 0.0), (1, 0, 1.0), (1, 1, 1.0), (1, 2, 1.0),
                   (2, 0, -1.0)])
def test_forward_is_the_matmul_of_the_transposed_weights(rows, widths, kinds, seed, spread,
                                                         zero_biases, specials):
    # Below _LONG_ROWS the forward pass takes np.dot (np.matmul for a fan_in
    # of 1), the bias add and the transfer function, so its bytes must be
    # those of np.matmul(a, W.T), the bias add and Activation.apply, layer by
    # layer.  A long batch multiplies by a contiguous copy of W.T.
    rng = np.random.default_rng(seed)

    def draw(shape):
        return np.ldexp(rng.standard_normal(shape), rng.integers(-spread, spread + 1, shape))

    layers = tuple(LayerSpec(n, kind) for n, kind in zip(widths[1:], kinds))
    X = draw((rows, widths[0]))
    weights = [draw((n, fan_in)) for fan_in, n in zip(widths, widths[1:])]
    biases = [draw(n) if zero_biases is None else np.full(n, zero_biases) for n in widths[1:]]
    for where, at, value in specials:
        target = [X, *weights][where % (1 + len(weights))]
        target.flat[at % target.size] = value
    work = _Workspace(NetworkConfig(widths[0], layers), X)
    exact = True
    with np.errstate(all="ignore"):
        run_calls(work.forward_calls(weights, biases))
        want = X
        for got, W, b, spec in zip(work.acts[1:], weights, biases, layers):
            a = want[:, np.newaxis, :]
            products = a * W
            # Where a product of non-zero factors underflows, or two NaNs
            # meet in one output, OpenBLAS's AVX-512 kernel gives the copy
            # another zero sign or NaN sign than the view: from there on, a
            # long batch's values alone must agree.
            underflow = (a != 0) & (W != 0) & (np.abs(products) < np.finfo(float).tiny)
            nans_meet = (np.isnan(a) & np.isnan(W)).any(axis=2) | (np.isnan(products).sum(axis=2) > 1)
            exact = exact and not (rows >= _LONG_ROWS and (underflow.any() or nans_meet.any()))
            want = spec.activation.apply(np.matmul(want, W.T) + b)
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    kinds=st.lists(st.sampled_from(list(Activation)), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1023),
)
# A fan_in of 1 (np.matmul's one-term product), then np.dot with a one-neuron layer.
@example(widths=[1, 2, 1], kinds=[LOGSIG, PURELIN, TANSIG], seed=0, spread=1023)
@example(widths=[4, 3, 1, 4], kinds=[TANSIG, LOGSIG, LOGSIG], seed=1, spread=1023)
def test_forward_gives_a_one_row_workspaces_bytes(widths, kinds, seed, spread):
    # forward builds no _Workspace, but makes a one-row workspace's calls on the same
    # operand forms: the output and every layer's activation must be its bytes, with
    # finite inputs and weights large enough to overflow, and no warning.
    rng = np.random.default_rng(seed)

    def draw(shape):
        return np.ldexp(rng.uniform(-1.0, 1.0, shape), rng.integers(-spread, spread + 1, shape))

    config = NetworkConfig(widths[0], tuple(map(LayerSpec, widths[1:], kinds)))
    net = Network(config, [draw((n, fan_in)) for fan_in, n in zip(widths, widths[1:])],
                  [draw(n) for n in widths[1:]])
    x = draw(widths[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, acts = forward(net, x)
    work = _Workspace(config, x[np.newaxis, :])
    work.run(work.forward_calls(net.weights, net.biases))
    assert [(a.shape, a.tobytes()) for a in [out, *acts]] == [
        (a[0].shape, a[0].tobytes()) for a in [work.acts[-1], *work.acts[1:]]]


@pytest.mark.parametrize("rows", [_LONG_ROWS, 4096, 20_000])
@pytest.mark.parametrize("labels", [("4/logsig", "1/tansig"), ("2/tansig", "4/logsig", "1/purelin"),
                                    ("1/logsig", "2/tansig")])
def test_long_batch_weight_gradients_are_the_matmul(rows, labels):
    # A long batch's weight gradients are np.dot products too: on whole score
    # and backward passes, with 1-, 2- and 4-neuron layers, their bytes must be
    # those of the same passes built with np.matmul.
    config = NetworkConfig(3, tuple(map(LayerSpec.parse, labels)), seed=rows)
    net, rng = init_network(config), np.random.default_rng(rows)
    X, T = rng.uniform(-1.0, 1.0, (rows, 3)), rng.uniform(-0.9, 0.9, (rows, config.output_dim))
    work = _Workspace(config, X)
    assert work.gradient_product is np.dot
    got = []
    for product in (np.dot, np.matmul):
        work.gradient_product = product
        grads = zero_gradients(net)
        work.run(work.score_calls(net.weights, net.biases, T)
                 + work.backward_calls(net.weights, grads.weights, grads.biases))
        got.append([g.tobytes() for g in grads.weights])
    assert got[0] == got[1]


@pytest.mark.parametrize("rows,mask", [(EDGE_ROWS[0], np.float64), (EDGE_ROWS[1], np.bool_)])
def test_the_batch_length_picks_the_logsig_mask(rows, mask):
    # A float64 mask buffer makes logsig take sign(z) as its numerator mask.
    work = _Workspace(NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG))),
                      np.zeros((rows, 3)))
    assert [w[2].dtype for w in work.work] == [mask, mask]


class TestBackpropGradients:
    def test_zero_residual_means_zero_gradients(self):
        config = NetworkConfig(3, (LayerSpec(1, PURELIN),), seed=0)
        net = Network(config, [np.array([[1.0, 0.0, 2.0]])], [np.array([0.5])])
        batch = (np.array([[1.0, 5.0, 2.0], [0.0, 1.0, 0.0]]), np.array([[5.5], [0.5]]))
        grads, mse = backprop_gradients(net, batch)
        assert mse == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_the_weights_memory_layout_changes_no_gradient_bit(self):
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=5)
        net = init_network(config)
        batch = random_batch(np.random.default_rng(6), config)
        want, want_mse = backprop_gradients(net, batch)
        for layout in (np.asfortranarray, lambda W: np.repeat(W, 2, axis=1)[:, ::2]):
            grads, mse = backprop_gradients(Network(config, [layout(W) for W in net.weights],
                                                    net.biases), batch)
            assert mse == want_mse
            for g, w in zip(grads.weights + grads.biases, want.weights + want.biases):
                assert g.tobytes() == w.tobytes()

    def test_single_purelin_neuron_matches_hand_derivative(self):
        config = NetworkConfig(3, (LayerSpec(1, PURELIN),), seed=0)
        net = Network(config, [np.array([[0.2, -0.4, 0.1]])], [np.array([0.3])])
        x = np.array([1.5, -2.0, 0.5])
        t = 0.7
        o = float((net.weights[0] @ x)[0] + net.biases[0][0])
        grads, mse = backprop_gradients(net, (x[np.newaxis, :], np.array([[t]])))
        assert mse == pytest.approx((o - t) ** 2, rel=1e-15)
        np.testing.assert_allclose(grads.weights[0], 2.0 * (o - t) * x[np.newaxis, :], rtol=1e-14)
        np.testing.assert_allclose(grads.biases[0], [2.0 * (o - t)], rtol=1e-14)

    def test_341_net_matches_finite_differences(self):
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=99)
        net = init_network(config)
        rng = np.random.default_rng(17)
        X = rng.uniform(-1.0, 1.0, size=(5, 3))
        T = rng.uniform(-0.9, 0.9, size=(5, 1))
        grads, _ = backprop_gradients(net, (X, T))
        fd_w, fd_b = fd_gradients(net, (X, T), h=1e-5)
        ok, worst_rel, _ = gradient_check(grads, fd_w, fd_b)
        assert ok, worst_rel

    def test_random_architectures_match_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            config = random_config(rng)
            net = init_network(config)
            batch = random_batch(rng, config)
            grads, _ = backprop_gradients(net, batch)
            fd_w, fd_b = fd_gradients(net, batch, h=1e-5)
            ok, worst_rel, _ = gradient_check(grads, fd_w, fd_b)
            assert ok, (worst_rel, config)

    def test_gradients_shape_congruent(self):
        config = NetworkConfig(2, (LayerSpec(3, TANSIG), LayerSpec(2, LOGSIG),
                                   LayerSpec(1, PURELIN)), seed=4)
        net = init_network(config)
        grads, _ = backprop_gradients(net, (np.array([[0.1, 0.2]]), np.array([[0.3]])))
        grads.check_congruent(net)
        for g, W in zip(grads.weights, net.weights):
            assert g.shape == W.shape
        for g, b in zip(grads.biases, net.biases):
            assert g.shape == b.shape

    def test_propagates_dimension_errors(self):
        net = init_network(NetworkConfig(3, (LayerSpec(1, TANSIG),), seed=0))
        with pytest.raises(ValueError, match="width 2"):
            backprop_gradients(net, (np.array([[1.0, 2.0]]), np.array([[0.5]])))
        with pytest.raises(ValueError, match="empty"):
            backprop_gradients(net, (np.empty((0, 3)), np.empty((0, 1))))
        # Only (X, T) arrays are batches; a list of per-row pairs is not.
        with pytest.raises(ValueError, match=r"\(X, T\) pair"):
            backprop_gradients(net, [(np.ones(3), np.ones(1))])
