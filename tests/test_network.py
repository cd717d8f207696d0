import numpy as np
import pytest
from hypothesis import given, settings
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
from hrdiag.network import _Workspace

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

    @pytest.mark.parametrize("neurons", [True, False, 4.0, "4", None])
    def test_neuron_count_must_be_an_integer(self, neurons):
        with pytest.raises(ValueError, match="neuron count must be an integer"):
            LayerSpec(neurons, TANSIG)


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


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 3000),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 1020),
    specials=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIAL_VALUES)),
                      max_size=8),
)
def test_bias_gradient_is_the_axis0_reduce_of_delta(rows, cols, seed, spread, specials):
    # Whichever reducer a layer uses, its bias gradient must be the bytes
    # np.add.reduce(delta, axis=0) gives: row after row for two or more
    # columns, pairwise for one.  Exponents span up to +-spread.
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-spread, spread + 1, size=(rows, cols))
    residual = np.ldexp(rng.standard_normal((rows, cols)), exponents)
    for at, value in specials:
        residual.flat[at % residual.size] = value
    work = _Workspace((LayerSpec(cols, PURELIN),), rows)
    acts = [np.ones((rows, 1)), np.zeros((rows, cols))]
    grad_w, grad_b = [np.empty((cols, 1))], [np.empty(cols)]
    with np.errstate(all="ignore"):
        work.backward([np.zeros((cols, 1))], acts, residual, grad_w, grad_b)
        want = np.add.reduce(work.work[0][0], axis=0)  # the output delta
    assert grad_b[0].tobytes() == want.tobytes()


class TestBackpropGradients:
    def test_zero_residual_means_zero_gradients(self):
        config = NetworkConfig(3, (LayerSpec(1, PURELIN),), seed=0)
        net = Network(config, [np.array([[1.0, 0.0, 2.0]])], [np.array([0.5])])
        batch = (np.array([[1.0, 5.0, 2.0], [0.0, 1.0, 0.0]]), np.array([[5.5], [0.5]]))
        grads, mse = backprop_gradients(net, batch)
        assert mse == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

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
