import math
import tracemalloc

import numpy as np
import pytest

from hrdiag import (
    Activation,
    EpochRecord,
    LayerSpec,
    Network,
    NetworkConfig,
    TrainParams,
    TrainingTrace,
    StoppingReason,
    accuracy_from_mse,
    evaluate,
    init_network,
    Trajectory,
    train,
    train_epoch,
    zero_gradients,
)

TANSIG = Activation.TANSIG
LOGSIG = Activation.LOGSIG
PURELIN = Activation.PURELIN

XOR_BATCH = (
    np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
    np.array([[-0.9], [0.9], [0.9], [-0.9]]),
)


def scalar_batch(xs, ts):
    """An (X, T) batch for a one-input, one-output net."""
    return np.array(xs, dtype=float)[:, None], np.array(ts, dtype=float)[:, None]


def scalar_net(w=0.0, b=0.0):
    """Single purelin neuron on one input: output = w*x + b."""
    config = NetworkConfig(1, (LayerSpec(1, PURELIN),), seed=0)
    return Network(config, [np.array([[w]])], [np.array([b])])


def params(**kwargs):
    return TrainParams(**kwargs)


class TestTrainEpoch:
    # The scalar net with x=1, t=1 gives mse = (w + b - 1)**2 and lets us
    # steer the candidate MSE exactly through the learning rate.
    BATCH = scalar_batch([1.0], [1.0])

    def test_rejection_restores_network_and_shrinks_lr(self):
        net = scalar_net()
        lr = 2.0  # candidate w = b = 4, output 8, mse 49 >> 1.04 * 1.0
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=1.0)
        assert not step.accepted
        assert step.mse == 1.0
        assert step.learning_rate == 0.7 * lr
        np.testing.assert_array_equal(step.net.weights[0], net.weights[0])
        np.testing.assert_array_equal(step.net.biases[0], net.biases[0])
        for v in step.velocity.weights + step.velocity.biases:
            np.testing.assert_array_equal(v, np.zeros_like(v))

    def test_rejection_just_above_ratio(self):
        # candidate mse = (4*lr - 1)**2; pick it just above 1.04 * 1.0
        lr = (1.0 + math.sqrt(1.1)) / 4.0
        step = train_epoch(scalar_net(), zero_gradients(scalar_net()), self.BATCH,
                           params(), lr, previous_mse=1.0)
        assert not step.accepted
        assert step.learning_rate == 0.7 * lr

    def test_worse_but_within_ratio_is_accepted_lr_unchanged(self):
        # candidate mse just above previous but below the 1.04 ratio
        lr = (1.0 + math.sqrt(1.03)) / 4.0
        net = scalar_net()
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=1.0)
        assert step.accepted
        assert step.mse == pytest.approx(1.03, rel=1e-12)
        assert step.learning_rate == lr

    def test_improvement_grows_lr_exactly(self):
        net = scalar_net()
        lr = 0.01
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=1.0)
        assert step.accepted
        assert step.mse == pytest.approx((4 * lr - 1.0) ** 2, rel=1e-12)
        assert step.learning_rate == 1.05 * lr

    def test_zero_gradient_zero_velocity_is_fixed_point(self):
        net = scalar_net(w=1.0, b=0.0)  # exact fit: output 1, target 1
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), 0.01, previous_mse=0.0)
        assert step.accepted
        assert step.mse == 0.0
        assert step.learning_rate == 0.01
        np.testing.assert_array_equal(step.net.weights[0], net.weights[0])

    def test_first_epoch_skips_rejection_and_lr_change(self):
        net = scalar_net()
        lr = 2.0  # hugely worse candidate, but no previous mse to compare
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=None)
        assert step.accepted
        assert step.learning_rate == lr
        assert step.mse == pytest.approx(49.0)

    def test_non_finite_candidate_takes_rejection_path(self):
        net = scalar_net()
        lr = 1e308  # update overflows to inf
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=1.0)
        assert not step.accepted
        assert step.mse == 1.0
        assert step.learning_rate == 0.7 * lr
        np.testing.assert_array_equal(step.net.weights[0], net.weights[0])

    def test_non_finite_candidate_on_first_epoch(self):
        net = scalar_net()
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), 1e308, previous_mse=None)
        assert not step.accepted
        assert step.mse == math.inf

    def test_non_adaptive_accepts_worse_candidates(self):
        net = scalar_net()
        lr = 2.0
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(adaptive=False),
                           lr, previous_mse=1.0)
        assert step.accepted
        assert step.learning_rate == lr  # plain descent never moves the lr


class TestTrain:
    def test_zero_epochs(self):
        net = init_network(NetworkConfig(2, (LayerSpec(1, TANSIG),), seed=1))
        trained, trace = train(net, XOR_BATCH, params(max_epochs=0))
        assert trace.records == ()
        assert trace.stopping_reason is StoppingReason.EPOCH_BUDGET_EXHAUSTED
        for a, b in zip(trained.weights + trained.biases, net.weights + net.biases):
            np.testing.assert_array_equal(a, b)

    def test_xor_converges(self):
        config = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=42)
        net = init_network(config)
        trained, trace = train(net, XOR_BATCH,
                               params(learning_rate=0.05, max_epochs=5000, error_goal=0.01))
        assert trace.stopping_reason is StoppingReason.GOAL_REACHED
        assert trace.final_mse < 0.01
        assert evaluate(trained, XOR_BATCH) == trace.final_mse

    def test_training_is_deterministic(self):
        config = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=8)
        p = params(learning_rate=0.05, max_epochs=300)
        net1, trace1 = train(init_network(config), XOR_BATCH, p)
        net2, trace2 = train(init_network(config), XOR_BATCH, p)
        assert trace1 == trace2
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
            np.testing.assert_array_equal(a, b)

    def test_plain_gradient_descent_is_monotone_on_quadratic(self):
        # adaptive off, momentum zero: mse = (2w + b - 1)**2 must shrink
        # every epoch under a small fixed step.
        net = scalar_net()
        batch = scalar_batch([2.0], [1.0])
        _, trace = train(net, batch, params(learning_rate=0.01, momentum=0.0,
                                            adaptive=False, max_epochs=100,
                                            error_goal=1e-12))
        mses = [r.mse for r in trace.records]
        assert all(b <= a for a, b in zip(mses, mses[1:]))
        assert all(r.accepted for r in trace.records)
        assert all(r.learning_rate == 0.01 for r in trace.records)

    def test_trace_obeys_update_rule(self):
        config = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=3)
        p = params(learning_rate=0.05, max_epochs=400, error_goal=1e-9)
        _, trace = train(init_network(config), XOR_BATCH, p)
        records = trace.records
        assert [r.epoch for r in records] == list(range(1, len(records) + 1))
        # accepted mse sequence never worsens beyond the allowed ratio
        accepted = trace.accepted_mses()
        assert all(b <= p.max_error_ratio * a for a, b in zip(accepted, accepted[1:]))
        # learning rate moves by exactly the configured factors
        for prev, cur in zip(records, records[1:]):
            if not prev.accepted:
                assert cur.learning_rate == p.lr_decrease * prev.learning_rate
            else:
                assert cur.learning_rate in (p.lr_increase * prev.learning_rate,
                                             prev.learning_rate)

    def test_goal_reached_iff_accepted_mse_below_goal(self):
        config = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=42)
        p_goal = params(learning_rate=0.05, max_epochs=5000, error_goal=0.01)
        _, trace = train(init_network(config), XOR_BATCH, p_goal)
        assert trace.stopping_reason is StoppingReason.GOAL_REACHED
        assert trace.records[-1].accepted and trace.records[-1].mse <= 0.01

        p_budget = params(learning_rate=0.05, max_epochs=5, error_goal=1e-9)
        _, trace = train(init_network(config), XOR_BATCH, p_budget)
        assert trace.stopping_reason is StoppingReason.EPOCH_BUDGET_EXHAUSTED
        assert not any(r.accepted and r.mse <= 1e-9 for r in trace.records)


def hand_stepped(net, batch, p):
    """Reference loop: train() written out over train_epoch, which starts
    every epoch from scratch and so recomputes what train() carries over."""
    velocity = zero_gradients(net)
    learning_rate, previous_mse = p.learning_rate, None
    records = []
    reason = StoppingReason.EPOCH_BUDGET_EXHAUSTED
    for epoch in range(1, p.max_epochs + 1):
        step = train_epoch(net, velocity, batch, p, learning_rate, previous_mse)
        records.append(EpochRecord(epoch, step.mse, learning_rate, step.accepted))
        net, velocity, learning_rate = step.net, step.velocity, step.learning_rate
        previous_mse = step.mse
        if step.accepted and step.mse <= p.error_goal:
            reason = StoppingReason.GOAL_REACHED
            break
    return net, TrainingTrace(tuple(records), reason)


class TestTrainMatchesHandSteppedEpochs:
    CONFIG = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=5)

    def check(self, p, net=None, batch=XOR_BATCH):
        net = net or init_network(self.CONFIG)
        trained, trace = train(net, batch, p)
        ref_net, ref_trace = hand_stepped(net, batch, p)
        assert trace == ref_trace
        for a, b in zip(trained.weights + trained.biases, ref_net.weights + ref_net.biases):
            assert a.tobytes() == b.tobytes()
        return trace

    def test_adaptive(self):
        trace = self.check(params(learning_rate=0.05, max_epochs=300))
        assert any(r.learning_rate != 0.05 for r in trace.records)

    def test_plain_descent(self):
        self.check(params(learning_rate=0.05, max_epochs=300, adaptive=False))

    def test_goal_reached(self):
        trace = self.check(params(learning_rate=0.05, max_epochs=5000))
        assert trace.stopping_reason is StoppingReason.GOAL_REACHED

    def test_rejections_mid_run(self):
        # A large step overshoots repeatedly; epochs after each rejection
        # must start from the unchanged network's activations.
        trace = self.check(params(learning_rate=3.0, max_epochs=60))
        rejected = [i for i, r in enumerate(trace.records[:-1]) if not r.accepted]
        assert rejected and any(trace.records[i + 1].accepted for i in rejected)

    def test_divergent_first_step(self):
        # The first update overflows to inf.  The shrinking steps after it
        # give finite parameters whose MSE overflows, until near epoch 1000
        # one gives a finite MSE and is accepted.
        trace = self.check(params(learning_rate=1e308, max_epochs=1200),
                           net=scalar_net(), batch=scalar_batch([1.0], [1.0]))
        assert trace.records[0].mse == math.inf and not trace.records[0].accepted
        assert any(r.accepted for r in trace.records)

    def test_zero_epochs(self):
        net = init_network(self.CONFIG)
        trained, trace = train(net, XOR_BATCH, params(max_epochs=0))
        assert trained is net
        assert trace == hand_stepped(net, XOR_BATCH, params(max_epochs=0))[1]


def reference_act(kind, z):
    """The transfer functions as their docstrings define them, allocating."""
    if kind is TANSIG:
        return np.tanh(z)
    if kind is LOGSIG:
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return z


def reference_deriv(kind, o):
    if kind is TANSIG:
        return 1.0 - np.square(o)
    if kind is LOGSIG:
        return o * (1.0 - o)
    return np.ones_like(o)


def reference_train(net, batch, p):
    """train() written directly from the formulas in the module docstrings,
    with a fresh array for every intermediate and a full forward pass at the
    start of every epoch.  Also counts the epochs whose candidate was
    non-finite and those rejected for a finite MSE above the allowed ratio."""
    X, T = batch
    layers = net.config.layers
    W, b = list(net.weights), list(net.biases)
    vW, vb = [np.zeros_like(w) for w in W], [np.zeros_like(c) for c in b]

    def forward(W, b):
        acts = [X]
        for Wk, bk, spec in zip(W, b, layers):
            acts.append(reference_act(spec.activation, acts[-1] @ Wk.T + bk))
        return acts

    def mse(Y):
        squares = np.square(Y - T)
        return float(squares.sum() / squares.size)

    lr, previous, records = p.learning_rate, None, []
    n_diverged = n_worse = 0
    reason = StoppingReason.EPOCH_BUDGET_EXHAUSTED
    with np.errstate(all="ignore"):
        for epoch in range(1, p.max_epochs + 1):
            acts = forward(W, b)
            delta = (2.0 / T.size) * (acts[-1] - T) * reference_deriv(layers[-1].activation, acts[-1])
            gW, gb = [None] * len(layers), [None] * len(layers)
            for k in range(len(layers) - 1, -1, -1):
                gW[k], gb[k] = delta.T @ acts[k], delta.sum(axis=0)
                if k > 0:
                    delta = (delta @ W[k]) * reference_deriv(layers[k - 1].activation, acts[k])
            dW = [p.momentum * v - lr * g for v, g in zip(vW, gW)]
            db = [p.momentum * v - lr * g for v, g in zip(vb, gb)]
            cW = [w + d for w, d in zip(W, dW)]
            cb = [c + d for c, d in zip(b, db)]
            finite = all(np.isfinite(a).all() for a in cW + cb)
            cand = mse(forward(cW, cb)[-1]) if finite else math.nan
            next_lr = lr
            diverged = not math.isfinite(cand)
            worse = p.adaptive and previous is not None and cand > p.max_error_ratio * previous
            n_diverged, n_worse = n_diverged + diverged, n_worse + worse
            if diverged or worse:
                reported, accepted = (previous if previous is not None else math.inf), False
                vW, vb = [np.zeros_like(w) for w in W], [np.zeros_like(c) for c in b]
                next_lr = p.lr_decrease * lr
            else:
                reported, accepted = cand, True
                W, b, vW, vb = cW, cb, dW, db
                if p.adaptive and previous is not None and cand < previous:
                    next_lr = p.lr_increase * lr
            records.append(EpochRecord(epoch, reported, lr, accepted))
            previous, lr = reported, next_lr
            if accepted and reported <= p.error_goal:
                reason = StoppingReason.GOAL_REACHED
                break
    return W, b, TrainingTrace(tuple(records), reason), (n_diverged, n_worse)


class TestTrainMatchesFormulas:
    """The in-place epoch kernel against :func:`reference_train`, bit for bit.
    Between them the nets put each transfer function in a hidden and in the
    output position."""

    LAYERS = [
        (LayerSpec(3, TANSIG), LayerSpec(1, LOGSIG)),
        (LayerSpec(4, LOGSIG), LayerSpec(2, PURELIN)),
        (LayerSpec(2, PURELIN), LayerSpec(3, LOGSIG), LayerSpec(1, TANSIG)),
    ]

    @pytest.mark.parametrize("layers", LAYERS, ids=lambda ls: "+".join(s.label for s in ls))
    @pytest.mark.parametrize("case", ["adaptive", "plain", "divergent", "wide"])
    def test_weights_and_trace(self, layers, case):
        # "wide" runs 4,096 rows, where a row-order and a pairwise column sum
        # differ, so it pins which of the two each layer's bias gradient uses.
        rows = 4096 if case == "wide" else 9
        rng = np.random.default_rng(17)
        X = rng.uniform(-1.0, 1.0, size=(rows, 3))
        T = rng.uniform(-0.9, 0.9, size=(rows, layers[-1].neurons))
        p = {
            "adaptive": params(learning_rate=0.05, max_epochs=200),
            "plain": params(learning_rate=0.05, max_epochs=200, adaptive=False),
            "divergent": params(learning_rate=1e308, max_epochs=30),
            "wide": params(learning_rate=0.05, max_epochs=5),
        }[case]
        net = init_network(NetworkConfig(3, layers, seed=11))
        trained, trace = train(net, (X, T), p)
        W, b, ref_trace, (n_diverged, n_worse) = reference_train(net, (X, T), p)
        assert trace == ref_trace
        for got, want in zip(trained.weights + trained.biases, W + b):
            assert got.tobytes() == want.tobytes()
        if case == "adaptive":
            assert n_worse
        if case == "divergent":
            assert n_diverged


def test_epochs_allocate_no_batch_sized_arrays():
    # After warm-up an epoch writes only into buffers allocated by the
    # Trajectory.  The bound is one 20,000 x 1 float64 column.
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(20_000, 3))
    T = rng.choice([-0.9, 0.9], size=(20_000, 1))
    config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=2)
    run = Trajectory(init_network(config), (X, T), params(max_epochs=100))
    run.step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            run.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 20_000 * 8


class TestEvaluate:
    def test_exact_fit_is_zero(self):
        net = scalar_net(w=2.0, b=-1.0)
        assert evaluate(net, scalar_batch([1.0, 2.0], [1.0, 3.0])) == 0.0

    def test_single_pattern_value(self):
        net = scalar_net(w=0.0, b=0.5)
        assert evaluate(net, scalar_batch([0.0], [0.9])) == pytest.approx(0.16, abs=1e-12)

    def test_requires_targets_shape(self):
        net = scalar_net()
        with pytest.raises(ValueError):
            evaluate(net, (np.array([[1.0]]), np.array([[1.0, 2.0]])))


class TestValidationTrace:
    """Training continued on held-out data from trained weights, as
    ``eval --paper-validation`` runs it."""

    def test_already_at_goal_stops_at_first_epoch(self):
        net = scalar_net(w=1.0, b=0.0)
        holdout = scalar_batch([1.0, 2.0], [1.0, 2.0])
        _, trace = train(net, holdout, params(max_epochs=50))
        assert len(trace.records) == 1
        assert trace.stopping_reason is StoppingReason.GOAL_REACHED
        assert trace.final_mse == 0.0

    def test_error_line_format(self):
        net = scalar_net(w=1.0, b=0.0)
        _, trace = train(net, scalar_batch([1.0], [1.0]), params(max_epochs=10))
        assert trace.error_lines() == ["error=0.000000 no.of epoches=1"]


class TestAccuracyFromMse:
    def test_reference_values(self):
        assert accuracy_from_mse(0.096841) == pytest.approx(99.903159, abs=1e-9)
        assert accuracy_from_mse(0.009174) == pytest.approx(99.990826, abs=1e-9)
        assert f"{accuracy_from_mse(0.096841):.2f}" == "99.90"
        assert f"{accuracy_from_mse(0.009174):.2f}" == "99.99"

    def test_bounds(self):
        assert accuracy_from_mse(0.0) == 100.0
        assert accuracy_from_mse(250.0) == 0.0
        with pytest.raises(ValueError):
            accuracy_from_mse(-0.1)


class TestTrainParams:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": math.nan},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"error_goal": 0.0},
        {"max_epochs": -1},
        {"lr_increase": 0.99},
        {"lr_decrease": 1.01},
        {"lr_decrease": 0.0},
        {"max_error_ratio": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainParams(**kwargs)
