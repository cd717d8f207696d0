import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    as_training_batch,
    backprop_gradients,
    evaluate,
    forward,
    init_network,
    prepared_embedded,
    Trajectory,
    train,
    train_epoch,
    zero_gradients,
)
from hrdiag import network, training
from hrdiag import sweep as sweep_mod

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

    def test_a_velocity_with_a_transposed_weight_is_refused(self):
        net = init_network(NetworkConfig(2, (LayerSpec(3, TANSIG), LayerSpec(1, TANSIG)), seed=1))
        velocity = zero_gradients(net)
        velocity.weights[0] = velocity.weights[0].T  # (2, 3) in place of (3, 2): same size
        with pytest.raises(ValueError, match="^gradients are not shape-congruent with the network$"):
            train_epoch(net, velocity, XOR_BATCH, params(), 0.01, previous_mse=None)

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

    @pytest.mark.parametrize("lr", [-0.5, 0.0, math.nan, math.inf, True, "x", 10 ** 400],
                             ids=["negative", "zero", "nan", "inf", "bool", "str", "huge-int"])
    def test_rejects_a_learning_rate_train_params_rejects(self, lr):
        net = scalar_net()
        with pytest.raises(ValueError, match="learning_rate"):
            train_epoch(net, zero_gradients(net), self.BATCH, params(), lr, previous_mse=1.0)

    @pytest.mark.parametrize("previous", [True, 10 ** 400, -0.5, math.nan, "x"],
                             ids=["bool", "huge-int", "negative", "nan", "str"])
    def test_rejects_a_previous_mse_that_is_not_an_mse(self, previous):
        net = scalar_net()
        with pytest.raises(ValueError, match="previous_mse"):
            train_epoch(net, zero_gradients(net), self.BATCH, params(), 0.5, previous)

    def test_accepts_an_infinite_previous_mse(self):
        # A rejected first epoch reports inf, which the next epoch is handed.
        net = scalar_net()
        step = train_epoch(net, zero_gradients(net), self.BATCH, params(), 0.25, math.inf)
        assert step.accepted and step.mse == 0.0  # w = b = 0.5 hits the target


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

    def test_float32_weights_and_inputs_train_as_their_float64_values(self):
        # A Network holds float64, so float32 weights and a float32 batch,
        # below and above _LONG_ROWS, give the bits of their float64 copies.
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=2)
        net = init_network(config)
        rng = np.random.default_rng(9)
        single = Network(config, [W.astype(np.float32) for W in net.weights],
                         [b.astype(np.float32) for b in net.biases])
        double = Network(config, [W.astype(np.float32).astype(float) for W in net.weights],
                         [b.astype(np.float32).astype(float) for b in net.biases])
        p = params(learning_rate=0.05, max_epochs=20)
        for rows in (1, 52, network._LONG_ROWS):
            X = rng.uniform(-1.0, 1.0, (rows, 3)).astype(np.float32)
            T = rng.uniform(-0.9, 0.9, (rows, 1)).astype(np.float32)
            wide = (X.astype(float), T.astype(float))
            assert evaluate(single, (X, T)) == evaluate(double, wide)
            assert _gradient_bytes(single, (X, T)) == _gradient_bytes(double, wide)
            got, got_trace = train(single, (X, T), p)
            want, want_trace = train(double, wide, p)
            assert got_trace == want_trace
            assert _bytes(*got.weights, *got.biases) == _bytes(*want.weights, *want.biases)

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
        accepted = [r.mse for r in trace.records if r.accepted]
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

    def test_a_goal_equal_to_an_accepted_mse_stops_there(self):
        batch = as_training_batch(prepared_embedded().training)
        net = init_network(NetworkConfig(3, (LayerSpec(1, TANSIG),), seed=1))
        _, probe = train(net, batch, params(max_epochs=2))
        first, second = probe.records
        assert second.accepted and second.mse < first.mse
        _, trace = train(net, batch, params(error_goal=second.mse))
        assert trace.records == probe.records
        assert trace.stopping_reason is StoppingReason.GOAL_REACHED


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
    @pytest.mark.parametrize("case", ["adaptive", "plain", "divergent", "wide", "one-row",
                                      "two-row"])
    def test_weights_and_trace(self, layers, case):
        # "wide" runs 4,096 rows, where a row-order and a pairwise column sum
        # differ, so it pins which of the two each layer's bias gradient uses.
        # "one-row" is the batch whose forward product keeps the transposed
        # weights view, "two-row" the shortest that multiplies by a copy.
        rows = {"wide": 4096, "one-row": 1, "two-row": 2}.get(case, 9)
        rng = np.random.default_rng(17)
        X = rng.uniform(-1.0, 1.0, size=(rows, 3))
        T = rng.uniform(-0.9, 0.9, size=(rows, layers[-1].neurons))
        p = {
            "adaptive": params(learning_rate=0.05, max_epochs=200),
            "plain": params(learning_rate=0.05, max_epochs=200, adaptive=False),
            "divergent": params(learning_rate=1e308, max_epochs=30),
            "wide": params(learning_rate=0.05, max_epochs=5),
            "one-row": params(learning_rate=0.05, max_epochs=200),
            "two-row": params(learning_rate=0.05, max_epochs=200),
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


def test_backward_runs_once_per_epoch_after_an_accepted_one():
    # A rejected epoch leaves the network, and so its gradient, unchanged:
    # the next epoch reuses that gradient instead of running backward again.
    # Each phase's plan with the backward pass starts with a call that counts its runs.
    run = Trajectory(init_network(TestTrainMatchesHandSteppedEpochs.CONFIG), XOR_BATCH,
                     params(learning_rate=3.0, max_epochs=60))
    calls = []
    for with_backward, _ in run._plans:
        with_backward.insert(0, (lambda: calls.append(run.epoch + 1), ()))
    records = list(run)
    assert not all(r.accepted for r in records)
    assert calls == [1] + [r.epoch + 1 for r in records[:-1] if r.accepted]


def test_plans_are_built_with_the_run_never_per_epoch(monkeypatch):
    # Every numpy call of an epoch is bound when the run starts: a step,
    # accepted or rejected, runs the plans and builds none.
    builds, names = [], {"forward_calls", "score_calls", "delta_calls", "gradient_calls"}
    for name in names:
        def counted(self, *args, _build=getattr(network._Workspace, name), _name=name):
            builds.append(_name)
            return _build(self, *args)
        monkeypatch.setattr(network._Workspace, name, counted)
    run = Trajectory(init_network(TestTrainMatchesHandSteppedEpochs.CONFIG), XOR_BATCH,
                     params(learning_rate=3.0, max_epochs=50))
    assert set(builds) == names
    built = len(builds)
    records = [run.step() for _ in range(50)]
    assert {r.accepted for r in records} == {True, False}
    assert len(builds) == built


LARGE_ROWS = 20_000


def large_run_inputs():
    """A 20,000-row batch and a 4/logsig + 1/tansig network for it."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(LARGE_ROWS, 3))
    T = rng.choice([-0.9, 0.9], size=(LARGE_ROWS, 1))
    config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=2)
    return init_network(config), (X, T)


def test_a_run_allocates_one_activation_stack():
    # A run's batch-sized arrays are its workspace's: per layer a scratch
    # triple (two float64 arrays and a bool mask), one activation stack and
    # one residual.  Less than one (rows, 4) array is left for the rest.
    net, batch = large_run_inputs()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Trajectory(net, batch, params(max_epochs=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer_cells = LARGE_ROWS * sum(spec.neurons for spec in net.config.layers)
    scratch, stack = layer_cells * (8 + 8 + 1), layer_cells * 8
    residual = LARGE_ROWS * net.config.output_dim * 8
    assert peak - base < scratch + stack + residual + LARGE_ROWS * 4 * 8


def test_epochs_allocate_no_batch_sized_arrays():
    # After warm-up an epoch writes only into buffers allocated by the
    # Trajectory.  The bound is one 20,000 x 1 float64 column.
    run = Trajectory(*large_run_inputs(), params(max_epochs=100))
    run.step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            run.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < LARGE_ROWS * 8


# Between them these stacks take every per-kind call builder in both batch forms.
KERNEL_STACKS = pytest.mark.parametrize("layers", [
    (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)),
    (LayerSpec(1, TANSIG),),
    (LayerSpec(3, PURELIN), LayerSpec(1, TANSIG)),
    (LayerSpec(3, LOGSIG), LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)),
], ids=["4/logsig+1/tansig", "1/tansig", "3/purelin+1/tansig", "3/logsig+2/tansig+1/tansig"])


@KERNEL_STACKS
def test_short_and_long_batch_forms_train_the_same_bits(monkeypatch, layers):
    # The same 300-row run with the workspace's plain numpy calls and with
    # its long-batch forms: records and parameters must agree bit for bit.
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(300, 3))
    T = rng.choice([-0.9, 0.9], size=(300, 1))
    net = init_network(NetworkConfig(3, layers, seed=6))
    results = []
    for long_rows in (299, 301):
        monkeypatch.setattr(network, "_LONG_ROWS", long_rows)
        run = Trajectory(net, (X, T), params(learning_rate=0.5, max_epochs=60))
        assert run._work.long == (long_rows <= 300)
        records = tuple(run)
        trained = run.network()
        results.append((records, [a.tobytes() for a in trained.weights + trained.biases]))
    assert len(results[0][0]) == 60
    assert results[0] == results[1]


@KERNEL_STACKS
@pytest.mark.parametrize("rows", [52, 300])
def test_an_accepted_mse_is_the_networks_evaluate(layers, rows):
    # Each phase's plans are bound to its own states: a score plan bound to
    # the other phase's buffers would report an MSE of the wrong network.
    rng = np.random.default_rng(9)
    batch = rng.uniform(-1.0, 1.0, size=(rows, 3)), rng.choice([-0.9, 0.9], size=(rows, 1))
    checked = []

    def check(record, run):
        if record.accepted:
            assert run.previous_mse == evaluate(run.network(), batch)
        checked.append(record.accepted)

    train(init_network(NetworkConfig(3, layers, seed=6)), batch,
          params(learning_rate=2.0, max_epochs=60), on_epoch=check)
    assert sum(checked) > 2 and not all(checked)


@pytest.mark.parametrize("rows", [52, 256])
def test_records_hold_python_floats(rows):
    # The trace, the CLI and the sweep CSV print these with repr, where a
    # numpy scalar would read np.float64(...).  The golden digests catch
    # one only on the platform they were pinned on; this holds on every one.
    X, T = as_training_batch(prepared_embedded().training)
    batch = np.resize(X, (rows, 3)), np.resize(T, (rows, 1))
    net = init_network(NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG))))
    _, trace = train(net, batch, params(learning_rate=0.5, max_epochs=100))
    assert not all(r.accepted for r in trace.records)
    for r in trace.records:
        assert type(r.mse) is float and type(r.learning_rate) is float
    assert type(trace.final_mse) is float


def test_records_are_tuples_in_field_order():
    record = Trajectory(scalar_net(), scalar_batch([1.0], [1.0]), params()).step()
    epoch, mse, learning_rate, accepted = record
    assert record == (1, mse, 0.01, True) and (epoch, learning_rate, accepted) == (1, 0.01, True)


def test_a_candidate_with_an_infinite_parameter_and_a_finite_mse_is_rejected():
    # The first candidate's output bias overflows to +inf, which saturates the
    # tansig output at 1: its MSE is a finite (1 - 0.9)**2, so only a check of
    # the parameters themselves can reject it.
    net = init_network(NetworkConfig(3, (LayerSpec(1, LOGSIG), LayerSpec(1, TANSIG)), seed=1))
    batch = np.array([[0.5, -0.25, 1.0]]), np.array([[0.9]])
    lr = 1.2e308
    grads, _ = backprop_gradients(net, batch)
    with np.errstate(all="ignore"):
        cand = [(W - lr * gW, b - lr * gb)
                for W, b, gW, gb in zip(net.weights, net.biases, grads.weights, grads.biases)]
        a = batch[0]
        for (W, b), spec in zip(cand, net.config.layers):
            a = reference_act(spec.activation, a @ W.T + b)
    assert not all(np.isfinite(W).all() and np.isfinite(b).all() for W, b in cand)
    assert np.mean((a - batch[1]) ** 2) == pytest.approx(0.01)
    record = Trajectory(net, batch, params(learning_rate=lr)).step()
    assert record.accepted is False
    assert record.mse == math.inf


def test_the_parameter_check_moves_no_mse_bit():
    # The check adds a sum of parameter * 0.0 terms to the candidate's MSE.
    # Here every candidate parameter is negative, so every term is -0.0, and
    # the candidate fits exactly: its MSE must stay +0.0, evaluate's bits.
    net = Network(NetworkConfig(1, (LayerSpec(1, PURELIN),), seed=0),
                  [np.array([[-0.5]])], [np.array([-0.3])])
    batch = scalar_batch([0.0], [-0.4])
    run = Trajectory(net, batch, params(learning_rate=0.5))
    assert run.step().accepted
    trained = run.network()
    assert (trained.weights[0] < 0).all() and (trained.biases[0] < 0).all()
    assert run.previous_mse.hex() == evaluate(trained, batch).hex() == (0.0).hex()


class TestQuietStep:
    """A step ignores floating-point errors in a numpy error state captured
    once per run; the caller's own state is neither changed nor used."""

    @staticmethod
    def divergent_run():
        return Trajectory(scalar_net(), TestTrainEpoch.BATCH, params(learning_rate=1e308))

    def test_callers_error_state_is_unchanged(self):
        with np.errstate(over="raise", under="warn"):
            before = np.geterr()
            self.divergent_run().step()
            assert np.geterr() == before

    def test_on_epoch_callbacks_run_in_the_callers_state(self):
        def overflow(record, run):
            np.float64(1e308) * 10

        with pytest.warns(RuntimeWarning, match="overflow"):
            train(scalar_net(), TestTrainEpoch.BATCH, params(max_epochs=1), on_epoch=overflow)

    def test_a_raising_caller_gets_the_same_record(self):
        outside = self.divergent_run().step()
        with np.errstate(all="raise"):
            inside = self.divergent_run().step()
        assert inside == outside
        assert not inside.accepted


def _bytes(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


def _gradient_bytes(net, batch) -> bytes:
    grads, mse = backprop_gradients(net, batch)
    return _bytes(*grads.weights, *grads.biases, mse)


def _step_bytes(net, batch) -> bytes:
    run = Trajectory(net, batch, TrainParams())
    record = run.step()
    net = run.network()
    return _bytes(*record[1:], *net.weights, *net.biases)


class TestQuietOneShot:
    """forward, evaluate, backprop_gradients and a training run's start
    score run their passes in the workspace's quiet context, as a training
    step does."""

    @staticmethod
    def saturated():
        """A 4/logsig + 1/purelin net with weights of +-1e308, and a batch
        for it: the forward pass overflows, and the backward pass meets
        inf * 0 in the unbounded output layer."""
        rng = np.random.default_rng(3)
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, PURELIN)), seed=0)
        weights, biases = ([1e308 * rng.choice([-1.0, 1.0], size=shape) for shape in shapes]
                           for shapes in (((4, 3), (1, 4)), ((4,), (1,))))
        batch = rng.uniform(-1.0, 1.0, (6, 3)), rng.uniform(-0.9, 0.9, (6, 1))
        return Network(config, weights, biases), batch

    @pytest.mark.parametrize("call", [
        pytest.param(lambda net, batch: _bytes(*forward(net, batch[0][0])[1]), id="forward"),
        pytest.param(lambda net, batch: _bytes(evaluate(net, batch)), id="evaluate"),
        pytest.param(_gradient_bytes, id="backprop_gradients"),
        pytest.param(_step_bytes, id="Trajectory"),
    ])
    def test_a_raising_caller_gets_the_same_bytes(self, call):
        net, batch = self.saturated()
        quiet = call(net, batch)  # any warning fails the suite
        with np.errstate(all="raise"):
            before = np.geterr()
            assert call(net, batch) == quiet
            assert np.geterr() == before


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
        assert accuracy_from_mse(math.inf) == 0.0  # a rejected first epoch's MSE
        with pytest.raises(ValueError):
            accuracy_from_mse(-0.1)

    @pytest.mark.parametrize("mse", [True, 10 ** 400, math.nan, "x"],
                             ids=["bool", "huge-int", "nan", "str"])
    def test_rejects_what_is_not_an_mse_by_name(self, mse):
        with pytest.raises(ValueError, match="^mse "):
            accuracy_from_mse(mse)


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
        {"lr_increase": 1.0},
        {"lr_decrease": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainParams(**kwargs)


# A split run forks one worker for half its row work: x86-64 Linux only.
SPLITS = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or os.uname().machine != "x86_64",
                            reason="runs split on x86-64 Linux alone")


def usable_cpus(monkeypatch, cpus):
    """Make a run see ``cpus`` as this process's CPU set, as tests/test_sweep.py does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_inputs(rows, layers=(LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(rows, 3))
    T = rng.choice([-0.9, 0.9], size=(rows, 1))
    return init_network(NetworkConfig(3, layers, seed=seed)), (X, T)


def outcome(run):
    """Every record, the stopping reason and the parameter bytes of a whole run."""
    try:
        records = tuple(run)
    finally:
        run.close()
    net = run.network()
    return records, run.stopping_reason, [a.tobytes() for a in net.weights + net.biases]


SMALL_SPLITS = {"_SPLIT_ROWS": 2 * network._LONG_ROWS, "_SPLIT_EPOCHS": 1}


@SPLITS
@settings(max_examples=30, deadline=None)
@given(
    hidden=st.lists(st.tuples(st.integers(1, 4), st.sampled_from(Activation)), min_size=1, max_size=3),
    output=st.sampled_from(Activation),
    rows=st.sampled_from([512, 700, 768, 1000, 1024, 1301]),
    adaptive=st.booleans(),
    lr=st.sampled_from([0.05, 0.5, 1e4]),
    seed=st.integers(0, 50),
)
def test_a_split_run_gives_the_serial_runs_bytes(hidden, output, rows, adaptive, lr, seed):
    # Below _SPLIT_ROWS on purpose: the split's boundary, a multiple of
    # _LONG_ROWS, then lands both on and off the batch's half.
    layers = tuple(LayerSpec(n, kind) for n, kind in hidden) + (LayerSpec(1, output),)
    net, batch = split_inputs(rows, layers, seed)
    p = params(learning_rate=lr, adaptive=adaptive, max_epochs=25, error_goal=1e-9)
    results = []
    with pytest.MonkeyPatch.context() as patch:
        for name, value in SMALL_SPLITS.items():
            patch.setattr(training, name, value)
        for cpus in ({0}, {0, 1}):
            usable_cpus(patch, cpus)
            run = Trajectory(net, batch, p)
            assert (run._worker is not None) == (len(cpus) == 2)
            results.append(outcome(run))
    assert results[0] == results[1]
    no_child_left()


@SPLITS
def test_the_default_split_matches_serial_on_a_long_batch(monkeypatch):
    net, batch = large_run_inputs()
    results = []
    for cpus in ({0}, {0, 1}):
        usable_cpus(monkeypatch, cpus)
        run = Trajectory(net, batch, params(max_epochs=training._SPLIT_EPOCHS))
        assert (run._worker is not None) == (len(cpus) == 2)
        results.append(outcome(run))
    assert run._worker.state[1] > 0  # the worker made its shares of some stages
    assert results[0] == results[1]


# Trains a split run, then a serial one while a live thread makes usable_cpus() 1, and
# prints whether a worker made shares of the first and none of the second, and whether
# their bytes match.
SPLIT_AND_SERIAL = """
import threading
import numpy as np
from hrdiag import LayerSpec, NetworkConfig, TrainParams, Trajectory, init_network, training
rng = np.random.default_rng(11)
batch = rng.uniform(-1.0, 1.0, (120_000, 3)), rng.choice([-0.9, 0.9], (120_000, 1))
layers = LayerSpec.parse("4/logsig"), LayerSpec.parse("1/tansig")
net = init_network(NetworkConfig(3, layers, seed=5))
def outcome():
    run = Trajectory(net, batch, TrainParams(max_epochs=training._SPLIT_EPOCHS, error_goal=1e-9))
    try:
        records, shares = tuple(run), int(run._worker.state[1]) if run._worker else 0
    finally:
        run.close()
    final = run.network()
    return shares, records, run.stopping_reason, [a.tobytes() for a in final.weights + final.biases]
split = outcome()
hold = threading.Event()
thread = threading.Thread(target=hold.wait)
thread.start()
try:
    serial = outcome()
finally:
    hold.set()
    thread.join()
print(split[0] > 0, serial[0] == 0, split[1:] == serial[1:])
"""


@SPLITS
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="one usable CPU")
def test_a_split_run_gives_the_serial_runs_bytes_under_two_blas_threads():
    # A library caller keeps its own BLAS thread count.  Above ~110,000 rows two threads
    # split the output layer's weight gradient, whose bits then differ from one thread's,
    # but the split run's must still be the serial run's.  taskset would not force the
    # serial run: on one CPU OpenBLAS drops to one thread as well.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", SPLIT_AND_SERIAL], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "True True True\n"


class TestRowWorker:
    @pytest.fixture(autouse=True)
    def small_splits(self, monkeypatch):
        for name, value in SMALL_SPLITS.items():
            monkeypatch.setattr(training, name, value)
        usable_cpus(monkeypatch, {0, 1})

    @SPLITS
    def test_no_worker_outlives_train(self):
        net, batch = split_inputs(1000)
        forks = []
        real_start = training._Worker.start

        def start(worker):
            real_start(worker)
            forks.append(worker.pid)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training._Worker, "start", start)
            train(net, batch, params(max_epochs=20))
            no_child_left()

            def failing(record, run):
                if record.epoch == 3:
                    raise RuntimeError("synthetic failure")

            with pytest.raises(RuntimeError):
                train(net, batch, params(max_epochs=20), on_epoch=failing)
            no_child_left()
        assert len(forks) == 2

    @SPLITS
    def test_a_killed_worker_gives_the_same_bytes_without_a_hang(self, monkeypatch):
        net, batch = split_inputs(1000, seed=9)
        p = params(learning_rate=0.5, max_epochs=40, error_goal=1e-9)
        usable_cpus(monkeypatch, {0})
        serial = outcome(Trajectory(net, batch, p))
        usable_cpus(monkeypatch, {0, 1})
        run = Trajectory(net, batch, p)
        records = []
        start = time.monotonic()
        try:
            for record in run:
                records.append(record)
                if record.epoch == 5:
                    os.kill(run._worker.pid, signal.SIGKILL)
            assert run._worker.pid == 0  # reaped, its shares made here since
        finally:
            run.close()
        assert time.monotonic() - start < 30
        trained = run.network()
        assert (tuple(records), run.stopping_reason,
                [a.tobytes() for a in trained.weights + trained.biases]) == serial
        no_child_left()

    def test_one_epoch_and_one_shot_passes_fork_nothing(self, monkeypatch):
        def no_fork(child):
            raise AssertionError("forked")

        monkeypatch.setattr(training, "fork", no_fork)
        monkeypatch.setattr(training, "_SPLIT_EPOCHS", 50)
        net, batch = split_inputs(1000)
        train_epoch(net, zero_gradients(net), batch, params(max_epochs=1000), 0.01, None)
        evaluate(net, batch)
        backprop_gradients(net, batch)
        forward(net, batch[0][0])
        assert Trajectory(net, batch, params(max_epochs=49))._worker is None

    def test_one_usable_cpu_gives_no_worker(self, monkeypatch):
        usable_cpus(monkeypatch, {3})
        assert Trajectory(*split_inputs(1000), params(max_epochs=50))._worker is None

    @SPLITS
    @pytest.mark.parametrize("seeds", [(1,), (1, 2)])
    def test_a_long_batch_sweep_never_runs_more_processes_than_cpus(self, seeds):
        # Each seed walk's runs on 2 CPUs: 2 processes for one seed, one each for two.
        def walk(chunk):
            runs = [Trajectory(*split_inputs(1000, seed=seed), params(max_epochs=5)) for seed in chunk]
            for run in runs:
                run.close()
            return [(os.getpid(), run._worker is not None) for run in runs]

        walks = sweep_mod._walk_seeds(walk, seeds)
        assert len({pid for chunk in walks for pid, _ in chunk}) == len(seeds)
        assert [split for chunk in walks for _, split in chunk] == [len(seeds) == 1] * len(seeds)
        no_child_left()


@pytest.mark.parametrize("layers, calls", [
    ((LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), (32, 20)),
    ((LayerSpec(1, TANSIG),), (17, 11)),
    ((LayerSpec(3, LOGSIG), LayerSpec(2, TANSIG), LayerSpec(1, PURELIN)), (39, 22)),
])
def test_a_short_batch_step_makes_one_flat_plan(layers, calls):
    # The 52 bundled rows: each phase's plans hold numpy calls alone, as many
    # as before the split's stages, and no hand-off between processes.
    run = Trajectory(init_network(NetworkConfig(3, layers)),
                     as_training_batch(prepared_embedded().training), params())
    assert run._worker is None
    for plans in run._plans:
        assert tuple(map(len, plans)) == calls
        assert not any(isinstance(getattr(fn, "__self__", None), training._Worker)
                       for plan in plans for fn, _ in plan)
