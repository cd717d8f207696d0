"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from dataclasses import replace

import numpy as np

from hrdiag import (
    Activation,
    LayerSpec,
    NetworkConfig,
    TrainParams,
    accuracy_from_mse,
    aggregate_questionnaire,
    as_training_batch,
    backprop_gradients,
    canonical_grid,
    diagnose,
    init_network,
    load_embedded,
    load_model,
    model_from_training,
    prepared_embedded,
    run_sweep,
    save_model,
    train,
    train_epoch,
    zero_gradients,
)
from hrdiag import ALL_FACTORS, QuestionnaireResponse
from hrdiag.model_io import SurrogateRule
from hrdiag.network import Network

from helpers import (fd_gradients, gradient_check, random_batch, random_config,
                     raw_embedded_dataset)

TANSIG = Activation.TANSIG
LOGSIG = Activation.LOGSIG
PURELIN = Activation.PURELIN


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    all_ok = True
    worst_rel = 0.0
    worst_abs = 0.0
    for _ in range(50):
        config = random_config(rng, max_layers=3, max_neurons=8)
        net = init_network(config)
        batch = random_batch(rng, config, max_patterns=8)
        analytic, _ = backprop_gradients(net, batch)
        fd_w, fd_b = fd_gradients(net, batch, h=1e-5)
        ok, rel, abs_ = gradient_check(analytic, fd_w, fd_b)
        all_ok = all_ok and ok
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, abs_)
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 10.0
    report(1, ok, f"50 networks: worst relative error {worst_rel:.3e} "
                  f"(entries above the 1e-8 absolute floor), worst absolute "
                  f"difference {worst_abs:.3e}, {elapsed:.1f}s")


def test_criterion_2_xor_convergence():
    batch = (np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
             np.array([[-0.9], [0.9], [0.9], [-0.9]]))
    params = TrainParams(learning_rate=0.05, error_goal=0.01, max_epochs=5000)
    start = time.perf_counter()
    converged = 0
    for seed in range(10):
        config = NetworkConfig(2, (LayerSpec(2, TANSIG), LayerSpec(1, TANSIG)), seed=seed)
        _, trace = train(init_network(config), batch, params)
        if trace.final_mse is not None and trace.final_mse < 0.01:
            converged += 1
    elapsed = time.perf_counter() - start
    ok = converged >= 9 and elapsed < 5.0
    report(2, ok, f"{converged}/10 seeds reached MSE < 0.01, {elapsed:.1f}s")


def test_criterion_3_accuracy_formula():
    a = accuracy_from_mse(0.096841)
    b = accuracy_from_mse(0.009174)
    ok = (
        abs(a - 99.903159) <= 1e-9 and f"{a:.2f}" == "99.90"
        and abs(b - 99.990826) <= 1e-9 and f"{b:.2f}" == "99.99"
    )
    report(3, ok, f"accuracy(0.096841)={a:.6f}, accuracy(0.009174)={b:.6f}")


def test_criterion_4_grid_trend_reproduction():
    dataset = raw_embedded_dataset(threshold=2.5)
    start = time.perf_counter()
    rows = run_sweep(canonical_grid(seeds=tuple(range(10))), dataset, TrainParams())
    elapsed = time.perf_counter() - start

    def mean(label, epochs):
        row = next(r for r in rows if r.label == label and r.epochs == epochs)
        return row.mean_mse

    deep = mean("4/logsig + 1/tansig", 1000)
    shallow = mean("1/tansig", 1000)
    two_long = mean("2/logsig + 1/tansig", 1000)
    two_short = mean("2/logsig + 1/tansig", 35)
    best = min(r.mean_mse for r in rows)
    ok = (deep < shallow) and (two_long <= two_short) and (best <= 0.15) and elapsed < 120.0
    report(4, ok, f"deep {deep:.6f} < shallow {shallow:.6f}; "
                  f"2/logsig {two_long:.6f} @1000 <= {two_short:.6f} @35; "
                  f"best {best:.6f} <= 0.15; {elapsed:.1f}s")


def test_criterion_5_validation_trajectory_shape():
    dataset = raw_embedded_dataset(threshold=2.5)
    train_batch = as_training_batch(dataset.training)
    test_batch = as_training_batch(dataset.testing)
    params = TrainParams()  # 1000 epochs, goal 0.01, lr 0.01
    good_seeds = 0
    for seed in range(10):
        config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=seed)
        trained, _ = train(init_network(config), train_batch, params)
        _, trace = train(trained, test_batch, replace(params, max_epochs=50))
        accepted = [r.mse for r in trace.records if r.accepted]
        non_increasing = all(b <= a for a, b in zip(accepted, accepted[1:]))
        final = trace.final_mse
        if non_increasing and final is not None and final <= 0.015 and len(trace.records) <= 50:
            good_seeds += 1
    ok = good_seeds >= 8
    report(5, ok, f"{good_seeds}/10 seeds gave a non-increasing trajectory "
                  f"ending <= 0.015 within 50 epochs")


def test_criterion_6_adaptive_lr_rule():
    # Single purelin neuron, x = 1, t = 1: candidate mse = (4 lr - 1)^2.
    config = NetworkConfig(1, (LayerSpec(1, PURELIN),), seed=0)
    net = Network(config, [np.array([[0.0]])], [np.array([0.0])])
    batch = (np.array([[1.0]]), np.array([[1.0]]))
    params = TrainParams()

    lr_bad = 2.0  # candidate mse 49: forced increase far beyond 4%
    rejected = train_epoch(net, zero_gradients(net), batch, params, lr_bad, previous_mse=1.0)
    unchanged = (
        np.array_equal(rejected.net.weights[0], net.weights[0])
        and np.array_equal(rejected.net.biases[0], net.biases[0])
    )
    lr_good = 0.01  # candidate mse 0.9216: forced improvement
    accepted = train_epoch(net, zero_gradients(net), batch, params, lr_good, previous_mse=1.0)

    ok = (
        not rejected.accepted and unchanged
        and rejected.learning_rate == 0.7 * lr_bad
        and accepted.accepted
        and accepted.learning_rate == 1.05 * lr_good
    )
    report(6, ok, f"rejection lr {rejected.learning_rate!r} == 0.7*{lr_bad!r}, "
                  f"improvement lr {accepted.learning_rate!r} == 1.05*{lr_good!r}, "
                  f"parameters unchanged: {unchanged}")


def test_criterion_7_determinism_and_persistence(tmp_path):
    dataset = prepared_embedded()
    batch = as_training_batch(dataset.training)
    params = TrainParams(max_epochs=250)
    config = NetworkConfig(3, (LayerSpec(4, LOGSIG), LayerSpec(1, TANSIG)), seed=42)

    net1, trace1 = train(init_network(config), batch, params)
    net2, trace2 = train(init_network(config), batch, params)
    traces_identical = trace1 == trace2 and all(
        np.array_equal(a, b)
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases)
    )

    model = model_from_training(net1, dataset.normalization, params,
                                trace1.final_mse, SurrogateRule(2.5))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    probes = [(1.0, 2.0, 1.0), (5.0, 5.0, 5.0), (2.5, 2.5, 2.5), (-1.0, 4.0, 0.1)]
    zero_ulp = all(
        diagnose(loaded, p).raw_output == diagnose(model, p).raw_output for p in probes
    )
    ok = traces_identical and zero_ulp
    report(7, ok, f"bit-identical traces: {traces_identical}, "
                  f"save/load predictions to 0 ulp: {zero_ulp}")


def test_criterion_8_dataset_fidelity():
    ds = load_embedded()
    X, Xt = ds.training[0], ds.testing[0]
    spot = (
        X.shape == (52, 3)
        and Xt.shape == (23, 3)
        and X[0].tolist() == [1.0, 2.0, 1.0]      # Emp1
        and X[29].tolist() == [5.0, 5.0, 5.0]     # Emp30
        and Xt[15].tolist() == [0.0, 0.0, 0.0]    # Empt16
    )
    resp = QuestionnaireResponse({f: 3.0 for f in ALL_FACTORS})
    agg = aggregate_questionnaire(resp) == (3.0, 3.0, 3.0)
    ok = spot and agg
    report(8, ok, f"52/23 rows with reference values: {spot}, "
                  f"all-3s questionnaire aggregates to (3,3,3): {agg}")
