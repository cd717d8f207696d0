"""Pinned SHA-256 digests of what the system computes.

Each digest covers exact outputs (floats as ``repr``): trained weights,
biases and traces, sweep CSVs, diagnoses and model-file bytes.  Any
change to a trained number, however small, fails here.  A change that is
meant to move the numbers must say so and re-pin the digests.

The digests also depend on the BLAS kernel.  They were pinned with
numpy 2.4's OpenBLAS on its AVX-512 (SkylakeX) kernel; its Haswell and
Sandybridge kernels, which a machine without AVX-512 gets, round some
products differently, and six of the seven digests differ there.
A mismatch names the kernel and numpy's SIMD level it ran on, as does
the suite's report header.
"""

import hashlib
import json
import re

import pytest

from hrdiag import (
    Dataset,
    LayerSpec,
    NetworkConfig,
    TrainParams,
    as_training_batch,
    assign_surrogate_targets,
    canonical_grid,
    diagnose,
    init_network,
    load_embedded,
    load_model,
    prepared_embedded,
    render_csv,
    run_sweep,
    train,
)
from hrdiag.cli import main

from helpers import platform_fingerprint

GOLDEN = {
    "train_embedded": "77906d6bb89f1c3f449dfc520f5d21ecdbc23bacdec9a0ae3ff548694db05f3b",
    "train_deep_plain": "d0e222c21bda273e46d57e4107e706948a24d5fc7857306e114f32d3782f9771",
    "model_bytes": "296bbf36a5ad5785ffffabec7ace18c675c6aabdfb2d939d9307958043790575",
    "diagnose": "2a25780fb0c4883fafafd19ab7e046e4ee82faea6f8c658df37d683af245c0a0",
    "cli_outputs": "f64dda9fae1a1003756316d058bbd160618f3a73996761a8424a529cc90d1949",
    "sweep_normalized": "62a26d0e76872588b69bbab642c22f83f9b6e1a94421280594e62280dab8d4ce",
    "sweep_raw": "b034b483b00ca73921bd54d67ff59eced2ef53c04b71ffdcc0636decc9e36120",
}

# Raw aggregates spanning the declared [-1, 5] range, corners included.
PROBES = [(1.0, 2.0, 1.0), (5.0, 5.0, 5.0), (2.5, 2.5, 2.5), (-1.0, 4.0, 0.1),
          (-1.0, -1.0, -1.0), (3.2, 1.7, 4.4), (2.0, 3.0, 2.9), (4.1, 0.3, 2.2)]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def check_digest(name, value) -> None:
    core, level = platform_fingerprint()
    assert digest(value) == GOLDEN[name], (
        f"{name} digest differs on OpenBLAS core {core} with numpy SIMD level {level}; "
        "the digests were pinned on SkylakeX with X86_V4")


def pinned_run(net, trace) -> dict:
    return {
        "weights": [W.tolist() for W in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "trace": [[r.epoch, repr(r.mse), repr(r.learning_rate), r.accepted]
                  for r in trace.records],
        "stopping_reason": trace.stopping_reason.value,
    }


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "model.json"
    assert main(["train", "--embedded", "--quiet", "-o", str(path)]) == 0
    return path


def test_canonical_train_embedded():
    """The defaults of ``hrdiag train --embedded``: 4/logsig + 1/tansig,
    seed 42, 1000 epochs, adaptive learning rate."""
    batch = as_training_batch(prepared_embedded().training)
    config = NetworkConfig(3, (LayerSpec.parse("4/logsig"), LayerSpec.parse("1/tansig")), seed=42)
    trained, trace = train(init_network(config), batch, TrainParams())
    check_digest("train_embedded", pinned_run(trained, trace))


def test_deep_plain_descent():
    """Two hidden layers, fixed learning rate: the non-adaptive path and a
    three-layer backward pass."""
    batch = as_training_batch(prepared_embedded().training)
    layers = tuple(LayerSpec.parse(s) for s in ("3/tansig", "2/logsig", "1/tansig"))
    params = TrainParams(learning_rate=0.05, max_epochs=300, adaptive=False, error_goal=1e-9)
    trained, trace = train(init_network(NetworkConfig(3, layers, seed=7)), batch, params)
    check_digest("train_deep_plain", pinned_run(trained, trace))


def test_model_file_bytes(model_path):
    # Every byte except the wall-clock creation stamp.
    text = re.sub(r'"created_at": "[^"]*"', '"created_at": ""', model_path.read_text("utf-8"))
    check_digest("model_bytes", text)


def test_diagnoses(model_path):
    model = load_model(model_path)
    outputs = []
    for probe in PROBES:
        d = diagnose(model, probe)
        outputs.append([d.label.value, repr(d.raw_output)])
    check_digest("diagnose", outputs)


def test_cli_outputs(capsys, model_path):
    outputs = [
        run_cli(capsys, "train", "--embedded"),
        run_cli(capsys, "train", "--embedded", "--hidden", "none", "--epochs", "80"),
        run_cli(capsys, "eval", str(model_path), "--embedded", "--paper-validation"),
        run_cli(capsys, "predict", str(model_path), "3.5,2.0,4.0"),
    ]
    check_digest("cli_outputs", outputs)


def test_sweep_normalized():
    rows = run_sweep(canonical_grid(seeds=tuple(range(10))), prepared_embedded(), TrainParams())
    check_digest("sweep_normalized", render_csv(rows))


def test_sweep_raw():
    raw = load_embedded()
    dataset = Dataset(assign_surrogate_targets(raw.training), assign_surrogate_targets(raw.testing))
    rows = run_sweep(canonical_grid(seeds=tuple(range(10))), dataset, TrainParams())
    check_digest("sweep_raw", render_csv(rows))
