import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrdiag import ALL_FACTORS, Activation, NetworkConfig, TrainParams, init_network, load_model
from hrdiag import cli
from hrdiag import sweep as sweep_mod
from hrdiag.cli import COMMANDS, build_parser, main
from hrdiag.data import SURROGATE_THRESHOLD
from hrdiag.network import LayerSpec, _Workspace
from test_data import CSV_PIECES

ROOT = Path(__file__).resolve().parent.parent
TOP_USAGE = "usage: hrdiag [-h] {train,eval,sweep,predict,score} ..."


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model.json"
    code = main(["train", "--embedded", "--epochs", "300", "--seed", "42",
                 "-o", str(path), "--quiet"])
    assert code == 0
    return path


def questionnaire_csv(tmp_path, score):
    path = tmp_path / "q.csv"
    lines = ["factor_id,score"] + [f"{f},{score}" for f in ALL_FACTORS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTrain:
    def test_reports_mse_and_accuracy(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--embedded", "--hidden", "4/logsig",
                             "--epochs", "1000", "--lr", "0.01", "--goal", "0.01",
                             "--seed", "42", "-o", str(out_path))
        assert code == 0 and err == ""
        assert "MSE" in out and "accuracy" in out
        assert "surrogate" in out  # caveat line
        assert out_path.exists()

    def test_zero_epochs_keeps_initial_weights(self, capsys, tmp_path):
        out_path = tmp_path / "m0.json"
        code, out, _ = run(capsys, "train", "--embedded", "--epochs", "0",
                           "--seed", "7", "-o", str(out_path))
        assert code == 0
        assert "zero-epoch" in out
        model = load_model(out_path)
        net = model.network
        fresh = init_network(net.config)
        for a, b in zip(net.weights + net.biases, fresh.weights + fresh.biases):
            assert a.tolist() == b.tolist()

    def test_missing_data_file_names_path(self, capsys):
        code, _, err = run(capsys, "train", "--data", "/nope/missing.csv")
        assert code != 0
        assert "missing.csv" in err and err.startswith("error:")

    def test_trains_from_csv_with_split(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        rows = ["strategic,tactical,operational"] + [f"{1 + i % 5},{1 + (i * 2) % 5},{1 + (i * 3) % 5}"
                                                     for i in range(20)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "train", "--data", str(data), "--split",
                           "--epochs", "20")
        assert code == 0
        assert "training patterns: 14" in out

    @pytest.mark.parametrize("split", [(), ("--split",)], ids=["whole", "split"])
    def test_negative_seed_named_with_or_without_split(self, capsys, tmp_path, split):
        data = tmp_path / "d.csv"
        data.write_text("strategic,tactical,operational\n1,2,3\n4,5,1\n3,3,3\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--data", str(data), *split, "--seed", "-1")
        assert (code, err) == (1, "error: seed must be non-negative, got -1\n")

    def test_header_only_csv_is_an_empty_batch(self, capsys, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("strategic,tactical,operational\n", encoding="utf-8")
        assert run(capsys, "train", "--data", str(data)) == (1, "", "error: empty batch\n")

    def test_no_source_is_an_error(self, capsys):
        code, _, err = run(capsys, "train")
        assert code != 0 and "no data source" in err

    def test_sub_one_inputs_give_one_note(self, capsys, tmp_path):
        data = tmp_path / "low.csv"
        data.write_text("strategic,tactical,operational\n0.5,2,3\n4,0,-1\n", encoding="utf-8")
        argv = ["train", "--data", str(data), "--epochs", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quiet = run(capsys, *argv, "--quiet")
            loud = run(capsys, *argv)
        assert quiet == (0, "", "")
        assert [str(w.message) for w in caught] == []
        code, out, err = loud
        assert code == 0 and err == ""
        notes = [line for line in out.splitlines() if line.startswith("note: ")
                 and "below the 1..5" in line]
        assert notes == [f"note: {data}: 3 input value(s) below the 1..5 questionnaire "
                         f"scale (accepted; declared range is [-1, 5])"]

    def test_saturated_net_is_scored_quietly(self, capsys):
        # A huge rate saturates the net; training and the final score run
        # under the same quiet overflow policy, so nothing reaches stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "train", "--embedded", "--lr", "1e308", "--quiet")
        assert (code, out, err) == (0, "", "")
        assert [str(w.message) for w in caught] == []

    def test_non_finite_threshold_rejected(self, capsys):
        code, out, err = run(capsys, "train", "--embedded", "--threshold", "nan",
                             "--epochs", "1")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "threshold" in err


class TestEval:
    def test_train_split_mse_matches_model(self, capsys, model_path):
        model = load_model(model_path)
        code, out, _ = run(capsys, "eval", str(model_path), "--embedded", "--split", "train")
        assert code == 0
        shown = float(re.search(r"test MSE: ([0-9.]+)", out).group(1))
        assert shown == pytest.approx(model.final_train_mse, abs=5e-7)
        assert "confusion" in out and "surrogate" in out

    def test_paper_validation_line_format(self, capsys, model_path):
        code, out, _ = run(capsys, "eval", str(model_path), "--embedded",
                           "--paper-validation")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("error=")]
        assert lines, out
        for line in lines:
            assert re.fullmatch(r"error=\d+\.\d{6} no\.of epoches=\d+", line)

    @pytest.mark.parametrize("threshold", ["x", math.nan])
    def test_bad_model_threshold_rejected(self, capsys, model_path, tmp_path, threshold):
        raw = json.loads(model_path.read_text(encoding="utf-8"))
        raw["surrogate_target_rule"]["threshold"] = threshold  # json writes NaN
        path = tmp_path / "bad-threshold.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "--embedded")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "threshold" in err

    def test_targets_required(self, capsys, model_path, tmp_path):
        data = tmp_path / "notargets.csv"
        data.write_text("strategic,tactical,operational\n1,2,3\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", str(model_path), "--data", str(data))
        assert code != 0 and "targets required" in err

    def test_one_forward_pass_gives_mse_and_confusion(self, capsys, model_path, monkeypatch):
        # A one-shot pass builds its calls and runs them once: count the builds.
        calls = []
        forward_calls = _Workspace.forward_calls

        def counted(self, *args):
            calls.append(args)
            return forward_calls(self, *args)

        monkeypatch.setattr(_Workspace, "forward_calls", counted)
        code, out, _ = run(capsys, "eval", str(model_path), "--embedded")
        assert code == 0 and "test MSE" in out and "confusion" in out
        assert len(calls) == 1


class TestPredict:
    def test_all_fives_is_success(self, capsys, model_path, tmp_path):
        q = questionnaire_csv(tmp_path, 5)
        code, out, _ = run(capsys, "predict", str(model_path), "--questionnaire", str(q))
        assert code == 0
        assert "label: success" in out

    def test_all_ones_is_failure(self, capsys, model_path, tmp_path):
        q = questionnaire_csv(tmp_path, 1)
        code, out, _ = run(capsys, "predict", str(model_path), "--questionnaire", str(q))
        assert code == 0
        assert "label: failure" in out

    def test_out_of_range_input_rejected(self, capsys, model_path):
        code, _, err = run(capsys, "predict", str(model_path), "6,1,1")
        assert code != 0
        assert "[-1, 5]" in err

    def test_deterministic_output(self, capsys, model_path):
        code1, out1, _ = run(capsys, "predict", str(model_path), "3.5,2.0,4.0")
        code2, out2, _ = run(capsys, "predict", str(model_path), "3.5,2.0,4.0")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_accuracy_equals_100_minus_mse(self, capsys, model_path):
        _, out, _ = run(capsys, "predict", str(model_path), "3.5,2.0,4.0")
        mse = float(re.search(r"MSE: ([0-9.]+)", out).group(1))
        acc = float(re.search(r"accuracy \(100 - MSE\): ([0-9.]+)", out).group(1))
        assert acc == pytest.approx(100.0 - mse, abs=1e-6)


class TestScore:
    def test_constant_scores(self, capsys, tmp_path):
        q = questionnaire_csv(tmp_path, 3)
        code, out, _ = run(capsys, "score", str(q))
        assert code == 0
        assert out.splitlines()[0] == "x1=3.000 x2=3.000 x3=3.000"

    def test_factor_order_preserved(self, capsys, tmp_path):
        q = questionnaire_csv(tmp_path, 2)
        _, out, _ = run(capsys, "score", str(q))
        positions = [out.index(f) for f in ALL_FACTORS]
        assert positions == sorted(positions)

    def test_duplicate_factor_rejected(self, capsys, tmp_path):
        q = tmp_path / "dup.csv"
        lines = ["factor_id,score"] + [f"{f},3" for f in ALL_FACTORS] + ["communication,4"]
        q.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "score", str(q))
        assert code != 0 and "communication" in err


# Bodies the csv module cannot read: a byte that is not UTF-8, and one cell
# past its 131,072-character field limit.
UNREADABLE_CSV = {"non-utf8": b"\xff,1\n", "huge-cell": b"1," + b"1" * 131_073 + b"\n"}


@pytest.mark.parametrize("body", UNREADABLE_CSV.values(), ids=UNREADABLE_CSV)
@pytest.mark.parametrize("command", ["train", "predict", "score"])
def test_unreadable_csv_gives_one_error_line_naming_the_file(capsys, model_path, tmp_path,
                                                             command, body):
    path = tmp_path / "unreadable.csv"
    header = b"strategic,tactical,operational\n" if command == "train" else b"factor_id,score\n"
    path.write_bytes(header + body)
    argv = {
        "train": ["train", "--data", str(path)],
        "predict": ["predict", str(model_path), "--questionnaire", str(path)],
        "score": ["score", str(path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


# An input path that open() refuses before reading, passed in each slot
# that names an input file.
UNOPENABLE_ARGV = {
    "score": ["score", "{path}"],
    "predict-questionnaire": ["predict", "{model}", "--questionnaire", "{path}"],
    "predict-model": ["predict", "{path}", "1,2,3"],
    "train-data": ["train", "--data", "{path}"],
}


@pytest.mark.parametrize("path", ["in\x00.csv", "in\ud800.csv"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("argv", UNOPENABLE_ARGV.values(), ids=UNOPENABLE_ARGV)
def test_unopenable_path_is_named_in_the_one_error_line(capsys, model_path, argv, path):
    argv = [{"{path}": path, "{model}": str(model_path)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path!r}: ") and err.count("\n") == 1, err


EMPTY_DATA_ARGV = {
    "train": (["train", "--data", ""], "--data needs a CSV path, got ''"),
    "eval": (["eval", "{model}", "--data", ""], "--data needs a CSV path, got ''"),
    "sweep": (["sweep", "--data", "", "--seeds", "1", "--quiet"], "--data needs a CSV path, got ''"),
    "eval-embedded": (["eval", "{model}", "--embedded", "--data", "", "--quiet"],
                      "pass either --embedded or --data, not both"),
}


@pytest.mark.parametrize("argv, message", EMPTY_DATA_ARGV.values(), ids=EMPTY_DATA_ARGV)
def test_empty_data_path_is_a_given_source(capsys, model_path, argv, message):
    argv = [str(model_path) if a == "{model}" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# An empty output path, and the line that refuses it before any training.
EMPTY_OUTPUT_ARGV = {
    "train": (["train", "--embedded", "--epochs", "3", "-o", ""], "-o needs a path, got ''"),
    "sweep": (["sweep", "--seeds", "1", "--csv", ""], "--csv needs a path, got ''"),
}


@pytest.mark.parametrize("argv, message", EMPTY_OUTPUT_ARGV.values(), ids=EMPTY_OUTPUT_ARGV)
def test_empty_output_path_is_refused_before_training(capsys, monkeypatch, argv, message):
    for name in ("train", "run_sweep"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_split_with_embedded_is_refused_before_training(capsys, monkeypatch):
    # The bundled data comes split 52/23; --split would otherwise be ignored.
    monkeypatch.setattr(cli, "train", mock.Mock(side_effect=AssertionError("train ran")))
    assert run(capsys, "train", "--embedded", "--split") == (
        1, "", "error: --split applies to --data, not to --embedded\n")


def test_a_wide_output_layer_is_refused_before_the_data_is_read(capsys, monkeypatch, tmp_path):
    # Every target the CLI loads is one column, so only a one-neuron output layer can train.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_training_data", mock.Mock(side_effect=AssertionError("read")))
    assert run(capsys, "train", "--embedded", "--output-layer", "2/tansig", "-o", "m.json") == (
        1, "", "error: --output-layer must have 1 neuron, got '2/tansig'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--hidden", "4/relu", "unknown activation 'relu', expected one of: tansig, logsig, purelin"),
    ("--hidden", "0/tansig", "neuron count must be at least 1, got 0"),
    ("--output-layer", "0/tansig", "neuron count must be at least 1, got 0"),
], ids=["hidden-activation", "hidden-neurons", "output-neurons"])
def test_a_bad_layer_spec_names_its_flag(capsys, monkeypatch, tmp_path, flag, value, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "train", "--embedded", flag, value, "-o", "m.json") == (
        1, "", f"error: {flag}: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_split_with_data_is_refused(capsys, fuzz_paths):
    # --split picks one of the bundled splits; with --data it would otherwise be ignored.
    for split in ("train", "test"):
        assert run(capsys, "eval", fuzz_paths["{model}"], "--data", fuzz_paths["{respondents}"],
                   "--split", split) == (1, "", "error: --split applies to --embedded, not to --data\n")


# A --threshold that no labels use: the model's own rule labels the bundled
# rows, and a targeted --data file brings its own labels.
UNUSED_THRESHOLD_ARGV = {
    "eval-model-rule": (["eval", "{model}", "--embedded"],
                        f"--threshold is unused: the model records its own, {SURROGATE_THRESHOLD}"),
    "eval-data": (["eval", "{model}", "--data", "{respondents}"],
                  "--threshold applies to --embedded, not to --data"),
    "train-data": (["train", "--data", "{respondents}"],
                   "--threshold is unused: {respondents} has its own targets"),
    "sweep-data": (["sweep", "--data", "{respondents}", "--seeds", "1"],
                   "--threshold is unused: {respondents} has its own targets"),
}


@pytest.mark.parametrize("argv, message", UNUSED_THRESHOLD_ARGV.values(), ids=UNUSED_THRESHOLD_ARGV)
def test_unused_threshold_is_refused(capsys, monkeypatch, fuzz_paths, argv, message):
    for name in ("train", "run_sweep"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    argv = [fuzz_paths.get(a, a) for a in argv]
    message = message.replace("{respondents}", fuzz_paths["{respondents}"])
    assert run(capsys, *argv, "--threshold", "4.5") == (1, "", f"error: {message}\n")


def test_threshold_labels_and_is_recorded(capsys, fuzz_paths, tmp_path):
    def confusion(*flag):
        _, out, _ = run(capsys, "eval", fuzz_paths["{targeted}"], "--embedded", *flag)
        return next(line for line in out.splitlines() if line.startswith("confusion"))

    # A model with no recorded rule: eval labels the bundled rows with --threshold.
    assert confusion() != confusion("--threshold", "4.5")
    for flag, threshold in (((), SURROGATE_THRESHOLD), (("--threshold", "3"), 3.0)):
        path = tmp_path / "m.json"
        assert main(["train", "--embedded", "--epochs", "0", "--quiet", "-o", str(path), *flag]) == 0
        assert load_model(path).surrogate_rule.threshold == threshold


def test_train_flags_set_their_train_params_fields(tmp_path):
    default, given = tmp_path / "default.json", tmp_path / "given.json"
    assert main(["train", "--embedded", "--quiet", "-o", str(default)]) == 0
    assert asdict(load_model(default).train_params) == asdict(TrainParams())
    flags = ["--epochs", "3", "--lr", "0.02", "--goal", "0.005", "--momentum", "0.5",
             "--no-adaptive", "--lr-increase", "1.1", "--lr-decrease", "0.5",
             "--max-error-ratio", "1.5"]
    assert main(["train", "--embedded", "--quiet", "-o", str(given), *flags]) == 0
    assert asdict(load_model(given).train_params) == asdict(TrainParams(
        learning_rate=0.02, momentum=0.5, error_goal=0.005, max_epochs=3, lr_increase=1.1,
        lr_decrease=0.5, max_error_ratio=1.5, adaptive=False))


# A run of each command that prints to stdout.
LOUD_ARGV = {
    "train": ["train", "--embedded", "--epochs", "5"],
    "eval": ["eval", "{model}", "--embedded"],
    "sweep": ["sweep", "--seeds", "1"],
    "predict": ["predict", "{model}", "3,3,3"],
    "score": ["score", "{questionnaire}"],
}


@pytest.mark.parametrize("argv", LOUD_ARGV.values(), ids=LOUD_ARGV)
def test_quiet_prints_nothing_and_changes_nothing_else(capsys, fuzz_paths, argv):
    argv = [fuzz_paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert out != ""
    assert run(capsys, *argv, "--quiet") == (code, "", err)


# An empty input path in each slot that names an input file: Path('') is
# the current directory, which the user never named.
EMPTY_INPUT_ARGV = {
    "score": (["score", ""], "questionnaire needs a CSV path, got ''"),
    "predict-questionnaire": (["predict", "{model}", "--questionnaire", ""],
                              "--questionnaire needs a CSV path, got ''"),
    "eval-model": (["eval", "", "--embedded"], "model needs a path, got ''"),
    "predict-model": (["predict", "", "1,2,3"], "model needs a path, got ''"),
}


@pytest.mark.parametrize("argv, message", EMPTY_INPUT_ARGV.values(), ids=EMPTY_INPUT_ARGV)
def test_empty_input_path_names_its_argument(capsys, model_path, argv, message):
    argv = [str(model_path) if a == "{model}" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# Each output flag, last, so that a path can follow it.
OUTPUT_ARGV = {
    "-o": ["train", "--embedded", "--epochs", "3", "--quiet", "-o"],
    "-o-not-quiet": ["train", "--embedded", "--epochs", "3", "-o"],
    "--csv": ["sweep", "--seeds", "1", "--quiet", "--csv"],
}


def forbid_training(monkeypatch):
    """Make training and the sweep's grid fail the test if they run."""
    for name in ("train", "run_sweep"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))


@pytest.mark.parametrize("path", ["out\x00.csv", "out\ud800.csv"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("argv", OUTPUT_ARGV.values(), ids=OUTPUT_ARGV)
def test_unopenable_output_path_is_named_in_the_one_error_line(capsys, monkeypatch, argv, path):
    forbid_training(monkeypatch)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path!r}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", OUTPUT_ARGV.values(), ids=OUTPUT_ARGV)
def test_output_path_in_a_missing_directory_is_named_and_leaves_no_sibling(
        capsys, monkeypatch, tmp_path, argv):
    forbid_training(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, "nodir/out") == (
        1, "", "error: [Errno 2] No such file or directory: 'nodir/out'\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_csv_directory_fails_before_the_grid_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_sweep", mock.Mock(side_effect=AssertionError("the grid ran")))
    code, out, err = run(capsys, "sweep", "--seeds", "1", "--csv", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_a_failed_sweep_leaves_the_old_csv_and_no_sibling(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sweep_mod, "train", mock.Mock(side_effect=ValueError("synthetic failure")))
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_bytes(b"old,bytes\r\n")
    assert run(capsys, "sweep", "--seeds", "1", "--csv", str(csv_path)) == (
        1, "", "error: synthetic failure\n")
    assert csv_path.read_bytes() == b"old,bytes\r\n"
    assert list(tmp_path.iterdir()) == [csv_path]


class TestSweep:
    def test_default_run_prints_15_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--csv", str(csv_path))
        assert code == 0
        table_lines = [l for l in out.splitlines() if "tansig" in l]
        assert len(table_lines) == 15
        assert csv_path.exists()

    def test_seed_list_and_csv_round_trip(self, capsys, tmp_path):
        import csv as csv_mod

        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--seeds", "1..2", "--csv", str(csv_path))
        assert code == 0
        with csv_path.open() as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 15
        assert all(r["seeds"] == "1;2" for r in rows)
        for r in rows:
            per_seed = [float(v) for v in r["mse_per_seed"].split(";")]
            assert len(per_seed) == 2
            assert float(r["mse_mean"]) == pytest.approx(sum(per_seed) / 2, rel=1e-15)

    def test_a_failing_seed_exits_1_with_one_line(self, capsys, monkeypatch):
        real_train = sweep_mod.train

        def train_failing_for_seed_2_of_2_logsig(net, batch, params, on_epoch=None):
            if net.config.layers[0] == LayerSpec(2, Activation.LOGSIG) and net.config.seed == 2:
                raise ValueError("synthetic failure")
            return real_train(net, batch, params, on_epoch=on_epoch)

        monkeypatch.setattr(sweep_mod, "train", train_failing_for_seed_2_of_2_logsig)
        assert run(capsys, "sweep", "--seeds", "1..2") == (1, "", "error: synthetic failure\n")

    @pytest.mark.parametrize("seeds, bad", [(("--seeds=-2..-1",), -2), (("--seeds", "3,-1"), -1)],
                             ids=["range", "list"])
    def test_negative_seed_rejected(self, capsys, seeds, bad):
        code, out, err = run(capsys, "sweep", *seeds)
        assert code == 1 and out == ""
        assert err == f"error: seed must be non-negative, got {bad}\n"

    def test_default_seeds_are_the_network_seed(self, capsys, tmp_path):
        paths = [tmp_path / "default.csv", tmp_path / "42.csv"]
        assert main(["sweep", "--quiet", "--csv", str(paths[0])]) == 0
        assert main(["sweep", "--quiet", "--seeds", "42", "--csv", str(paths[1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spec", ["1.5", "1..3..5", "9..1"])
    def test_bad_seed_spec_names_the_flag_and_its_syntax(self, capsys, spec):
        code, out, err = run(capsys, "sweep", "--seeds", spec)
        assert code == 1 and out == ""
        assert err == f"error: --seeds must be N, N,M,... or A..B with A <= B, got {spec!r}\n"

    def test_an_overflowing_seed_range_is_refused_in_one_line(self, capsys):
        # 10**20 seeds: more than sys.maxsize, so the range has no length and
        # nothing is allocated.  10**17 seeds fit in sys.maxsize, but their
        # eight-byte tuple slots exceed the address space: the allocation fails at once.
        for spec in ("1..100000000000000000000", "1..100000000000000000"):
            code, out, err = run(capsys, "sweep", "--seeds", spec)
            assert code == 1 and out == ""
            assert err == f"error: --seeds range has too many seeds, got {spec!r}\n"

    def test_a_repeated_seed_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", mock.Mock(side_effect=AssertionError("the grid ran")))
        assert run(capsys, "sweep", "--seeds", "01,1") == (1, "", "error: seed 1 is repeated\n")

    def test_empty_seed_spec_is_refused_not_replaced_by_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", mock.Mock(side_effect=AssertionError("the grid ran")))
        code, out, err = run(capsys, "sweep", "--seeds", "", "--quiet")
        assert code == 1 and out == ""
        assert err == "error: --seeds must be N, N,M,... or A..B with A <= B, got ''\n"


class TestParsingHelpers:
    def test_hidden_spec_parsing(self):
        from hrdiag.cli import _parse_hidden

        assert _parse_hidden("none") == ()
        assert _parse_hidden("4/logsig") == (LayerSpec.parse("4/logsig"),)
        assert _parse_hidden("4/logsig,2/tansig") == (
            LayerSpec.parse("4/logsig"), LayerSpec.parse("2/tansig"))

    def test_seed_spec_parsing(self):
        from hrdiag.cli import _parse_seeds

        assert _parse_seeds("7") == (7,)
        assert _parse_seeds("1,2,5") == (1, 2, 5)
        assert _parse_seeds("1..4") == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            _parse_seeds("9..1")


def test_model_config_matches_flags(model_path):
    model = load_model(model_path)
    assert model.network.config == NetworkConfig(
        3, (LayerSpec.parse("4/logsig"), LayerSpec.parse("1/tansig")), seed=42)


class TestParser:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_parser_help_matches_subparser(self, capsys, command):
        # The top-level subparser only names the command; its help is the
        # command's own parser's, printed under the same prog.
        full = build_parser()
        sub = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
        parser = build_parser(command)
        assert sub.choices[command].prog == parser.prog
        with pytest.raises(SystemExit) as exit_info:
            main([command, "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == parser.format_help()

    def test_top_level_help_lists_every_command_with_its_help_line(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["-h"])
        assert exit_info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (help_text, _) in COMMANDS.items():
            assert any(re.fullmatch(rf"\s+{name}\s+{re.escape(help_text)}", line) for line in lines)

    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "unknown-command"])
    def test_missing_or_unknown_command_exits_2_with_top_level_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith(TOP_USAGE + "\n")

    def test_command_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hrdiag predict ")

    @pytest.mark.parametrize("command", [*COMMANDS, None])
    def test_each_parser_is_built_once(self, command):
        assert build_parser(command) is build_parser(command)

    def test_reused_parser_dispatches_to_the_patched_command(self, monkeypatch, model_path):
        build_parser("predict")
        seen = []

        def stub(args):
            seen.append(args)
            return 7

        monkeypatch.setattr(cli, "cmd_predict", stub)
        assert main(["predict", str(model_path), "1,2,3", "--quiet"]) == 7
        assert main(["predict", str(model_path), "1,2,3"]) == 7
        assert [args.quiet for args in seen] == [True, False]  # a fresh namespace per call

    @pytest.mark.parametrize("argv", [["eval", "m.json", "--embedded"], ["sweep"],
                                      ["predict", "m.json", "1,2,3"], ["score", "q.csv"]],
                             ids=["eval", "sweep", "predict", "score"])
    def test_seed_is_train_only(self, capsys, argv):
        # Only train reads a seed; sweep takes its seeds from --seeds.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", "7"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: hrdiag {argv[0]} ")
        assert err.endswith(f"hrdiag {argv[0]}: error: unrecognized arguments: --seed 7\n")

    def test_unrecognized_argument_exits_2_with_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "m.json", "1,2,3", "--bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hrdiag predict ")
        assert err.endswith("hrdiag predict: error: unrecognized arguments: --bogus\n")


# Values any flag or positional slot of a fuzzed command may get.  The
# braced names stand for files the test fills in (see ``fuzz_paths``).
ODD_VALUES = (st.sampled_from(["", "nan", "inf", "1e999", "-1", "9" * 400, "3,3,3"])
              | st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=6))
PATH_SLOTS = ["{model}", "{targeted}", "{questionnaire}", "{respondents}", "{pieces}",
              "{missing}", "{dir}"]


@pytest.fixture(scope="module")
def fuzz_paths(model_path, tmp_path_factory):
    """What each of ``PATH_SLOTS`` stands for: the trained model, a model
    trained on a targeted respondent CSV (so without a surrogate rule), a
    full questionnaire, that respondent CSV, a file of drawn CSV bytes, a
    missing file and a directory."""
    directory = tmp_path_factory.mktemp("cli-fuzz")
    respondents = directory / "respondents.csv"
    respondents.write_text(
        "strategic,tactical,operational,target\n3,3,3,0.9\n1,2,1,-0.9\n", encoding="utf-8")
    assert main(["train", "--data", str(respondents), "--epochs", "3",
                 "-o", str(directory / "targeted.json"), "--quiet"]) == 0
    files = [model_path, directory / "targeted.json", questionnaire_csv(directory, 3),
             respondents, directory / "pieces.csv", directory / "missing.csv", directory]
    return dict(zip(PATH_SLOTS, map(str, files)))


@st.composite
def fuzzed_argv(draw, command):
    """``command`` with a random selection of its parser's own flags and
    positional slots, each given a drawn value.  ``--paper-validation``
    is left out: it trains."""
    def value(action):
        return draw(st.sampled_from(list(action.choices or ()) + PATH_SLOTS) | ODD_VALUES)

    actions = build_parser(command)._actions
    options = [a for a in actions if a.option_strings and a.dest != "paper_validation"]
    flags = [[draw(st.sampled_from(a.option_strings))] + ([value(a)] if a.nargs != 0 else [])
             for a in draw(st.lists(st.sampled_from(options), max_size=4))]
    # Each slot is filled three times in four, so that most argv get past
    # argparse's check for a missing positional.
    slots = [value(a) for a in actions
             if not a.option_strings and draw(st.sampled_from([True, True, True, False]))]
    at = draw(st.integers(0, len(flags)))
    return [command] + sum(flags[:at], []) + slots + sum(flags[at:], [])


@settings(deadline=None, max_examples=300)
@given(argv=st.sampled_from(["predict", "score", "eval"]).flatmap(fuzzed_argv),
       pieces=st.lists(st.sampled_from(CSV_PIECES), max_size=12).map(b"".join))
@example(argv=["predict", "{model}", "--questionnaire", ""], pieces=b"")
def test_fuzzed_argv_exits_cleanly(fuzz_paths, argv, pieces):
    # Exit 0, exit 1 with one "error: " line, or argparse's exit 2 (0 for
    # help); no warning and no other exception.
    Path(fuzz_paths["{pieces}"]).write_bytes(pieces)
    argv = [fuzz_paths.get(a, a) for a in argv]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exit_info:
            assert exit_info.code == 2 or (exit_info.code == 0 and {"-h", "--help"} & set(argv))
            return
    assert [str(w.message) for w in caught] == []
    stderr = err.getvalue()
    if code == 1:
        assert stderr.startswith("error: ") and stderr.endswith("\n") and stderr.count("\n") == 1, \
            stderr
    else:
        assert code == 0 and stderr == "", stderr


def run_module(*argv):
    """``python -m hrdiag.cli <argv>`` in a fresh interpreter, so that
    ``main`` reads its arguments from ``sys.argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "hrdiag.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_predict_matches_in_process_main(self, capsys, model_path):
        proc = run_module("predict", str(model_path), "3,3,3")
        code, out, _ = run(capsys, "predict", str(model_path), "3,3,3")
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out and proc.stderr == ""

    def test_no_arguments_exits_2_with_top_level_usage(self):
        proc = run_module()
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith(TOP_USAGE + "\n")
