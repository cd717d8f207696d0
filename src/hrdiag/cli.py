"""Command-line surface: train, eval, sweep, predict and score.

All commands are deterministic given their flags, whose defaults are the
library's own.  Reports that rest on surrogate targets say so on a
dedicated caveat line, since no published outcome labels exist for the
bundled survey data.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

if __name__ == "__main__":  # python -m hrdiag.cli: as in __main__.py, before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np

from .data import (
    RAW_MAX,
    RAW_MIN,
    SURROGATE_THRESHOLD,
    Dataset,
    _replacing,
    aggregate_questionnaire,
    as_training_batch,
    assign_surrogate_targets,
    load_csv,
    load_embedded,
    load_questionnaire_csv,
    normalize,
    prepared_embedded,
    split_70_30,
)
from .model_io import (
    SurrogateRule,
    diagnose,
    load_model,
    model_from_training,
    save_model,
)
from .network import LayerSpec, NetworkConfig, _score_batch, init_network
from .sweep import OUTPUT_LAYER, canonical_grid, render_csv, render_table, run_sweep
from .tables import FACTOR_GROUPS
from .training import TrainParams, accuracy_from_mse, evaluate, train

SURROGATE_CAVEAT = (
    "note: targets are surrogate labels (threshold rule on raw factor means), "
    "not observed outcomes"
)


def _parse_hidden(text: str) -> tuple[LayerSpec, ...]:
    text = text.strip()
    if text.lower() in ("", "none"):
        return ()
    return tuple(_parse_layer("--hidden", part) for part in text.split(","))


def _parse_layer(flag: str, text: str) -> LayerSpec:
    try:
        return LayerSpec.parse(text)
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Seed list syntax: '7', '1,2,5' or an inclusive range '1..10'."""
    lo, dots, hi = text.partition("..")
    try:
        seeds = tuple(range(int(lo), int(hi) + 1)) if dots else tuple(map(int, text.split(",")))
    except ValueError:
        seeds = ()
    except (OverflowError, MemoryError):
        raise ValueError(f"--seeds range has too many seeds, got {text!r}") from None
    if not seeds:
        raise ValueError(f"--seeds must be N, N,M,... or A..B with A <= B, got {text!r}")
    return seeds


def _nonempty(name: str, value: str | None, what: str = "a path") -> str | None:
    """``value``, the path given as ``name`` (or None): Path('') is the current
    directory, so an empty one is refused here, naming ``name``."""
    if value == "":
        raise ValueError(f"{name} needs {what}, got ''")
    return value


def _require_one_source(args) -> None:
    if args.embedded and args.data is not None:
        raise ValueError("pass either --embedded or --data, not both")
    if not args.embedded and args.data is None:
        raise ValueError("no data source: pass --embedded or --data <csv>")
    _nonempty("--data", args.data, "a CSV path")


def _read_csv(args):
    """The respondent set in ``--data``, with a note on sub-1 inputs."""
    X, T = load_csv(args.data)
    sub_one = int(np.count_nonzero(X < 1.0))
    if sub_one:
        print(f"note: {args.data}: {sub_one} input value(s) below the 1..5 questionnaire "
              f"scale (accepted; declared range is [{RAW_MIN:g}, {RAW_MAX:g}])")
    return X, T


def _load_training_data(args) -> tuple[Dataset, SurrogateRule | None]:
    """Training-ready dataset plus the surrogate rule that labeled it (None: the file's own)."""
    _require_one_source(args)
    rule = SurrogateRule(SURROGATE_THRESHOLD if args.threshold is None else args.threshold)
    if args.embedded:
        if getattr(args, "split", False):  # the bundled data comes split 52/23
            raise ValueError("--split applies to --data, not to --embedded")
        return prepared_embedded(rule.threshold), rule
    X, T = _read_csv(args)
    if T is None:
        X, T = assign_surrogate_targets((X, T), rule.threshold)
    elif args.threshold is None:
        rule = None
    else:
        raise ValueError(f"--threshold is unused: {args.data} has its own targets")
    if getattr(args, "split", False):
        training, testing = split_70_30((X, T), args.seed)
    else:
        training, testing = (X, T), (X[:0], T[:0])
    training_n, nmap = normalize(training)
    testing_n, _ = normalize(testing)
    return Dataset(training_n, testing_n, nmap), rule


def cmd_train(args) -> int:
    _nonempty("-o", args.model_out)
    layers = _parse_hidden(args.hidden) + (_parse_layer("--output-layer", args.output_layer),)
    if layers[-1].neurons != 1:  # every target the CLI loads is one column
        raise ValueError(f"--output-layer must have 1 neuron, got {args.output_layer!r}")
    dataset, rule = _load_training_data(args)
    batch = as_training_batch(dataset.training)
    config = NetworkConfig(3, layers, seed=args.seed)
    params = TrainParams(**{field: getattr(args, field) for field in TrainParams.__match_args__})
    net = init_network(config)
    # Opened before training and replaced after it, as sweep's --csv is.
    with (nullcontext() if args.model_out is None else _replacing(Path(args.model_out))) as out:
        trained, trace = train(net, batch, params)
        final_mse = evaluate(trained, batch)
        if not np.isfinite(final_mse):
            raise ValueError("training diverged to a non-finite MSE")

        print(f"architecture: {config.label} (seed {args.seed})")
        print(f"training patterns: {batch[0].shape[0]}")
        if params.max_epochs == 0:
            print("zero-epoch run: model keeps its initial random weights")
        print(f"epochs run: {len(trace.records)} ({trace.stopping_reason.value})")
        print(f"final training MSE: {final_mse:.6f}")
        print(f"accuracy (100 - MSE): {accuracy_from_mse(final_mse):.6f}")
        if rule is not None:
            print(SURROGATE_CAVEAT)
        if out is not None:
            model = model_from_training(trained, dataset.normalization, params, final_mse, rule)
            save_model(model, out)
    if args.model_out is not None:
        print(f"model written to {args.model_out}")
    return 0


def _load_eval_set(args, model) -> tuple[tuple, str]:
    """Raw-coordinate, targeted respondents for evaluation, and their source's name."""
    _require_one_source(args)
    if args.embedded:
        rule = model.surrogate_rule
        if rule is None:
            rule = SurrogateRule(SURROGATE_THRESHOLD if args.threshold is None else args.threshold)
        elif args.threshold is not None:
            raise ValueError(f"--threshold is unused: the model records its own, {rule.threshold}")
        raw = load_embedded()
        selected = raw.training if args.split == "train" else raw.testing
        return assign_surrogate_targets(selected, rule.threshold), args.split or "test"
    for flag in ("split", "threshold"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to --embedded, not to --data")
    X, T = _read_csv(args)
    if T is None:
        raise ValueError(f"{args.data}: targets required for evaluation")
    return (X, T), args.data


def cmd_eval(args) -> int:
    model = load_model(_nonempty("model", args.model))
    net = model.network
    (X, T), source = _load_eval_set(args, model)
    if model.normalization is not None:
        X = model.normalization.apply(X)
    batch = (X, T)

    work, mse = _score_batch(net, batch)
    outputs = work.acts[-1][:, 0]
    labels = T[:, 0] >= 0
    preds = outputs >= 0
    true_success = int(np.sum(preds & labels))
    true_failure = int(np.sum(~preds & ~labels))
    false_success = int(np.sum(preds & ~labels))
    false_failure = int(np.sum(~preds & labels))

    print(f"evaluation patterns: {X.shape[0]} ({source})")
    print(f"test MSE: {mse:.6f}")
    print(f"accuracy (100 - MSE): {accuracy_from_mse(mse):.6f}")
    print(f"confusion vs {'surrogate' if args.embedded else 'provided'} labels: "
          f"true success {true_success}, true failure {true_failure}, "
          f"false success {false_success}, false failure {false_failure}")
    if args.embedded:
        print(SURROGATE_CAVEAT)

    if args.paper_validation:
        _, trace = train(net, batch, model.train_params)
        print("validation trajectory (training continued on this data):")
        for line in trace.error_lines():
            print(line)
    return 0


def cmd_sweep(args) -> int:
    if not args.embedded and args.data is None:
        args.embedded = True  # the canonical sweep runs on the bundled data
    dataset, rule = _load_training_data(args)
    config = canonical_grid(_parse_seeds(args.seeds))
    params_base = TrainParams(momentum=args.momentum, adaptive=args.adaptive)
    # Opened before the grid runs and replaced after it: a path open() refuses
    # costs no training, and a failed sweep leaves the old file as it was.
    with (nullcontext() if args.csv is None
          else _replacing(Path(_nonempty("--csv", args.csv)))) as out:
        rows = run_sweep(config, dataset, params_base)
        print(render_table(rows))
        if rule is not None:
            print(SURROGATE_CAVEAT)
        if out is not None:
            out.write(render_csv(rows))
    if args.csv is not None:
        print(f"csv written to {args.csv}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(_nonempty("model", args.model))
    if (args.values is None) == (args.questionnaire is None):
        raise ValueError("pass either three comma-separated values or --questionnaire <csv>")
    if args.questionnaire is not None:
        values = aggregate_questionnaire(load_questionnaire_csv(
            _nonempty("--questionnaire", args.questionnaire, "a CSV path")))
        print(f"aggregates: x1={values[0]:.3f} x2={values[1]:.3f} x3={values[2]:.3f}")
    else:
        parts = args.values.split(",")
        input_dim = model.network.config.input_dim
        if len(parts) != input_dim:
            raise ValueError(f"expected {input_dim} comma-separated values, got {len(parts)}")
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ValueError(f"malformed input values {args.values!r}") from None

    d = diagnose(model, values)
    print(f"label: {d.label.value}")
    print(f"raw output: {d.raw_output:.6f}")
    print(f"model training MSE: {d.train_mse:.6f}")
    print(f"accuracy (100 - MSE): {d.accuracy:.6f}")
    if d.surrogate:
        print(SURROGATE_CAVEAT)
    return 0


def cmd_score(args) -> int:
    resp = load_questionnaire_csv(_nonempty("questionnaire", args.questionnaire, "a CSV path"))
    aggregates = aggregate_questionnaire(resp)
    print(" ".join(f"x{i}={mean:.3f}" for i, mean in enumerate(aggregates, 1)))
    print()
    width = max(len(f) for factors in FACTOR_GROUPS.values() for f in factors)
    for (group, factors), mean in zip(FACTOR_GROUPS.items(), aggregates):
        print(f"{group} factors (mean {mean:.3f}):")
        for factor in factors:
            print(f"  {factor.ljust(width)}  {resp.scores[factor]:g}")
    return 0


def _add_source(p) -> None:
    p.add_argument("--embedded", action="store_true", help="use the bundled survey tables")
    p.add_argument("--data", metavar="CSV", help="load patterns from a CSV file")
    p.add_argument("--threshold", type=float, help="surrogate success threshold on raw "
                   f"factor means (default {SURROGATE_THRESHOLD})")


def _add_train_params(p, *flags: tuple[str, str, str]) -> None:
    """``flags``, --momentum and --no-adaptive, each with its TrainParams field's default."""
    for flag, field, text in (*flags, ("--momentum", "momentum", "momentum")):
        default = getattr(TrainParams, field)
        p.add_argument(flag, dest=field, type=type(default), default=default,
                       help=f"{text} (default %(default)s)")
    p.add_argument("--no-adaptive", dest="adaptive", action="store_false",
                   help="disable the adaptive learning rate")


def _add_train(p) -> None:
    _add_source(p)
    p.add_argument("--seed", type=int, default=NetworkConfig.seed,
                   help="deterministic seed (default %(default)s)")
    p.add_argument("--hidden", default="4/logsig", help="comma-separated hidden layers, "
                   "e.g. '4/logsig' or 'none' (default %(default)s)")
    p.add_argument("--output-layer", default=OUTPUT_LAYER.label,
                   help="output layer spec (default %(default)s)")
    _add_train_params(p, ("--epochs", "max_epochs", "epoch budget"),
                      ("--lr", "learning_rate", "initial learning rate"),
                      ("--goal", "error_goal", "error goal"),
                      ("--lr-increase", "lr_increase", "rate factor after an improving epoch"),
                      ("--lr-decrease", "lr_decrease", "rate factor after a rejected epoch"),
                      ("--max-error-ratio", "max_error_ratio", "MSE ratio that rejects an epoch"))
    p.add_argument("--split", action="store_true",
                   help="apply the seeded 70/30 split to --data and train on the 70%%")
    p.add_argument("-o", "--model-out", metavar="PATH", help="write the trained model as JSON")


def _add_eval(p) -> None:
    _add_source(p)
    p.add_argument("model", help="model JSON path")
    p.add_argument("--split", choices=("train", "test"), help="which bundled split (default test)")
    p.add_argument("--paper-validation", action="store_true",
                   help="continue training on the evaluation data and print the "
                        "'error=... no.of epoches=...' trajectory")


def _add_sweep(p) -> None:
    _add_source(p)
    p.add_argument("--seeds", metavar="SPEC", default=str(NetworkConfig.seed),
                   help="seed list, e.g. '1..10' or '3,5,8' (default %(default)s)")
    _add_train_params(p)
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")


def _add_predict(p) -> None:
    p.add_argument("model", help="model JSON path")
    p.add_argument("values", nargs="?",
                   help="three comma-separated raw aggregates, e.g. '3.5,2.0,4.0'")
    p.add_argument("--questionnaire", metavar="CSV", help="score a factor_id,score questionnaire")


def _add_score(p) -> None:
    p.add_argument("questionnaire", help="CSV with header factor_id,score")


# Per command, its help line and the function that adds its arguments.
COMMANDS = {
    "train": ("train a diagnostic model", _add_train),
    "eval": ("evaluate a saved model", _add_eval),
    "sweep": ("run the canonical 15-row architecture grid", _add_sweep),
    "predict": ("diagnose one respondent", _add_predict),
    "score": ("aggregate a questionnaire to (x1, x2, x3)", _add_score),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """``command``'s parser, or with no command the top-level one, listing the
    commands.  Each is built once per process and shared: callers must not modify it."""
    if command is not None:
        # No prefix matching: sweep would otherwise read --seed as --seeds.
        parser = argparse.ArgumentParser(prog=f"hrdiag {command}", allow_abbrev=False)
        parser.add_argument("--quiet", action="store_true", help="suppress non-error output")
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(prog="hrdiag", description=(
        "Train, sweep and apply the HR success/failure diagnostic network."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No command, an unknown one, -h or --: the top-level parser prints help
    # or exits 2, so only a named command gets past parse_args.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        # Looked up by name at each call, so a wrapped cmd_* is the one called.
        with redirect_stdout(io.StringIO()) if args.quiet else nullcontext():
            return globals()[f"cmd_{command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
