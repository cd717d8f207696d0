"""Command-line surface: train, eval, sweep, predict and score.

All commands are deterministic given their flags (the seed is a flag,
default 42).  Reports that rest on surrogate targets say so on a
dedicated caveat line, since no published outcome labels exist for the
bundled survey data.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .data import (
    RAW_MAX,
    RAW_MIN,
    Dataset,
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
from .sweep import canonical_grid, render_csv, render_table, run_sweep
from .tables import FACTOR_GROUPS
from .training import TrainParams, accuracy_from_mse, evaluate, train

SURROGATE_CAVEAT = (
    "note: targets are surrogate labels (threshold rule on raw factor means), "
    "not observed outcomes"
)


def _say(args, text: str = "") -> None:
    if not args.quiet:
        print(text)


def _parse_hidden(text: str) -> tuple[LayerSpec, ...]:
    text = text.strip()
    if text.lower() in ("", "none"):
        return ()
    return tuple(LayerSpec.parse(part) for part in text.split(","))


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Seed list syntax: '7', '1,2,5' or an inclusive range '1..10'."""
    lo, dots, hi = text.partition("..")
    try:
        seeds = tuple(range(int(lo), int(hi) + 1)) if dots else tuple(map(int, text.split(",")))
    except ValueError:
        seeds = ()
    if not seeds:
        raise ValueError(f"--seeds must be N, N,M,... or A..B with A <= B, got {text!r}")
    return seeds


def _require_one_source(args) -> None:
    if args.embedded and args.data is not None:
        raise ValueError("pass either --embedded or --data, not both")
    if not args.embedded and args.data is None:
        raise ValueError("no data source: pass --embedded or --data <csv>")
    if args.data == "":
        raise ValueError("--data needs a CSV path, got ''")


def _read_csv(args):
    """The respondent set in ``--data``, with a note on sub-1 inputs."""
    X, T = load_csv(args.data)
    sub_one = int(np.count_nonzero(X < 1.0))
    if sub_one:
        _say(args, f"note: {args.data}: {sub_one} input value(s) below the 1..5 questionnaire "
                   f"scale (accepted; declared range is [{RAW_MIN:g}, {RAW_MAX:g}])")
    return X, T


def _load_training_data(args) -> tuple[Dataset, bool]:
    """Training-ready dataset (normalized, targeted) plus a surrogate flag."""
    _require_one_source(args)
    if args.embedded:
        return prepared_embedded(args.threshold), True
    X, T = _read_csv(args)
    used_surrogate = T is None
    if used_surrogate:
        X, T = assign_surrogate_targets((X, T), args.threshold)
    if getattr(args, "split", False):
        training, testing = split_70_30((X, T), args.seed)
    else:
        training, testing = (X, T), (X[:0], T[:0])
    training_n, nmap = normalize(training)
    testing_n, _ = normalize(testing)
    return Dataset(training_n, testing_n, nmap), used_surrogate


def cmd_train(args) -> int:
    dataset, used_surrogate = _load_training_data(args)
    batch = as_training_batch(dataset.training)

    layers = _parse_hidden(args.hidden) + (LayerSpec.parse(args.output_layer),)
    config = NetworkConfig(3, layers, seed=args.seed)
    params = TrainParams(
        learning_rate=args.lr,
        momentum=args.momentum,
        error_goal=args.goal,
        max_epochs=args.epochs,
        lr_increase=args.lr_increase,
        lr_decrease=args.lr_decrease,
        max_error_ratio=args.max_error_ratio,
        adaptive=not args.no_adaptive,
    )
    net = init_network(config)
    trained, trace = train(net, batch, params)
    final_mse = evaluate(trained, batch)
    if not np.isfinite(final_mse):
        raise ValueError("training diverged to a non-finite MSE")

    _say(args, f"architecture: {config.label} (seed {args.seed})")
    _say(args, f"training patterns: {batch[0].shape[0]}")
    if args.epochs == 0:
        _say(args, "zero-epoch run: model keeps its initial random weights")
    _say(args, f"epochs run: {len(trace.records)} ({trace.stopping_reason.value})")
    _say(args, f"final training MSE: {final_mse:.6f}")
    _say(args, f"accuracy (100 - MSE): {accuracy_from_mse(final_mse):.6f}")
    if used_surrogate:
        _say(args, SURROGATE_CAVEAT)

    if args.model_out:
        rule = SurrogateRule(args.threshold) if used_surrogate else None
        model = model_from_training(trained, dataset.normalization, params, final_mse, rule)
        save_model(model, args.model_out)
        _say(args, f"model written to {args.model_out}")
    return 0


def _load_eval_set(args, model) -> tuple[tuple, bool]:
    """Raw-coordinate, targeted respondents for evaluation plus a surrogate flag."""
    _require_one_source(args)
    if args.embedded:
        raw = load_embedded()
        selected = raw.training if args.split == "train" else raw.testing
        threshold = model.surrogate_rule.threshold if model.surrogate_rule else args.threshold
        return assign_surrogate_targets(selected, threshold), True
    X, T = _read_csv(args)
    if T is None:
        raise ValueError(f"{args.data}: targets required for evaluation")
    return (X, T), False


def cmd_eval(args) -> int:
    model = load_model(args.model)
    net = model.network
    (X, T), used_surrogate = _load_eval_set(args, model)
    if model.normalization is not None:
        X = model.normalization.apply(X)
    batch = (X, T)

    _, acts, _, mse = _score_batch(net, batch)
    outputs = acts[-1][:, 0]
    labels = T[:, 0] >= 0
    preds = outputs >= 0
    true_success = int(np.sum(preds & labels))
    true_failure = int(np.sum(~preds & ~labels))
    false_success = int(np.sum(preds & ~labels))
    false_failure = int(np.sum(~preds & labels))

    _say(args, f"evaluation patterns: {X.shape[0]} ({args.split if args.embedded else args.data})")
    _say(args, f"test MSE: {mse:.6f}")
    _say(args, f"accuracy (100 - MSE): {accuracy_from_mse(mse):.6f}")
    _say(args, f"confusion vs {'surrogate' if used_surrogate else 'provided'} labels: "
               f"true success {true_success}, true failure {true_failure}, "
               f"false success {false_success}, false failure {false_failure}")
    if used_surrogate:
        _say(args, SURROGATE_CAVEAT)

    if args.paper_validation:
        _, trace = train(net, batch, model.train_params)
        _say(args, "validation trajectory (training continued on this data):")
        for line in trace.error_lines():
            _say(args, line)
    return 0


def cmd_sweep(args) -> int:
    if not args.embedded and args.data is None:
        args.embedded = True  # the canonical sweep runs on the bundled data
    dataset, used_surrogate = _load_training_data(args)
    seeds = _parse_seeds(args.seeds) if args.seeds else (args.seed,)
    config = canonical_grid(seeds)
    params_base = TrainParams(momentum=args.momentum, adaptive=not args.no_adaptive)
    rows = run_sweep(config, dataset, params_base)
    _say(args, render_table(rows))
    if used_surrogate:
        _say(args, SURROGATE_CAVEAT)
    if args.csv:
        Path(args.csv).write_text(render_csv(rows), encoding="utf-8")
        _say(args, f"csv written to {args.csv}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if (args.values is None) == (args.questionnaire is None):
        raise ValueError("pass either three comma-separated values or --questionnaire <csv>")
    if args.questionnaire is not None:
        values = aggregate_questionnaire(load_questionnaire_csv(args.questionnaire))
        _say(args, f"aggregates: x1={values[0]:.3f} x2={values[1]:.3f} x3={values[2]:.3f}")
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
    _say(args, f"label: {d.label.value}")
    _say(args, f"raw output: {d.raw_output:.6f}")
    _say(args, f"model training MSE: {d.train_mse:.6f}")
    _say(args, f"accuracy (100 - MSE): {d.accuracy:.6f}")
    if d.surrogate:
        _say(args, SURROGATE_CAVEAT)
    return 0


def cmd_score(args) -> int:
    resp = load_questionnaire_csv(args.questionnaire)
    x1, x2, x3 = aggregate_questionnaire(resp)
    _say(args, f"x1={x1:.3f} x2={x2:.3f} x3={x3:.3f}")
    _say(args)
    width = max(len(f) for factors in FACTOR_GROUPS.values() for f in factors)
    for group, factors in FACTOR_GROUPS.items():
        _say(args, f"{group} factors (mean {resp.group_mean(group):.3f}):")
        for factor in factors:
            _say(args, f"  {factor.ljust(width)}  {resp.scores[factor]:g}")
    return 0


def _add_common(p) -> None:
    p.add_argument("--seed", type=int, default=42, help="deterministic seed (default 42)")
    p.add_argument("--quiet", action="store_true", help="suppress non-error output")


def _add_source(p) -> None:
    _add_common(p)
    p.add_argument("--embedded", action="store_true", help="use the bundled survey tables")
    p.add_argument("--data", metavar="CSV", help="load patterns from a CSV file")
    p.add_argument("--threshold", type=float, default=2.5,
                   help="surrogate success threshold on raw factor means (default 2.5)")


def _add_train(p) -> None:
    _add_source(p)
    p.add_argument("--hidden", default="4/logsig",
                   help="comma-separated hidden layers, e.g. '4/logsig' or 'none' (default 4/logsig)")
    p.add_argument("--output-layer", default="1/tansig", help="output layer spec (default 1/tansig)")
    p.add_argument("--epochs", type=int, default=1000, help="epoch budget (default 1000)")
    p.add_argument("--lr", type=float, default=0.01, help="initial learning rate (default 0.01)")
    p.add_argument("--goal", type=float, default=0.01, help="error goal (default 0.01)")
    p.add_argument("--momentum", type=float, default=0.9, help="momentum (default 0.9)")
    p.add_argument("--no-adaptive", action="store_true", help="disable the adaptive learning rate")
    p.add_argument("--lr-increase", type=float, default=1.05)
    p.add_argument("--lr-decrease", type=float, default=0.7)
    p.add_argument("--max-error-ratio", type=float, default=1.04)
    p.add_argument("--split", action="store_true",
                   help="apply the seeded 70/30 split to --data and train on the 70%%")
    p.add_argument("-o", "--model-out", metavar="PATH", help="write the trained model as JSON")


def _add_eval(p) -> None:
    _add_source(p)
    p.add_argument("model", help="model JSON path")
    p.add_argument("--split", choices=("train", "test"), default="test",
                   help="which bundled split to evaluate (default test)")
    p.add_argument("--paper-validation", action="store_true",
                   help="continue training on the evaluation data and print the "
                        "'error=... no.of epoches=...' trajectory")


def _add_sweep(p) -> None:
    _add_source(p)
    p.add_argument("--seeds", metavar="SPEC",
                   help="seed list, e.g. '1..10' or '3,5,8' (default: the --seed value)")
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--no-adaptive", action="store_true")
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")


def _add_predict(p) -> None:
    _add_common(p)
    p.add_argument("model", help="model JSON path")
    p.add_argument("values", nargs="?",
                   help="three comma-separated raw aggregates, e.g. '3.5,2.0,4.0'")
    p.add_argument("--questionnaire", metavar="CSV", help="score a factor_id,score questionnaire")


def _add_score(p) -> None:
    _add_common(p)
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
    """``command``'s parser alone, or with no command the full parser.  Each
    is built once per process and shared: callers must not modify it."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"hrdiag {command}")
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(prog="hrdiag", description=(
        "Train, sweep and apply the HR success/failure diagnostic network."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add) in COMMANDS.items():
        add(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No command, an unknown one, -h or --: the full parser prints help or
    # exits 2, so only a named command gets past parse_args.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        # Looked up by name at each call, so a wrapped cmd_* is the one called.
        return globals()[f"cmd_{command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
