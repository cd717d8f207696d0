"""Architecture and hyperparameter grid harness.

Each grid row names a hidden-layer stack trained against the shared
single-neuron output layer; rows are trained once per seed and reported
with per-seed final training MSE plus mean/min statistics, because a
single unseeded run is not reproducible.  Test MSE is reported alongside
for honesty even though the grid ranks rows by training MSE.

Every row trains with the error goal and learning rate of the sweep's
one :class:`TrainParams`, so rows that share a hidden stack form a
family: per seed, each is a prefix of one deterministic trajectory.  The
sweep trains each family once per seed, up to its largest budget, and
takes every row's result from that trajectory as it passes the row's
budget.  The results are bit-identical to training each row separately.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import NamedTuple

from .activations import Activation
from .data import Dataset, as_training_batch, check_integer
from .network import LayerSpec, NetworkConfig, init_network
from .training import StoppingReason, TrainParams, accuracy_from_mse, evaluate, train


# The output layer every grid row's hidden stack feeds.
OUTPUT_LAYER = LayerSpec(1, Activation.TANSIG)


@dataclass(frozen=True)
class GridRow:
    """One grid cell: hidden layers (possibly none) plus the epoch budget."""

    hidden_layers: tuple[LayerSpec, ...]
    epochs: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        check_integer("epochs", self.epochs, 0)


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple[GridRow, ...]
    seeds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.grid:
            raise ValueError("empty sweep grid")
        if not self.seeds:
            raise ValueError("no seeds given")
        for seed in self.seeds:
            check_integer("seed", seed, 0)


# The canonical 15-row grid: hidden stacks crossed with epoch budgets.  An
# empty stack means the network is just the 1/tansig output layer.
_CANONICAL_FAMILIES: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...] = (
    ((), (35, 40, 45, 50, 80, 400, 1000)),
    (("2/logsig",), (35, 100, 200, 500, 1000)),
    (("3/logsig",), (35, 1000)),
    (("4/logsig",), (1000,)),
)


def canonical_grid(seeds: tuple[int, ...] = (NetworkConfig.seed,)) -> SweepConfig:
    """The standard 15-row grid over 1/tansig .. 4/logsig+1/tansig networks."""
    return SweepConfig([GridRow(tuple(map(LayerSpec.parse, specs)), epochs)
                        for specs, budgets in _CANONICAL_FAMILIES for epochs in budgets], seeds)


@dataclass(frozen=True)
class SweepRow:
    """Results of one grid row across all seeds.

    Per-seed entries are None where that seed's training failed; the
    matching error message sits in ``errors``.
    """

    label: str
    epochs: int
    error_goal: float
    learning_rate: float
    seeds: tuple[int, ...]
    train_mse: tuple[float | None, ...]
    test_mse: tuple[float | None, ...]
    stopping_reasons: tuple[str | None, ...]
    errors: tuple[str | None, ...]

    @property
    def failed(self) -> bool:
        return all(m is None for m in self.train_mse)

    @property
    def mean_mse(self) -> float | None:
        ok = [m for m in self.train_mse if m is not None]
        return sum(ok) / len(ok) if ok else None

    @property
    def min_mse(self) -> float | None:
        ok = [m for m in self.train_mse if m is not None]
        return min(ok) if ok else None

    @property
    def mean_test_mse(self) -> float | None:
        ok = [m for m in self.test_mse if m is not None]
        return sum(ok) / len(ok) if ok else None

    @property
    def goal_reached_count(self) -> int:
        return sum(1 for r in self.stopping_reasons if r == StoppingReason.GOAL_REACHED.value)


class _Outcome(NamedTuple):
    """One seed's result for one grid row."""

    train_mse: float | None
    test_mse: float | None
    stopping_reason: str | None
    error: str | None


def _walk_family(layers, seed, budgets, params, train_batch, test_batch) -> dict[int, _Outcome]:
    """Train one seed of one family up to ``params.max_epochs``, settling
    each budget as the trajectory reaches it.

    A budget the run stops short of (the goal was reached first) gets the
    final result, as a separate run of that budget would.  If anything
    raises, every budget not settled by then fails with its message.
    """
    settled: dict[int, _Outcome] = {}

    def settle(budget, net, mse, reason):
        test_mse = evaluate(net, test_batch) if test_batch is not None else None
        settled[budget] = _Outcome(mse, test_mse, reason.value, None)

    def at_epoch(record, trajectory):
        if record.epoch in budgets:
            settle(record.epoch, trajectory.network(), record.mse, trajectory.stopping_reason)

    try:
        net = init_network(NetworkConfig(3, layers, seed=seed))
        if 0 in budgets:
            settle(0, net, evaluate(net, train_batch), StoppingReason.EPOCH_BUDGET_EXHAUSTED)
        trained, trace = train(net, train_batch, params, on_epoch=at_epoch)
        for budget in budgets - settled.keys():
            settle(budget, trained, trace.final_mse, trace.stopping_reason)
    except Exception as exc:  # noqa: BLE001 - row failures must not kill the sweep
        for budget in budgets - settled.keys():
            settled[budget] = _Outcome(None, None, None, str(exc))
    return settled


def run_sweep(config: SweepConfig, data: Dataset, params_base: TrainParams) -> list[SweepRow]:
    """Train every grid row for every seed on the dataset's training split,
    with ``params_base``'s error goal and learning rate.

    Rows come back in grid order; a failing seed marks its entry failed
    without aborting the sweep.  Deterministic given (config, data, seeds).
    A failure part-way along a family's trajectory fails that seed's
    entries in every row of the family whose budget had not been reached;
    rows with smaller budgets keep their results.
    """
    train_batch = as_training_batch(data.training)
    test_batch = as_training_batch(data.testing) if len(data.testing[0]) else None

    budgets_of: dict[tuple[LayerSpec, ...], set[int]] = {}
    for cell in config.grid:
        budgets_of.setdefault(cell.hidden_layers, set()).add(cell.epochs)
    outcomes: dict[tuple, _Outcome] = {}
    for hidden, budgets in budgets_of.items():
        params = replace(params_base, max_epochs=max(budgets))
        for seed in config.seeds:
            walked = _walk_family(hidden + (OUTPUT_LAYER,), seed, budgets, params,
                                  train_batch, test_batch)
            for budget, outcome in walked.items():
                outcomes[hidden, budget, seed] = outcome

    rows: list[SweepRow] = []
    for cell in config.grid:
        label = NetworkConfig(3, cell.hidden_layers + (OUTPUT_LAYER,)).label
        mses, test_mses, reasons, errors = zip(
            *(outcomes[cell.hidden_layers, cell.epochs, seed] for seed in config.seeds))
        rows.append(SweepRow(label, cell.epochs, params_base.error_goal, params_base.learning_rate,
                             config.seeds, mses, test_mses, reasons, errors))
    return rows


def _fmt(value: float | None, spec: str) -> str:
    return format(value, spec) if value is not None else "-"


def render_table(rows: list[SweepRow]) -> str:
    """Fixed-width text table: one header line plus one line per row."""
    if not rows:
        raise ValueError("no sweep rows to render")
    headers = ("configuration", "epochs", "goal", "lr", "mse mean", "mse min",
               "test mse", "accuracy %", "goal hit")
    cells = []
    for r in rows:
        if r.failed:
            cells.append((r.label, str(r.epochs), f"{r.error_goal:g}", f"{r.learning_rate:g}",
                          "failed", "-", "-", "-", "-"))
            continue
        acc = accuracy_from_mse(r.mean_mse)
        cells.append((
            r.label,
            str(r.epochs),
            f"{r.error_goal:g}",
            f"{r.learning_rate:g}",
            _fmt(r.mean_mse, ".6f"),
            _fmt(r.min_mse, ".6f"),
            _fmt(r.mean_test_mse, ".6f"),
            f"{acc:.2f}",
            f"{r.goal_reached_count}/{len(r.seeds)}",
        ))
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        padded = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def render_csv(rows: list[SweepRow]) -> str:
    """CSV rendering with round-trip-exact numbers and per-seed detail."""
    if not rows:
        raise ValueError("no sweep rows to render")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "configuration", "epochs", "error_goal", "learning_rate",
        "mse_mean", "mse_min", "test_mse_mean", "accuracy",
        "seeds", "mse_per_seed", "test_mse_per_seed", "stopping_reasons", "errors",
    ])
    for r in rows:
        acc = accuracy_from_mse(r.mean_mse) if r.mean_mse is not None else None
        writer.writerow([
            r.label,
            r.epochs,
            repr(r.error_goal),
            repr(r.learning_rate),
            repr(r.mean_mse) if r.mean_mse is not None else "",
            repr(r.min_mse) if r.min_mse is not None else "",
            repr(r.mean_test_mse) if r.mean_test_mse is not None else "",
            repr(acc) if acc is not None else "",
            ";".join(str(s) for s in r.seeds),
            ";".join(repr(m) if m is not None else "" for m in r.train_mse),
            ";".join(repr(m) if m is not None else "" for m in r.test_mse),
            ";".join(s if s is not None else "" for s in r.stopping_reasons),
            ";".join(e if e is not None else "" for e in r.errors),
        ])
    return buf.getvalue()
