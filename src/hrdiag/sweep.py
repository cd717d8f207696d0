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
import os
import pickle
from dataclasses import dataclass, replace
from functools import partial

from .activations import Activation
from .data import Dataset, as_training_batch, check_integer
from .network import LayerSpec, NetworkConfig, check_layers, init_network
from .training import (StoppingReason, TrainParams, _cpu_budget, accuracy_from_mse, evaluate,
                       fork, reap, train, usable_cpus)


# The output layer every grid row's hidden stack feeds.
OUTPUT_LAYER = LayerSpec(1, Activation.TANSIG)


@dataclass(frozen=True)
class GridRow:
    """One grid cell: hidden layers (possibly none) plus the epoch budget."""

    hidden_layers: tuple[LayerSpec, ...]
    epochs: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", check_layers(self.hidden_layers))
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
        seen = set()
        for seed in self.seeds:
            check_integer("seed", seed, 0)
            if seed in seen:
                raise ValueError(f"seed {seed} is repeated")
            seen.add(seed)


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
    """Results of one grid row across all seeds.  ``test_mse`` entries are
    None when the dataset has no test rows."""

    label: str
    epochs: int
    error_goal: float
    learning_rate: float
    seeds: tuple[int, ...]
    train_mse: tuple[float, ...]
    test_mse: tuple[float | None, ...]
    stopping_reasons: tuple[str, ...]

    @property
    def mean_mse(self) -> float:
        return sum(self.train_mse) / len(self.train_mse)

    @property
    def min_mse(self) -> float:
        return min(self.train_mse)

    @property
    def mean_test_mse(self) -> float | None:
        return None if None in self.test_mse else sum(self.test_mse) / len(self.test_mse)

    @property
    def goal_reached_count(self) -> int:
        return sum(1 for r in self.stopping_reasons if r == StoppingReason.GOAL_REACHED.value)


def _walk_family(layers, seeds, budgets, params, train_batch, test_batch) -> dict[int, list]:
    """Train each seed of one family up to ``params.max_epochs``, settling
    each budget as the seed's trajectory reaches it.

    Returns, for each budget, one (train MSE, test MSE, stopping reason)
    triple per seed, in seed order.  A budget the run stops short of (the
    goal was reached first) gets the final result, as a separate run of that
    budget would.  Whatever the training raises propagates unchanged.
    """
    settled = {budget: [] for budget in budgets}

    def settle(budget, net, mse, reason):
        test_mse = evaluate(net, test_batch) if test_batch is not None else None
        settled[budget].append((mse, test_mse, reason.value))

    def at_epoch(record, trajectory):
        if record.epoch in budgets:
            settle(record.epoch, trajectory.network(), record.mse, trajectory.stopping_reason)

    for seed in seeds:
        net = init_network(NetworkConfig(3, layers, seed=seed))
        if 0 in budgets:
            settle(0, net, evaluate(net, train_batch), StoppingReason.EPOCH_BUDGET_EXHAUSTED)
        trained, trace = train(net, train_batch, params, on_epoch=at_epoch)
        for budget in budgets:
            if budget > len(trace.records):
                settle(budget, trained, trace.final_mse, trace.stopping_reason)
    return settled


def _walk_seeds(walk, seeds: tuple[int, ...]) -> list:
    """``walk`` of contiguous chunks of ``seeds``, in seed order, one per usable CPU
    (at most one per seed; see :func:`~hrdiag.training.usable_cpus`): the first here,
    each other one in a forked child that pipes back one pickle.  Each walk gets an
    equal share of the CPUs for the row workers of its runs.  If any worker fails,
    the walk reruns serially here."""
    n, cpus = len(seeds), usable_cpus()
    workers = min(cpus, n)
    chunks = [seeds[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
    budget = _cpu_budget.set(cpus // workers)
    pipes, pids = [], []  # each child's read end and pid
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as out:
                pids.append(fork(partial(_send, walk, chunk, out)))
        # A child that failed sent no complete pickle, and loads raises for it.
        return [walk(chunks[0])] + [pickle.loads(pipe.read()) for pipe in pipes]
    except Exception:
        if workers == 1:
            raise
    finally:
        _cpu_budget.reset(budget)
        for pipe in pipes:
            pipe.close()
        reap(pids)  # a child whose pipe was read to its end has completed
    return [walk(seeds)]  # a worker failed: this completes, or raises the serial exception


def _send(walk, chunk, out) -> None:
    """A sweep child's work: ``walk(chunk)``, pickled into ``out``."""
    with out:
        pickle.dump(walk(chunk), out, pickle.HIGHEST_PROTOCOL)


def run_sweep(config: SweepConfig, data: Dataset, params_base: TrainParams) -> list[SweepRow]:
    """Train every grid row for every seed on the dataset's training split,
    with every ``params_base`` field (learning rate, momentum, error goal,
    lr_increase, lr_decrease, max_error_ratio, adaptive) but ``max_epochs``,
    which each row's epoch budget replaces without a message.

    Rows come back in grid order, complete for every seed; an exception in
    any seed's training propagates unchanged and ends the sweep, the first
    in family-major, then seed order.  Deterministic given (config, data, seeds).
    """
    train_batch = as_training_batch(data.training)
    test_batch = as_training_batch(data.testing) if len(data.testing[0]) else None

    budgets_of: dict[tuple[LayerSpec, ...], set[int]] = {}
    for cell in config.grid:
        budgets_of.setdefault(cell.hidden_layers, set()).add(cell.epochs)

    def walk(seeds):
        return [_walk_family(hidden + (OUTPUT_LAYER,), seeds, budgets,
                             replace(params_base, max_epochs=max(budgets)),
                             train_batch, test_batch)
                for hidden, budgets in budgets_of.items()]

    walks = dict(zip(budgets_of, zip(*_walk_seeds(walk, config.seeds))))  # per family, per chunk
    return [SweepRow(NetworkConfig(3, cell.hidden_layers + (OUTPUT_LAYER,)).label, cell.epochs,
                     params_base.error_goal, params_base.learning_rate, config.seeds,
                     *zip(*(r for chunk in walks[cell.hidden_layers] for r in chunk[cell.epochs])))
            for cell in config.grid]


def render_table(rows: list[SweepRow]) -> str:
    """Fixed-width text table: one header line plus one line per row."""
    if not rows:
        raise ValueError("no sweep rows to render")
    headers = ("configuration", "epochs", "goal", "lr", "mse mean", "mse min",
               "test mse", "accuracy %", "goal hit")
    cells = [(
        r.label,
        str(r.epochs),
        f"{r.error_goal:g}",
        f"{r.learning_rate:g}",
        f"{r.mean_mse:.6f}",
        f"{r.min_mse:.6f}",
        f"{r.mean_test_mse:.6f}" if r.mean_test_mse is not None else "-",
        f"{accuracy_from_mse(r.mean_mse):.2f}",
        f"{r.goal_reached_count}/{len(r.seeds)}",
    ) for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        padded = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def render_csv(rows: list[SweepRow]) -> str:
    """CSV rendering with round-trip-exact numbers and per-seed detail.

    Test-MSE cells are empty when the dataset has no test rows.  The
    ``errors`` column, kept for the format's sake, is always empty per
    seed: a sweep either completes or raises.
    """
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
        writer.writerow([
            r.label,
            r.epochs,
            repr(r.error_goal),
            repr(r.learning_rate),
            repr(r.mean_mse),
            repr(r.min_mse),
            repr(r.mean_test_mse) if r.mean_test_mse is not None else "",
            repr(accuracy_from_mse(r.mean_mse)),
            ";".join(str(s) for s in r.seeds),
            ";".join(repr(m) for m in r.train_mse),
            ";".join(repr(m) if m is not None else "" for m in r.test_mse),
            ";".join(r.stopping_reasons),
            ";" * (len(r.seeds) - 1),
        ])
    return buf.getvalue()
