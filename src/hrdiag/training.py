"""Full-batch gradient-descent training with momentum and adaptive learning rate.

One epoch applies a single candidate update computed from the gradient over
the whole batch, an (X, T) pair of arrays (see ``as_batch_arrays``):

    delta = momentum * velocity - learning_rate * gradient

The candidate is then re-scored on the same batch.  In adaptive mode a
candidate whose MSE exceeds ``max_error_ratio`` times the previous epoch's
MSE is rejected outright: the network keeps its parameters, the momentum
velocity is reset to zero and the learning rate shrinks by ``lr_decrease``.
An accepted candidate that strictly improves the MSE grows the learning
rate by ``lr_increase``.  The first epoch has no previous MSE, so the
rejection test is skipped and the learning rate left unchanged.

This is the adaptive-learning-rate rule of Vogl et al. 1988 ("Accelerating
the convergence of the back-propagation method", Biol. Cybern. 59) in its
traingdx form: error ratio 1.04, rate x0.7 on rejection, x1.05 on
improvement.

A non-finite candidate MSE (numerical divergence) always takes the
rejection path, whether or not adaptive mode is on, so divergent steps can
never poison the parameters.  A :class:`Trajectory` builds every numpy call
of its epochs once, when the run starts, and each epoch runs them; a long
run on a long batch forks a worker for half of its row work, with the same
bytes as a serial run.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import math
import mmap
import os
import threading
import time
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from itertools import count
from typing import NamedTuple

import numpy as np

from .activations import run_calls
from .data import check_finite_number, check_integer
from .network import (
    _LONG_ROWS,
    Gradients,
    Network,
    NetworkConfig,
    as_batch_arrays,
    backprop_gradients,  # noqa: F401 - looked up here by the benchmark's tracer
    zero_gradients,  # noqa: F401 - looked up here by the benchmark's tracer
    _score_batch,
    _Workspace,
)


@dataclass(frozen=True)
class TrainParams:
    """Hyperparameters of the training loop.

    ``learning_rate`` is the initial step size; in adaptive mode it moves
    within [lr_decrease, lr_increase] multiplicative steps as described in
    the module docstring.  ``error_goal`` stops training early once an
    accepted epoch reaches it.
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    error_goal: float = 0.01
    max_epochs: int = 1000
    lr_increase: float = 1.05
    lr_decrease: float = 0.7
    max_error_ratio: float = 1.04
    adaptive: bool = True

    def __post_init__(self):
        fields = self.__dict__  # frozen, so each checked number goes in as a float here
        for name in ("learning_rate", "momentum", "error_goal", "lr_increase",
                     "lr_decrease", "max_error_ratio"):
            check_finite_number(name, fields[name])
            fields[name] = float(fields[name])
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.error_goal <= 0:
            raise ValueError("error_goal must be > 0")
        check_integer("max_epochs", self.max_epochs, 0)
        if not self.lr_decrease < 1 < self.lr_increase:
            raise ValueError("need lr_decrease < 1 < lr_increase")
        if self.lr_decrease <= 0:
            raise ValueError("lr_decrease must be > 0")
        if self.max_error_ratio <= 1:
            raise ValueError("max_error_ratio must be > 1")
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be true or false, got {self.adaptive!r}")


class StoppingReason(Enum):
    GOAL_REACHED = "goal_reached"
    EPOCH_BUDGET_EXHAUSTED = "epoch_budget_exhausted"


class EpochRecord(NamedTuple):
    """One trace row: the MSE reported for the epoch, the learning rate the
    epoch's update attempt used, and whether the update was accepted.

    Rejected epochs repeat the previous accepted MSE, so the trace always
    reflects the actual network state.
    """

    epoch: int
    mse: float
    learning_rate: float
    accepted: bool


@dataclass(frozen=True)
class TrainingTrace:
    records: tuple[EpochRecord, ...]
    stopping_reason: StoppingReason

    @property
    def final_mse(self) -> float | None:
        return self.records[-1].mse if self.records else None

    def error_lines(self) -> list[str]:
        """Trace formatted as 'error=<mse> no.of epoches=<epoch>' lines."""
        return [f"error={r.mse:.6f} no.of epoches={r.epoch}" for r in self.records]


class EpochStep(NamedTuple):
    net: Network
    velocity: Gradients
    learning_rate: float
    mse: float
    accepted: bool


def evaluate(net: Network, batch) -> float:
    """MSE of the network's outputs against the batch targets. No updates.

    A saturated net is scored as in training, warnings off: overflow shows up
    as a non-finite or saturated MSE, not as a numpy warning.
    """
    return _score_batch(net, batch)[1]


def _layer_views(flat: np.ndarray, config: NetworkConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat parameter vector, laid
    out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    at = 0
    for fan_in, spec in zip(config.fan_ins(), config.layers):
        size = spec.neurons * fan_in
        weights.append(flat[at:at + size].reshape(spec.neurons, fan_in))
        biases.append(flat[at + size:at + size + spec.neurons])
        at += size + spec.neurons
    return weights, biases


def _flat(weights, biases) -> np.ndarray:
    """Per-layer arrays as one fresh flat vector in the layout above."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


# A seed walk's share of the usable CPUs, set while it runs.
_cpu_budget = contextvars.ContextVar("cpu_budget", default=None)


def usable_cpus() -> int:
    """How many busy processes this one may run: its CPUs, or a seed walk's share
    of them; 1 off Linux (no ``os.sched_getaffinity``) or while other threads
    run, since a forked child could inherit a lock that one of them holds."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return _cpu_budget.get() or len(os.sched_getaffinity(0))


def fork(child) -> int:
    """The pid of a forked process that runs ``child()`` and exits, and that the
    kernel kills when this process ends (``PR_SET_PDEATHSIG``), even by SIGKILL.
    It runs on the usable CPUs but this process's current one: a scheduler may
    keep a fresh child on its parent's."""
    parent = os.getpid()
    with open("/proc/self/stat") as stat:
        here = int(stat.read().rsplit(")", 1)[1].split()[36])
    cpus = os.sched_getaffinity(0) - {here}
    if (pid := os.fork()) == 0:
        try:
            ctypes.CDLL(None).prctl(1, ctypes.c_ulong(9))  # PR_SET_PDEATHSIG, SIGKILL
            with contextlib.suppress(OSError):  # an empty or unknown set keeps the CPUs
                os.sched_setaffinity(0, cpus)
            if os.getppid() == parent:  # else the parent ended before prctl
                child()
        finally:
            os._exit(0)
    return pid


def reap(pids) -> None:
    for pid in pids:
        os.kill(pid, 9)  # SIGKILL
        os.waitpid(pid, 0)


def _shared(shape, dtype=float) -> np.ndarray:
    """A zero-filled array in an anonymous shared mmap: both sides of a fork write it."""
    return np.ndarray(shape, dtype, mmap.mmap(-1, max(1, math.prod(shape) * np.dtype(dtype).itemsize)))


# A run of _SPLIT_EPOCHS epochs or more on _SPLIT_ROWS rows or more forks a worker for half its
# row work when it has 2 usable CPUs, on x86-64 (the hand-offs rely on its store order).  µs per
# epoch of 4/logsig + 1/tansig, serial / split, in 200-epoch train calls (medians of 7, 1 BLAS
# thread); the split's set-up, first epoch and close cost ~7 ms more, ~70 epochs' gain at 8,192:
#   rows    2,000       5,000       8,192       10,000      20,000
#   µs      118 / 142   220 / 192   352 / 252   432 / 315   865 / 538
_SPLIT_ROWS, _SPLIT_EPOCHS = 8192, 100
_PATIENCE = 20e-3  # seconds a join waits for the worker, past the time of its own share
_IDLE = 1e-3  # seconds an idle worker spins before it polls, at this interval


class _Worker:
    """A forked process that makes its share of each parallel stage of a split
    run, between :meth:`post` and :meth:`join` in this process's plan.  Both
    spin on counters in shared memory; an idle worker then polls them."""

    def __init__(self, run):
        self.stages, self.run, self.pid, self.posted = [], run, 0, 0.0
        self.state = _shared((3,), np.int64)  # stages posted, stages done, the stage posted

    def calls(self, shares) -> list:
        self.stages.append(shares[1])  # the worker's; shares[0] is this process's
        return [(self.post, (len(self.stages) - 1,)), *shares[0], (self.join, (len(self.stages) - 1,))]

    def start(self) -> None:
        self.pid = fork(self._serve)

    def post(self, stage: int) -> None:
        self.state[2] = stage
        self.state[0] += 1
        self.posted = time.perf_counter()

    def join(self, stage: int) -> None:
        """Wait for the worker's share as long as this process's took, and ``_PATIENCE``
        more: a later worker has died or lost its CPU, so it is stopped and its shares
        made here from then on (a stage rerun from its first call gives the same bytes)."""
        limit = 2 * time.perf_counter() - self.posted + _PATIENCE
        while self.pid and self.state[1] != self.state[0]:
            if time.perf_counter() > limit:
                self.close()
        if not self.pid:
            run_calls(self.stages[stage])

    def _serve(self) -> None:
        state = self.state
        for posted in count(1):
            idle = time.perf_counter() + _IDLE
            while state[0] < posted:
                if time.perf_counter() > idle:
                    time.sleep(_IDLE)
            self.run(self.stages[state[2]])
            state[1] = posted

    def close(self) -> None:
        """Stop the worker; its shares are then made here."""
        reap([self.pid] if self.pid else [])
        self.pid = 0


class Trajectory:
    """One deterministic training run, advanced an epoch at a time.

    Iterating yields each epoch's :class:`EpochRecord` until an accepted
    MSE reaches the error goal or the epoch budget runs out;
    ``stopping_reason`` then says which.  :meth:`network` snapshots the
    network as of the last epoch run, so a caller can keep the state at
    any epoch without rerunning the prefix.

    The batch is validated once, and every array an epoch touches is
    allocated here, once per run: O(rows x layer widths) floats in all,
    two flat parameter vectors (with per-layer views) and one velocity
    among them.  In phase p, vector p is current; the update scales the
    velocity and subtracts the scaled gradient from it in place, and
    writes the candidate into vector 1-p.  An accepted candidate flips the
    phase and keeps the velocity as its step; a rejected one zeroes it.
    Each phase's numpy calls are built here too, as two plans: backward
    pass (every layer's delta, then every gradient), update, check and
    re-scoring of the candidate (the epoch's one forward pass), and the
    same without the backward pass, for the epoch after a rejected one,
    whose network, and so its gradient, is unchanged.

    A long run on a long batch (see ``_SPLIT_ROWS``) allocates them in shared
    memory and forks a worker, which :meth:`close` stops.  Each process makes
    the deltas and forward pass of half the rows, split on a ``_LONG_ROWS``
    multiple, and half the gradients; this one alone the rest.  Every row's
    arithmetic and every sum is the serial run's, and so are the bytes.
    """

    def __init__(self, net: Network, batch, params: TrainParams):
        self._config = config = net.config
        self.params = params
        self.learning_rate = params.learning_rate
        self.previous_mse: float | None = None
        self.epoch = 0
        self.stopping_reason = StoppingReason.EPOCH_BUDGET_EXHAUSTED

        X, T = as_batch_arrays(batch, net)
        rows = len(X)
        split = (rows >= _SPLIT_ROWS and params.max_epochs >= _SPLIT_EPOCHS
                 and os.uname().machine == "x86_64" and usable_cpus() > 1)
        empty = _shared if split else np.empty
        self._work = work = _Workspace(config, X, empty)
        self._worker = worker = _Worker(work.run) if split else None
        stage = worker.calls if split else (lambda shares: shares[0])  # a call list per range
        bounds = (0, rows // 2 // _LONG_ROWS * _LONG_ROWS, rows) if split else (0, rows)
        ranges = [(work.rows(a, b), T[a:b]) for a, b in zip(bounds, bounds[1:])]
        p = _flat(net.weights, net.biases)
        flats = [empty(p.shape), empty(p.shape)]
        flats[0][:] = p
        self._views = views = [_layer_views(flat, config) for flat in flats]
        self._v = v = np.zeros_like(p)
        g, scaled, zeros = empty(p.shape), np.empty_like(p), np.zeros_like(p)
        gradients = work.gradient_calls(*_layer_views(g, config))
        # 0-d float64 operands and output, which ufuncs take without converting.
        momentum, self._lr, self._flag = np.array(params.momentum), np.empty(()), np.empty(())
        self._plans = []  # per phase, indexed by _gradient_current: with and without backward
        for cur, cand, (weights, _), cand_views in zip(flats, flats[::-1], views, views[::-1]):
            candidate = [(np.multiply, (v, momentum, v)), (np.multiply, (g, self._lr, scaled)),
                         (np.subtract, (v, scaled, v)), (np.add, (cur, v, cand)),
                         # An infinite weight feeding a saturating unit can still give a finite
                         # MSE, so the parameters themselves must be checked (see step).
                         (np.dot, (cand, zeros, self._flag)),
                         *work.transpose_calls(cand_views[0]),
                         *stage([view.score_calls(*cand_views, t) for view, t in ranges]),
                         work.sum_call]
            backward = (stage([view.delta_calls(weights) for view, _ in ranges])
                        + stage([gradients[i::len(ranges)] for i in range(len(ranges))]))
            self._plans.append((backward + candidate, candidate))
        if split:
            worker.start()
            weakref.finalize(self, worker.close)
        # The start network's score, which the first backward pass reads.
        work.score(work.score_calls(net.weights, net.biases, T))
        self._phase = 0
        # Whenever this is False the workspace's stack and residual hold the
        # current state's activations.  A rejected epoch leaves the state,
        # and so its gradient, unchanged: it sets this, and the next epoch
        # skips the backward pass.
        self._gradient_current = False
        self._snapshot: Network | None = net

    def close(self) -> None:
        """Stop the run's worker, if any; later epochs make its shares here."""
        if self._worker:
            self._worker.close()

    def step(self) -> EpochRecord:
        """Run one full-batch update attempt, ignoring goal and budget."""
        params, lr, previous = self.params, self.learning_rate, self.previous_mse
        self._lr[()] = lr
        plan = self._plans[self._phase][self._gradient_current]
        # score runs the plan with warnings off: the checks below catch a divergent
        # candidate, so overflow warnings carry no information.  The flag, a sum of
        # x * 0.0, is +-0.0 for finite parameters and leaves every bit of an
        # MSE >= +0.0; else it is NaN, and the candidate rejected.
        cand_mse = self._work.score(plan) + float(self._flag)

        worse_than_allowed = (
            params.adaptive and previous is not None
            and cand_mse > params.max_error_ratio * previous
        )
        self.epoch += 1
        if not math.isfinite(cand_mse) or worse_than_allowed:
            mse = previous if previous is not None else math.inf
            accepted = False
            self._v.fill(0.0)
            self.learning_rate = params.lr_decrease * lr
        else:
            mse = cand_mse
            accepted = True
            self._phase ^= 1
            self._snapshot = None
            if params.adaptive and previous is not None and cand_mse < previous:
                self.learning_rate = params.lr_increase * lr
        self._gradient_current = not accepted
        self.previous_mse = mse
        return EpochRecord(self.epoch, mse, lr, accepted)

    def __iter__(self) -> "Trajectory":
        return self

    def __next__(self) -> EpochRecord:
        if (self.stopping_reason is StoppingReason.GOAL_REACHED
                or self.epoch >= self.params.max_epochs):
            raise StopIteration
        record = self.step()
        if record.accepted and record.mse <= self.params.error_goal:
            self.stopping_reason = StoppingReason.GOAL_REACHED
        return record

    def network(self) -> Network:
        """The network as of the last epoch run (the start network before
        any epoch); unchanged parameters give back the same object."""
        if self._snapshot is None:
            weights, biases = self._views[self._phase]
            self._snapshot = Network(self._config, [W.copy() for W in weights],
                                     [b.copy() for b in biases])
        return self._snapshot


def train_epoch(
    net: Network,
    velocity: Gradients,
    batch,
    params: TrainParams,
    learning_rate: float,
    previous_mse: float | None,
) -> EpochStep:
    """Run one full-batch update attempt; see the module docstring for the rule.

    ``previous_mse`` is the MSE reported for the previous epoch, or None on
    the first epoch (no rejection test, learning rate left unchanged).
    Returns the possibly-updated network, the new velocity, the learning
    rate for the next epoch, the reported MSE and the acceptance flag.
    """
    if previous_mse is not None:
        _check_mse("previous_mse", previous_mse)
    velocity.check_congruent(net)
    # One epoch, too few to fork for.
    run = Trajectory(net, batch, replace(params, learning_rate=learning_rate, max_epochs=1))
    run.previous_mse = previous_mse
    run._v[:] = _flat(velocity.weights, velocity.biases)
    record = run.step()
    return EpochStep(run.network(), Gradients(*_layer_views(run._v.copy(), net.config)),
                     run.learning_rate, record.mse, record.accepted)


def train(net: Network, batch, params: TrainParams,
          on_epoch=None) -> tuple[Network, TrainingTrace]:
    """Iterate epochs until an accepted MSE reaches the error goal or the
    epoch budget runs out.  Fully deterministic given (net, batch, params).

    ``on_epoch(record, trajectory)``, when given, is called after every
    epoch; ``trajectory.network()`` then snapshots the network as of that
    epoch.
    """
    run = Trajectory(net, batch, params)
    records = []
    try:
        for record in run:
            records.append(record)
            if on_epoch is not None:
                on_epoch(record, run)
    finally:
        run.close()
    return run.network(), TrainingTrace(tuple(records), run.stopping_reason)


def accuracy_from_mse(mse: float) -> float:
    """Accuracy percentage defined as 100 - MSE, floored at zero.

    This is a linear remapping of the error, not a classification rate; it
    is kept because the diagnostic reports express quality this way.
    """
    _check_mse("mse", mse)
    return max(0.0, 100.0 - mse)


def _check_mse(name: str, value) -> None:
    """Refuse an MSE that is not a number >= 0, naming the field; +inf
    passes, since a first-epoch rejection reports it."""
    if value != math.inf:
        check_finite_number(name, value)
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
