"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every operation drives the real command line through ``hrdiag.cli.main``
with the program's stdout and stderr captured, and is then checked.
Inputs come from the workload seed alone; the program only sees the
generated files.  Each workload keeps the digest of the first output
for every input and fails any later operation that disagrees with it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import hrdiag.cli
from hrdiag.tables import ALL_FACTORS, FACTOR_GROUPS

# The seed whose outputs are pinned in golden.json.
DEFAULT_SEED = 0


class OpError(Exception):
    """An operation failed or produced a wrong output."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(workload.encode("utf-8"), "little")
    return np.random.default_rng([seed, tag])


def run_cli(argv: list[str]) -> str:
    """Run ``hrdiag <argv>`` in this process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hrdiag.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    if code != 0:
        raise OpError(f"hrdiag {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Capture:
    """Stands in for one function in ``hrdiag.cli``'s namespace and keeps
    its last return value and the time spent inside it."""

    def __init__(self, attr: str):
        self.attr = attr
        self.original = getattr(hrdiag.cli, attr)
        self.result = None
        self.seconds = 0.0
        setattr(hrdiag.cli, attr, self)

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        self.result = self.original(*args, **kwargs)
        self.seconds = time.perf_counter() - start
        return self.result

    def take(self):
        result, self.result = self.result, None
        if result is None:
            raise OpError(f"hrdiag.cli.{self.attr} was not called")
        return result


class Op(NamedTuple):
    """Timings of one operation: wall time of the command, time inside the
    call that does the work, and work units done."""

    wall: float
    inner: float
    work: float


class Workload:
    """One seeded input set.  ``keys`` are the inputs the timed loop cycles
    through; ``op`` runs one, checks it and returns its timings."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.digests: dict[object, str] = {}

    def prep(self) -> None:
        """The program's one-time preparation, timed as part of set-up."""

    def keys(self) -> list:
        raise NotImplementedError

    def op(self, key) -> Op:
        raise NotImplementedError

    def golden(self) -> str:
        """Digest of the outputs on the default seed's inputs."""
        raise NotImplementedError

    def _agree(self, key, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise OpError(f"{self.name} output for {key!r} changed: {digest} != {first}")

    def close(self) -> None:
        pass


# Epoch budgets of the canonical grid's 15 rows, in grid order.
CANONICAL_EPOCHS = (35, 40, 45, 50, 80, 400, 1000, 35, 100, 200, 500, 1000, 35, 1000, 1000)
STOPPING_REASONS = {"goal_reached", "epoch_budget_exhausted"}


class Sweep(Workload):
    """``hrdiag sweep --seeds S..S+9 --csv out.csv`` on the bundled data."""

    name = "sweep"
    SEEDS = 10

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.csv_path = workdir / "sweep.csv"

    def keys(self) -> list:
        return [10 * self.seed + 1]

    def _run(self, first: int) -> tuple[float, str]:
        seeds = list(range(first, first + self.SEEDS))
        start = time.perf_counter()
        stdout = run_cli(["sweep", "--seeds", f"{seeds[0]}..{seeds[-1]}",
                          "--csv", str(self.csv_path)])
        wall = time.perf_counter() - start
        text = self.csv_path.read_text(encoding="utf-8")
        self.csv_path.unlink()
        _check_sweep_csv(text, seeds)
        if len(stdout.splitlines()) < 1 + len(CANONICAL_EPOCHS):
            raise OpError("sweep printed no full table")
        return wall, _sha256(text)

    def op(self, key) -> Op:
        wall, digest = self._run(key)
        self._agree(key, digest)
        cells = len(CANONICAL_EPOCHS) * self.SEEDS
        return Op(wall, wall, cells)

    def golden(self) -> str:
        return self._run(10 * DEFAULT_SEED + 1)[1]


def _check_sweep_csv(text: str, seeds: list[int]) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["epochs"]) for r in rows] != list(CANONICAL_EPOCHS):
        raise OpError("sweep csv does not hold the 15 canonical rows")
    want_seeds = ";".join(str(s) for s in seeds)
    for r in rows:
        mses = [float(m) for m in r["mse_per_seed"].split(";")]
        if r["seeds"] != want_seeds or len(mses) != len(seeds):
            raise OpError(f"sweep row {r['configuration']}: wrong seeds {r['seeds']!r}")
        if not all(math.isfinite(m) and m >= 0 for m in mses):
            raise OpError(f"sweep row {r['configuration']}: bad MSE {r['mse_per_seed']!r}")
        if r["errors"].strip(";") or not set(r["stopping_reasons"].split(";")) <= STOPPING_REASONS:
            raise OpError(f"sweep row {r['configuration']}: failed seeds {r['errors']!r}")
        if float(r["mse_min"]) != min(mses) or float(r["mse_min"]) > float(r["mse_mean"]):
            raise OpError(f"sweep row {r['configuration']}: inconsistent min/mean")


class TrainLarge(Workload):
    """``hrdiag train --data big.csv -o model.json`` with the default net
    on a generated file of 20,000 untargeted respondents.  The goal is set
    below any reachable MSE, so every run uses the whole epoch budget."""

    name = "train-large"
    ROWS = 20_000
    EPOCHS = 200
    GOAL = "1e-9"

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.capture = Capture("train")
        self.data = workdir / "big.csv"
        self.model = workdir / "model.json"
        write_respondents(self.data, seed, self.ROWS)

    def keys(self) -> list:
        return [self.data]

    def _run(self, data: Path) -> tuple[float, float, str]:
        start = time.perf_counter()
        stdout = run_cli(["train", "--data", str(data), "--epochs", str(self.EPOCHS),
                          "--goal", self.GOAL, "-o", str(self.model)])
        wall = time.perf_counter() - start
        _, trace = self.capture.take()
        model = json.loads(self.model.read_text(encoding="utf-8"))
        self.model.unlink()
        if f"training patterns: {self.ROWS}" not in stdout:
            raise OpError("train did not report the generated row count")
        if len(trace.records) != self.EPOCHS or trace.stopping_reason.value != "epoch_budget_exhausted":
            raise OpError(f"train stopped after {len(trace.records)} of {self.EPOCHS} epochs")
        mse = model["final_train_mse"]
        if not (math.isfinite(mse) and mse == trace.records[-1].mse):
            raise OpError(f"model MSE {mse!r} disagrees with the trace's {trace.records[-1].mse!r}")
        pinned = {
            "weights": model["weights"],
            "biases": model["biases"],
            "final_train_mse": repr(mse),
            "trace": [[r.epoch, repr(r.mse), repr(r.learning_rate), r.accepted]
                      for r in trace.records],
        }
        return wall, self.capture.seconds, _sha256(json.dumps(pinned))

    def op(self, key) -> Op:
        wall, inner, digest = self._run(key)
        self._agree(key, digest)
        return Op(wall, inner, self.ROWS * self.EPOCHS)

    def golden(self) -> str:
        path = self.workdir / "big-default.csv"
        write_respondents(path, DEFAULT_SEED, self.ROWS)
        try:
            return self._run(path)[2]
        finally:
            path.unlink()

    def close(self) -> None:
        setattr(hrdiag.cli, "train", self.capture.original)


def write_respondents(path: Path, seed: int, rows: int) -> None:
    """Aggregate scores with one shared latent level per respondent, so the
    three group means correlate; values lie in [-1, 5], some below 1."""
    rng = _rng(seed, "train-large")
    level = rng.standard_normal(rows)
    means = 2.4 + 1.1 * level[:, None] + 0.7 * rng.standard_normal((rows, 3))
    means = np.clip(np.round(means, 3), -1.0, 5.0)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("strategic,tactical,operational\n")
        for s, t, o in means.tolist():
            fh.write(f"{s!r},{t!r},{o!r}\n")


class Diagnose(Workload):
    """``hrdiag predict m.json --questionnaire rI.csv`` over generated
    33-factor questionnaires, against a model trained in set-up with
    ``hrdiag train --embedded -o m.json``."""

    name = "diagnose"
    QUESTIONNAIRES = 64
    COLD = 5

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.capture = Capture("diagnose")
        self.model = workdir / "m.json"
        self.paths, self.means = write_questionnaires(workdir / "q", seed, self.QUESTIONNAIRES)
        self.expected: list[float] | None = None

    def prep(self) -> None:
        run_cli(["train", "--embedded", "-o", str(self.model)])

    def keys(self) -> list:
        return list(range(self.QUESTIONNAIRES))

    def _diagnose(self, path: Path) -> tuple[float, str, float]:
        start = time.perf_counter()
        stdout = run_cli(["predict", str(self.model), "--questionnaire", str(path)])
        wall = time.perf_counter() - start
        d = self.capture.take()
        if d.label.value != ("success" if d.raw_output >= 0 else "failure"):
            raise OpError(f"label {d.label.value} contradicts raw output {d.raw_output!r}")
        _check_predict_stdout(stdout, d.label.value, d.raw_output)
        return wall, d.label.value, d.raw_output

    def op(self, key) -> Op:
        if self.expected is None:
            self.expected = reference_outputs(self.model, self.means)
        wall, label, raw = self._diagnose(self.paths[key])
        if abs(raw - self.expected[key]) > 1e-12:
            raise OpError(f"raw output {raw!r} differs from the reference {self.expected[key]!r}")
        self._agree(key, f"{label},{raw!r}")
        return Op(wall, wall, 1)

    def golden(self) -> str:
        paths, _ = write_questionnaires(self.workdir / "q-default", DEFAULT_SEED, self.QUESTIONNAIRES)
        lines = []
        for path in paths:
            _, label, raw = self._diagnose(path)
            lines.append(f"{label},{raw!r}\n")
            path.unlink()
        paths[0].parent.rmdir()
        return _sha256("".join(lines))

    def cold(self, env: dict[str, str], cwd: Path) -> list[float]:
        """Wall times of fresh-interpreter ``predict`` runs, each checked
        against the in-process result for the same questionnaire."""
        times = []
        for key in range(self.COLD):
            argv = [sys.executable, "-m", "hrdiag.cli", "predict", str(self.model),
                    "--questionnaire", str(self.paths[key])]
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                                  timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise OpError(f"cold predict exited {proc.returncode}: {proc.stderr.strip()}")
            label, raw = self.digests[key].split(",")
            _check_predict_stdout(proc.stdout, label, float(raw))
        return times

    def close(self) -> None:
        setattr(hrdiag.cli, "diagnose", self.capture.original)


def _check_predict_stdout(stdout: str, label: str, raw: float) -> None:
    if f"label: {label}\n" not in stdout or f"raw output: {raw:.6f}\n" not in stdout:
        raise OpError(f"predict printed {stdout!r}, expected label {label} and output {raw:.6f}")


def write_questionnaires(directory: Path, seed: int, count: int) -> tuple[list[Path], list[list[float]]]:
    """Likert answers 1..5 around a per-respondent level with a per-group
    offset, rows in shuffled order.  Returns the files and each file's
    three group means, computed here independently of the program."""
    rng = _rng(seed, "diagnose")
    directory.mkdir()
    paths, means = [], []
    for i in range(count):
        level = rng.uniform(1.2, 4.8)
        scores: dict[str, int] = {}
        group_means = []
        for factors in FACTOR_GROUPS.values():
            offset = rng.normal(0.0, 0.5)
            raw = np.clip(np.rint(level + offset + rng.normal(0.0, 0.8, len(factors))), 1, 5)
            scores.update(zip(factors, (int(v) for v in raw)))
            group_means.append(sum(int(v) for v in raw) / len(factors))
        order = rng.permutation(len(ALL_FACTORS))
        path = directory / f"r{i}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write("factor_id,score\n")
            for j in order:
                fh.write(f"{ALL_FACTORS[j]},{scores[ALL_FACTORS[j]]}\n")
        paths.append(path)
        means.append(group_means)
    return paths, means


def reference_outputs(model_path: Path, raw_inputs: list[list[float]]) -> list[float]:
    """The model's output for each input, recomputed from its JSON with
    plain numpy."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    norm = model["normalization"]
    transfer = {
        "tansig": np.tanh,
        "logsig": lambda x: 1.0 / (1.0 + np.exp(-x)),
        "purelin": lambda x: x,
    }
    a = (np.asarray(raw_inputs) - norm["offset"]) / norm["scale"]
    for W, b, layer in zip(model["weights"], model["biases"], model["config"]["layers"]):
        a = transfer[layer["activation"]](a @ np.asarray(W).T + np.asarray(b))
    return a[:, 0].tolist()


WORKLOADS = {w.name: w for w in (Sweep, TrainLarge, Diagnose)}
