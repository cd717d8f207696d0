import contextlib
import csv
import io
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from hrdiag import (
    Activation,
    Dataset,
    GridRow,
    LayerSpec,
    NetworkConfig,
    SweepConfig,
    SweepRow,
    TrainParams,
    canonical_grid,
    evaluate,
    init_network,
    prepared_embedded,
    render_csv,
    render_table,
    run_sweep,
    train,
)
from hrdiag import sweep as sweep_mod
from hrdiag.data import as_training_batch

from helpers import raw_embedded_dataset

TANSIG = Activation.TANSIG
LOGSIG = Activation.LOGSIG
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def dataset():
    return prepared_embedded()


def usable_cpus(monkeypatch, cpus):
    """Make the sweep see ``cpus`` as this process's CPU set, and so fork
    one worker per CPU, at most one per seed."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def tiny_config(seeds=(1, 2, 3), epochs=30):
    grid = (GridRow((LayerSpec(2, LOGSIG),), epochs),)
    return SweepConfig(grid, tuple(seeds))


CANONICAL_FAMILIES = [(), (LayerSpec(2, LOGSIG),), (LayerSpec(3, LOGSIG),), (LayerSpec(4, LOGSIG),)]


def record_train_calls(monkeypatch) -> list:
    """The (hidden stack, seed) of each ``train`` call the sweep makes in this process."""
    calls = []
    real_train = sweep_mod.train

    def recording_train(net, batch, params, on_epoch=None):
        calls.append((net.config.layers[:-1], net.config.seed))
        return real_train(net, batch, params, on_epoch=on_epoch)

    monkeypatch.setattr(sweep_mod, "train", recording_train)
    return calls


class TestCanonicalGrid:
    def test_row_count(self):
        assert len(canonical_grid().grid) == 15

    def test_first_row(self):
        row = canonical_grid().grid[0]
        assert row.hidden_layers == ()
        assert row.epochs == 35

    def test_last_row(self):
        config = canonical_grid()
        row = config.grid[-1]
        assert row.hidden_layers == (LayerSpec(4, LOGSIG),)
        assert row.epochs == 1000
        assert sweep_mod.OUTPUT_LAYER == LayerSpec(1, TANSIG)

    def test_family_budgets(self):
        grid = canonical_grid().grid
        by_family = {}
        for row in grid:
            key = tuple(spec.label for spec in row.hidden_layers)
            by_family.setdefault(key, []).append(row.epochs)
        assert by_family[()] == [35, 40, 45, 50, 80, 400, 1000]
        assert by_family[("2/logsig",)] == [35, 100, 200, 500, 1000]
        assert by_family[("3/logsig",)] == [35, 1000]
        assert by_family[("4/logsig",)] == [1000]



class TestSweepConfig:
    def test_empty_grid_is_refused(self):
        with pytest.raises(ValueError, match="^empty sweep grid$"):
            SweepConfig((), (1,))

    def test_no_seeds_is_refused(self):
        with pytest.raises(ValueError, match="^no seeds given$"):
            SweepConfig(tiny_config().grid, ())

    def test_a_layer_that_is_not_a_layer_spec_is_refused(self):
        # Unchecked, the sweep trained every family before failing on the label.
        with pytest.raises(ValueError, match="^layer 0 must be a LayerSpec, got '2/logsig'$"):
            SweepConfig([GridRow(("2/logsig",), 5)], (1,))

    def test_a_repeated_seed_is_refused(self):
        # A repeated seed would count twice in every mean and goal-hit tally.
        with pytest.raises(ValueError, match="^seed 1 is repeated$"):
            SweepConfig(tiny_config().grid, (1, 2, 1))


class TestRunSweep:
    def test_rows_report_the_given_goal_and_rate(self, dataset):
        grid = (GridRow((), 5), GridRow((LayerSpec(2, LOGSIG),), 3))
        params = TrainParams(error_goal=0.2, learning_rate=0.03)
        rows = run_sweep(SweepConfig(grid, (1,)), dataset, params)
        assert [(r.error_goal, r.learning_rate) for r in rows] == [(0.2, 0.03)] * 2

    def test_row_shape(self, dataset):
        rows = run_sweep(tiny_config(), dataset, TrainParams())
        assert len(rows) == 1
        row = rows[0]
        assert row.label == "2/logsig + 1/tansig"
        layers = tiny_config().grid[0].hidden_layers + (sweep_mod.OUTPUT_LAYER,)
        assert row.label == NetworkConfig(3, layers).label
        assert len(row.train_mse) == 3
        assert all(m is not None and m >= 0 for m in row.train_mse)
        assert row.min_mse <= row.mean_mse

    def test_duplicate_rows_identical(self, dataset):
        grid = tiny_config().grid
        config = SweepConfig(grid + grid, (5,))
        rows = run_sweep(config, dataset, TrainParams())
        assert rows[0].train_mse == rows[1].train_mse
        assert rows[0].test_mse == rows[1].test_mse

    def test_deterministic(self, dataset):
        a = run_sweep(tiny_config(), dataset, TrainParams())
        b = run_sweep(tiny_config(), dataset, TrainParams())
        assert a == b

    def test_row_mse_matches_independent_evaluate(self, dataset):
        config = tiny_config(seeds=(7,), epochs=40)
        row = run_sweep(config, dataset, TrainParams())[0]
        # retrain the same cell by hand and score it independently
        params = TrainParams(learning_rate=0.01, error_goal=0.01, max_epochs=40)
        layers = config.grid[0].hidden_layers + (sweep_mod.OUTPUT_LAYER,)
        net = init_network(NetworkConfig(3, layers, seed=7))
        trained, _ = train(net, as_training_batch(dataset.training), params)
        assert abs(evaluate(trained, as_training_batch(dataset.training)) - row.train_mse[0]) < 1e-12

    @pytest.mark.parametrize("rows", [52, 256])
    def test_rows_and_csv_hold_python_floats(self, dataset, rows):
        # render_csv writes repr() of these, where a numpy scalar would read np.float64(...).
        X, T = dataset.training
        data = Dataset((np.resize(X, (rows, 3)), np.resize(T, (rows, 1))), dataset.testing)
        sweep_rows = run_sweep(tiny_config(seeds=(1, 2)), data, TrainParams())
        for row in sweep_rows:
            values = (*row.train_mse, *row.test_mse, row.mean_mse, row.min_mse,
                      row.mean_test_mse, row.error_goal, row.learning_rate)
            assert all(type(v) is float for v in values)
        assert "np.float64(" not in render_csv(sweep_rows)

    def test_an_integer_rate_and_goal_give_the_float_csv(self, dataset):
        # TrainParams stores its real-valued fields as floats, so equal
        # parameter sets give the same CSV bytes, and every record's rate
        # is a float, however the caller spelt the numbers.
        csvs = [render_csv(run_sweep(tiny_config(seeds=(1, 2)), dataset,
                                     TrainParams(learning_rate=rate, error_goal=goal))).encode()
                for rate, goal in ((1, 1), (1.0, 1.0))]
        assert csvs[0] == csvs[1]
        net = init_network(NetworkConfig(3, (LayerSpec(2, LOGSIG), LayerSpec(1, TANSIG))))
        _, trace = train(net, as_training_batch(dataset.training),
                         TrainParams(learning_rate=1, max_epochs=20))
        assert all(type(r.learning_rate) is float for r in trace.records)

    def test_fractional_budget_is_refused_not_reported(self, dataset):
        # Unchecked, the 2.5 row would report the 10-epoch row's result.
        with pytest.raises(ValueError, match="^epochs must be an integer, got 2.5$"):
            run_sweep(SweepConfig([GridRow((), 2.5), GridRow((), 10)], (1,)), dataset,
                      TrainParams())

    def test_a_failing_seed_fails_the_sweep_with_its_exception(self, dataset, monkeypatch):
        failure = ValueError("synthetic failure")
        real_train = sweep_mod.train

        def train_failing_for_seed_2_of_2_logsig(net, batch, params, on_epoch=None):
            if net.config.layers[0] == LayerSpec(2, LOGSIG) and net.config.seed == 2:
                raise failure
            return real_train(net, batch, params, on_epoch=on_epoch)

        monkeypatch.setattr(sweep_mod, "train", train_failing_for_seed_2_of_2_logsig)
        grid = (GridRow((), 5), GridRow((LayerSpec(2, LOGSIG),), 5), GridRow((), 10))
        with pytest.raises(ValueError) as caught:
            run_sweep(SweepConfig(grid, (1, 2)), dataset, TrainParams())
        assert caught.value is failure

    def test_trains_once_per_family_and_seed_family_major(self, dataset, monkeypatch):
        # bench/tracing.py counts the sweep's cells by the calls to this name.
        # Under --trace 1 it sees this process's calls alone: with more than
        # one usable CPU, only the first seed chunk's share.
        usable_cpus(monkeypatch, {0})
        calls = record_train_calls(monkeypatch)
        run_sweep(canonical_grid(seeds=(1, 2)), dataset, TrainParams())
        assert calls == [(hidden, seed) for hidden in CANONICAL_FAMILIES for seed in (1, 2)]

    def test_a_second_cpu_walks_the_second_seed_chunk_in_a_child(self, dataset, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        calls = record_train_calls(monkeypatch)
        run_sweep(canonical_grid(seeds=(1, 2)), dataset, TrainParams())
        assert calls == [(hidden, 1) for hidden in CANONICAL_FAMILIES]

    @pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
    def test_one_worker_and_three_give_the_same_csv_bytes(self, dataset, monkeypatch, raw):
        data = raw_embedded_dataset() if raw else dataset
        csvs = []
        for cpus in ({0}, {0, 1, 2}):
            usable_cpus(monkeypatch, cpus)
            csvs.append(render_csv(run_sweep(canonical_grid(seeds=(1, 2, 3, 4, 5)), data,
                                             TrainParams())).encode())
        assert csvs[0] == csvs[1]

    def test_failures_in_two_workers_raise_the_serial_first(self, dataset, monkeypatch):
        # Family () fails at seed 4, in the last child; family 2/logsig at
        # seed 1, in this process.  A serial run meets seed 4's first.
        usable_cpus(monkeypatch, {0, 1, 2, 3})
        failures = {(): ValueError("seed 4 of 1/tansig"),
                    (LayerSpec(2, LOGSIG),): ValueError("seed 1 of 2/logsig")}
        failing_seed = {(): 4, (LayerSpec(2, LOGSIG),): 1}
        real_train = sweep_mod.train

        def train_failing(net, batch, params, on_epoch=None):
            hidden = net.config.layers[:-1]
            if failing_seed[hidden] == net.config.seed:
                raise failures[hidden]
            return real_train(net, batch, params, on_epoch=on_epoch)

        monkeypatch.setattr(sweep_mod, "train", train_failing)
        grid = (GridRow((), 5), GridRow((LayerSpec(2, LOGSIG),), 5))
        with pytest.raises(ValueError) as caught:
            run_sweep(SweepConfig(grid, (1, 2, 3, 4)), dataset, TrainParams())
        assert caught.value is failures[()]

    @pytest.mark.parametrize("failing", [None, (2, ValueError), (1, KeyboardInterrupt)],
                             ids=["completes", "child-fails", "parent-interrupted"])
    def test_no_worker_outlives_the_sweep(self, dataset, monkeypatch, failing):
        usable_cpus(monkeypatch, {0, 1})
        real_train = sweep_mod.train

        def train_failing(net, batch, params, on_epoch=None):
            if failing is not None and net.config.seed == failing[0]:
                raise failing[1]("synthetic failure")
            return real_train(net, batch, params, on_epoch=on_epoch)

        monkeypatch.setattr(sweep_mod, "train", train_failing)
        with pytest.raises(failing[1]) if failing else contextlib.nullcontext():
            run_sweep(tiny_config(seeds=(1, 2)), dataset, TrainParams())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_kills_a_busy_worker_instead_of_waiting(self, dataset, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})

        def train_interrupted_or_stuck(net, batch, params, on_epoch=None):
            if net.config.seed == 1:
                raise KeyboardInterrupt
            time.sleep(60)  # seed 2, in the child: only a kill ends it in time

        monkeypatch.setattr(sweep_mod, "train", train_interrupted_or_stuck)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_config(seeds=(1, 2)), dataset, TrainParams())
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_a_worker_dies_with_a_parent_killed_by_a_signal(self, tmp_path):
        # The sweep forks seed 2's worker, which writes its pid to the file
        # argv names and sleeps; the test then kills the sweep's process.
        script = textwrap.dedent("""
            import os, sys, time
            from pathlib import Path
            os.sched_getaffinity = lambda pid: {0, 1}  # forks on one CPU too
            from hrdiag import GridRow, SweepConfig, TrainParams, prepared_embedded, run_sweep
            from hrdiag import sweep
            real_train = sweep.train

            def train(net, batch, params, on_epoch=None):
                if net.config.seed == 2:
                    Path(sys.argv[1] + ".tmp").write_text(str(os.getpid()))
                    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
                    time.sleep(60)
                return real_train(net, batch, params, on_epoch=on_epoch)

            sweep.train = train
            run_sweep(SweepConfig((GridRow((), 5),), (1, 2)), prepared_embedded(), TrainParams())
        """)

        def running(pid):  # a zombie has ended; only its reaper is missing
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        pid_file = tmp_path / "worker.pid"
        sweep_proc = subprocess.Popen([sys.executable, "-c", script, str(pid_file)],
                                      env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 10
            while not pid_file.exists():
                assert sweep_proc.poll() is None and time.monotonic() < deadline, "no worker"
                time.sleep(0.01)
            worker = int(pid_file.read_text())
            sweep_proc.kill()
            sweep_proc.wait()
            deadline = time.monotonic() + 10
            while running(worker):
                assert time.monotonic() < deadline, "the worker outlived its killed parent"
                time.sleep(0.01)
        finally:
            sweep_proc.kill()
            sweep_proc.wait()
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)

    def test_shared_trajectories_match_separate_runs(self, dataset):
        two_logsig = (LayerSpec(2, LOGSIG),)
        # The 2/logsig family reaches its goal near epoch 78 for these
        # seeds: before its largest budget, and on or after the others.
        grid = (
            GridRow(two_logsig, 200),
            GridRow(two_logsig, 0),
            GridRow((), 40),
            GridRow(two_logsig, 78),
            GridRow((), 10),
            GridRow(two_logsig, 30),
            GridRow(two_logsig, 78),
        )
        seeds = (1, 2, 3)
        params_base = TrainParams(error_goal=0.1)
        rows = run_sweep(SweepConfig(grid, seeds), dataset, params_base)

        train_batch = as_training_batch(dataset.training)
        test_batch = as_training_batch(dataset.testing)
        for cell, row in zip(grid, rows):
            params = TrainParams(error_goal=0.1, max_epochs=cell.epochs)
            mses, test_mses, reasons = [], [], []
            for seed in seeds:
                layers = cell.hidden_layers + (LayerSpec(1, TANSIG),)
                trained, trace = train(init_network(NetworkConfig(3, layers, seed=seed)),
                                       train_batch, params)
                mses.append(trace.final_mse if trace.records else evaluate(trained, train_batch))
                test_mses.append(evaluate(trained, test_batch))
                reasons.append(trace.stopping_reason.value)
            assert row.train_mse == tuple(mses)
            assert row.test_mse == tuple(test_mses)
            assert row.stopping_reasons == tuple(reasons)
        assert rows[0].goal_reached_count == len(seeds)
        assert 0 < rows[3].goal_reached_count < len(seeds)
        assert rows[5].goal_reached_count == 0

    def test_requires_targets(self):
        from hrdiag import load_embedded

        with pytest.raises(ValueError, match="no target"):
            run_sweep(tiny_config(), load_embedded(), TrainParams())


def fake_row(mse):
    return SweepRow(
        label="4/logsig + 1/tansig", epochs=1000, error_goal=0.01, learning_rate=0.01,
        seeds=(42,), train_mse=(mse,), test_mse=(mse,), stopping_reasons=("goal_reached",),
    )


# Two rows of a dataset with no test rows: the test-MSE cells are empty.
NO_TEST_ROWS = [
    SweepRow("1/tansig", 35, 0.01, 0.01, (1, 2, 3), (0.25, 0.5, 0.75), (None,) * 3,
             ("epoch_budget_exhausted",) * 3),
    SweepRow("4/logsig + 1/tansig", 1000, 0.05, 0.02, (1, 2, 3), (0.03125, 0.046875, 0.0625),
             (None,) * 3, ("goal_reached", "epoch_budget_exhausted", "goal_reached")),
]


class TestRendering:
    def test_table_without_a_test_split(self):
        assert render_table(NO_TEST_ROWS) == (
            "configuration        epochs  goal  lr    mse mean  mse min   test mse  accuracy %  goal hit\n"
            "1/tansig                 35  0.01  0.01  0.500000  0.250000         -       99.50       0/3\n"
            "4/logsig + 1/tansig    1000  0.05  0.02  0.046875  0.031250         -       99.95       2/3"
        )

    def test_csv_without_a_test_split(self):
        assert render_csv(NO_TEST_ROWS) == (
            "configuration,epochs,error_goal,learning_rate,mse_mean,mse_min,test_mse_mean,accuracy,"
            "seeds,mse_per_seed,test_mse_per_seed,stopping_reasons,errors\r\n"
            "1/tansig,35,0.01,0.01,0.5,0.25,,99.5,1;2;3,0.25;0.5;0.75,;;,"
            "epoch_budget_exhausted;epoch_budget_exhausted;epoch_budget_exhausted,;;\r\n"
            "4/logsig + 1/tansig,1000,0.05,0.02,0.046875,0.03125,,99.953125,1;2;3,"
            "0.03125;0.046875;0.0625,;;,goal_reached;epoch_budget_exhausted;goal_reached,;;\r\n"
        )

    def test_header_plus_one_line(self):
        text = render_table([fake_row(0.25)])
        assert len(text.splitlines()) == 2

    def test_reference_accuracy_two_decimals(self):
        text = render_table([fake_row(0.096841)])
        assert "0.096841" in text
        assert "99.90" in text

    def test_csv_round_trips_exact_values(self, dataset):
        rows = run_sweep(tiny_config(), dataset, TrainParams())
        parsed = list(csv.DictReader(io.StringIO(render_csv(rows))))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert float(rec["mse_mean"]) == row.mean_mse
            assert float(rec["mse_min"]) == row.min_mse
            assert float(rec["test_mse_mean"]) == row.mean_test_mse
            per_seed = [float(v) for v in rec["mse_per_seed"].split(";")]
            assert per_seed == list(row.train_mse)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table([])
        with pytest.raises(ValueError):
            render_csv([])
