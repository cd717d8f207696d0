"""Benchmark for hrdiag: the sweep, train-large and diagnose workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 3 --seconds 35 --trace 0

Each run is one process with one client in a closed loop:

1. Set-up: a fresh interpreter imports ``hrdiag.cli``, then the
   workload's one-time program preparation runs (training the model, for
   ``diagnose``).  It is repeated ``SETUP_REPEATS`` times in all, the
   later repeats spread over step 3; ``setup_s`` is the median.
2. One untimed warm-up operation on the default seed's inputs, whose
   output digest must equal the one pinned in ``golden.json``.
3. Operations back to back for ``--seconds``; every output is checked
   and must agree bit for bit with the first output for that input.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s``, ``wall_s`` (median wall time of one operation),
``work_per_s`` (work units of one operation over the median time spent
inside the call that does the work: cells per second for sweep,
row-epochs per second inside ``train`` for train-large, diagnoses per
second for diagnose) and ``peak_rss_mb``.  Raw medians, tail latency
and failure counts are printed above it.

With ``--trace 0``, every time the benchmark reports is scaled to the
machine's nominal speed, except ``raw_wall_quantiles_s`` and
``predict_cold_p50_s``.  The shared 2-vCPU machine this benchmark was
built on switches between speeds up to 1.7x apart, for seconds to
minutes at a time, so raw times of runs a few minutes apart differ by
more than any change worth measuring.  The benchmark therefore times a
fixed reference kernel before and after every stretch of about
``REF_EVERY_S`` of operations, and multiplies each time in the stretch
by the kernel's nominal time over the mean of the two.  Each workload
has kernels that share its bottleneck, because a slow spell does not
slow all kinds of work alike: ``dispatch_kernel`` (tiny numpy products
and dict updates, interpreter-bound like the sweep's small epochs and
``predict``'s parsing) for sweep and diagnose; for train-large, whose
CSV ingest is interpreter-bound and whose epochs are array arithmetic,
the mean slowdown of ``dispatch_kernel`` and ``array_kernel``
(products and transfer functions over a 20,000 x 4 array).  Neither
touches hrdiag.  A kernel's nominal time is its time when that machine
runs fast, so scaled times are close to raw ones on a quiet machine.
A change to hrdiag moves scaled times just as it moves raw ones, while
a change of machine speed largely cancels out.

With ``--trace 1`` the loop alternates untraced and traced operations;
the last line reports per-layer metrics (per traced operation, raw
times; ``trace.overhead_frac`` compares scaled medians), and the spans
are written to ``bench_out/spans-<workload>.npz``.

BLAS is pinned to one thread: the largest product here is 20,000 x 4,
too small to gain from threads, and one thread keeps results and times
independent of the machine's core count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
# How much operation time may pass between two timings of the
# reference kernel.
REF_EVERY_S = 0.5

# Which end-to-end metric each per-layer metric should move.
LAYER_MAP = (
    (("training.train_epoch.self_s", "training.evaluate.self_s",
      "network.backprop_gradients.calls", "network.backprop_gradients.s",
      "network.as_batch_arrays.calls", "network.as_batch_arrays.s",
      "network.Network.calls", "network.Network.s", "training.epochs",
      "training.epoch_us", "training.accept_ratio"),
     "sweep work_per_s (cells/s) strongly, train-large wall_s weakly"),
    (("sweep.run_sweep.s", "sweep.cells", "sweep.epochs", "sweep.render_table.s",
      "sweep.render_csv.s"),
     "sweep wall_s and work_per_s only; no change on train-large or diagnose"),
    (("activations.apply.calls", "activations.apply.s", "activations.deriv_from_output.calls",
      "activations.deriv_from_output.s", "network.flops_per_epoch", "network.bytes_per_epoch",
      "network.gflops"),
     "train-large work_per_s (row-epochs/s)"),
    (("data.load_csv.s", "data.load_csv.rows_per_s", "data.assign_surrogate_targets.s",
      "data.normalize.s", "data.as_training_batch.s"),
     "train-large wall_s and peak_rss_mb"),
    (("data.load_questionnaire_csv.calls", "data.load_questionnaire_csv.s",
      "data.aggregate_questionnaire.s", "model_io.load_model.calls", "model_io.load_model.s",
      "model_io.diagnose.calls", "model_io.diagnose.s", "network.forward.calls",
      "network.forward.s", "cli.build_parser.calls", "cli.build_parser.s", "cli.main.self_s"),
     "diagnose wall_s and work_per_s (diagnoses/s)"),
    (("cli.import_s", "cli.import_numpy_s"),
     "setup_s on every workload, and diagnose predict_cold_p50_s"),
    (("model_io.save_model.s", "data.load_embedded.s"), "none (bookkeeping check)"),
    (("cli.self_s", "data.self_s", "network.self_s", "activations.self_s",
      "training.self_s", "sweep.self_s", "model_io.self_s"),
     "the workload's wall_s, by layer"),
    (("trace.overhead_frac",), "none (traced wall_s / untraced wall_s - 1)"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "train-large", "diagnose"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def fresh_import(env: dict[str, str], importtime: bool = False) -> tuple[float, str]:
    """Wall time of a new interpreter that imports ``hrdiag.cli``."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import hrdiag.cli"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"importing hrdiag.cli failed: {proc.stderr.strip()}")
    return seconds, proc.stderr


def import_times(stderr: str) -> tuple[float, float]:
    """(hrdiag.cli, numpy) cumulative import seconds from ``-X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            cumulative[(len(m.group(2)), m.group(3))] = int(m.group(1)) / 1e6
    top = sum(v for (depth, name), v in cumulative.items()
              if depth == 1 and name.split(".")[0] == "hrdiag")
    numpy = max(v for (_, name), v in cumulative.items() if name == "numpy")
    return top, numpy


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | str:
    """Thread count reported by the OpenBLAS bundled with numpy."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


@functools.cache
def _kernel_arrays(rows: int) -> tuple:
    import numpy as np

    return (np.linspace(-2.0, 2.0, rows * 4).reshape(rows, 4),
            np.linspace(-1.0, 1.0, 16).reshape(4, 4))


def dispatch_kernel(steps: int = 4000) -> float:
    """Seconds for many tiny numpy products and dict updates."""
    import numpy as np

    x, w = _kernel_arrays(40)
    table: dict[int, float] = {}
    acc = 0.0
    start = time.perf_counter()
    for i in range(steps):
        y = np.tanh(x @ w + 0.5)
        acc += float(np.mean((y - 1.0) * (1.0 - y * y)))
        for j in range(40):
            table[(i + j) & 63] = acc * j
    return time.perf_counter() - start


def array_kernel(steps: int = 60) -> float:
    """Seconds for products and transfer functions over 20,000 x 4 arrays."""
    import numpy as np

    x, w = _kernel_arrays(20_000)
    start = time.perf_counter()
    for _ in range(steps):
        y = np.tanh(x @ w + 0.1)
        float(np.mean(((y - 0.5) * (1.0 - y * y)) ** 2))
    return time.perf_counter() - start


# Each workload's reference kernels, with each kernel's nominal time:
# its time when the machine the benchmark was built on runs fast.
REFERENCE = {
    "sweep": ((dispatch_kernel, 0.065),),
    "train-large": ((dispatch_kernel, 0.065), (array_kernel, 0.06)),
    "diagnose": ((dispatch_kernel, 0.065),),
}


class Speed:
    """Times reference kernels between stretches of work and gives each
    stretch its factor to nominal speed."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.name = " + ".join(kernel.__name__ for kernel, _ in kernels)
        self.slowdown()  # warm-up
        self._last = self.slowdown()
        self.factors: list[float] = []

    def slowdown(self) -> float:
        """Mean over the kernels of measured over nominal time."""
        return statistics.fmean(kernel() / nominal_s for kernel, nominal_s in self.kernels)

    def factor(self) -> float:
        """Factor for the work done since the previous call."""
        now = self.slowdown()
        factor = 2 / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor


class Run:
    """Counts operations and failures; a failure is an exception or a
    wrong output, and each is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - count the failure and keep measuring
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def setup_once(workload, env: dict[str, str]) -> float:
    """One set-up: a fresh interpreter importing ``hrdiag.cli``, then the
    workload's one-time program preparation in this process."""
    import_s, _ = fresh_import(env)
    start = time.perf_counter()
    workload.prep()
    return import_s + time.perf_counter() - start


def check_golden(workload) -> None:
    pinned = json.loads((BENCH / "golden.json").read_text(encoding="utf-8")).get(workload.name)
    digest = workload.golden()
    if digest != pinned:
        raise AssertionError(f"default-seed digest {digest} != pinned {pinned}")


class Samples:
    """Times of one kind of operation, scaled to nominal speed, plus the
    raw wall times.  Flat arrays keep memory, and so ``peak_rss_mb``,
    nearly independent of how many operations a run gets through."""

    def __init__(self):
        self.wall = array("d")
        self.inner = array("d")
        self.raw_wall = array("d")
        self.work = 0.0

    def add(self, op, factor: float) -> None:
        self.wall.append(op.wall * factor)
        self.inner.append(op.inner * factor)
        self.raw_wall.append(op.wall)
        self.work = op.work

    def __len__(self) -> int:
        return len(self.wall)


def timed_loop(workload, run: Run, seconds: float, env, speed: Speed,
               setup_times: list[float], tracer=None) -> tuple[Samples, Samples]:
    """Operations until ``seconds`` have passed.  With a tracer, odd
    operations are traced.  Without one, the remaining set-ups are spread
    evenly over the loop, so ``setup_s`` and the operations sample the
    same stretch of the machine's speed.  Returns the untraced and the
    traced operations."""
    keys = workload.keys()
    plain, traced = Samples(), Samples()
    pending: list[tuple[object, bool]] = []

    def flush():
        factor = speed.factor()
        for op, was_traced in pending:
            (traced if was_traced else plain).add(op, factor)
        pending.clear()

    start = time.perf_counter()
    deadline = start + seconds
    setups_due = SETUP_REPEATS - len(setup_times) if tracer is None else 0
    i = 0
    while True:
        if setups_due and time.perf_counter() >= start + seconds * (1 - setups_due / SETUP_REPEATS):
            setups_due -= 1
            if pending:
                flush()
            setup_s = run.attempt("set-up", setup_once, workload, env)
            factor = speed.factor()
            if setup_s is not None:
                setup_times.append(setup_s * factor)
        key = keys[i % len(keys)]
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.install(len(traced) + sum(t for _, t in pending))
        try:
            op = run.attempt(f"{workload.name} {key}", workload.op, key)
        finally:
            if trace_this:
                tracer.uninstall()
        if op is not None:
            pending.append((op, trace_this))
        i += 1
        done = time.perf_counter() >= deadline and (tracer is None or i >= 2)
        if pending and (done or sum(op.wall for op, _ in pending) >= REF_EVERY_S):
            flush()
        if done:
            return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantiles(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    return {f"p{p}": ordered[int(p / 100 * (len(ordered) - 1))] for p in (0, 25, 50, 75, 100)}


def end_to_end(workload, ops: Samples, speed: Speed, setup_times: list[float],
               run: Run, env) -> dict:
    rss = peak_rss_mb()
    walls = ops.wall
    median_rate = ops.work / statistics.median(ops.inner)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (median_rate, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print("wall_quantiles_s " + json.dumps(quantiles(walls)) + " (at nominal speed)")
    print("raw_wall_quantiles_s " + json.dumps(quantiles(ops.raw_wall)))
    print(f"speed_factor {json.dumps(quantiles(speed.factors))} over {len(speed.factors)} "
          f"timings of {speed.name} (nominal / measured)")
    if workload.name == "sweep":
        print(f"sweep_cells_per_s {median_rate!r} cells/s (median operation)")
    elif workload.name == "train-large":
        print(f"row_epochs_per_s {median_rate!r} row-epochs/s (median time inside train)")
    else:
        p99 = min(len(walls) - 1, int(0.99 * len(walls)))
        print(f"diagnose_p50_ms {statistics.median(walls) * 1e3!r} ms over {len(walls)} samples")
        print(f"diagnose_p99_ms {sorted(walls)[p99] * 1e3!r} ms "
              f"({len(walls) - 1 - p99} samples beyond it)")
        print(f"diagnoses_per_s {len(walls) / sum(walls)!r} 1/s (all operations)")
        cold = run.attempt("cold predict", workload.cold, env, ROOT)
        if cold:
            print(f"predict_cold_p50_s {statistics.median(cold)!r} s over {len(cold)} runs")
    print(f"ops {len(ops)} timed; {run.failed} of {run.attempted} operations failed")
    print(f"failed_frac {run.failed / run.attempted!r}")
    return metrics


def per_layer(workload, plain: Samples, traced: Samples, tracer, env) -> dict:
    summary = tracer.summary(len(traced))
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.dump(spans_path)
    print(f"spans {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")

    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        top, np_s = import_times(fresh_import(env, importtime=True)[1])
        cli_s.append(top)
        numpy_s.append(np_s)
    summary["cli.import_s"] = statistics.median(cli_s)
    summary["cli.import_numpy_s"] = statistics.median(numpy_s)
    summary["trace.overhead_frac"] = (
        statistics.median(traced.wall) / statistics.median(plain.wall) - 1
    )
    epochs = summary.get("training.epochs", 0.0)
    if epochs:
        train_s = summary["training.train.s"]
        summary["training.epoch_us"] = train_s / epochs * 1e6
        summary["training.accept_ratio"] = summary["training.accepted"] / epochs
        summary["network.flops_per_epoch"] = summary["network.flops"] / epochs
        summary["network.bytes_per_epoch"] = summary["network.bytes"] / epochs
        summary["network.gflops"] = summary["network.flops"] / train_s / 1e9
    if "sweep.run_sweep.calls" in summary:
        summary["sweep.cells"] = summary["training.train.calls"]
        summary["sweep.epochs"] = epochs
    if "data.load_csv.s" in summary:
        summary["data.load_csv.rows_per_s"] = workload.ROWS / summary["data.load_csv.s"]

    print(f"per traced operation, over {len(traced)} traced and {len(plain)} untraced ops:")
    for names, moves in LAYER_MAP:
        for name in names:
            value = summary.get(name)
            shown = "not exercised" if value is None else repr(value)
            computed = " (computed from shapes)" if name.endswith("_per_epoch") else ""
            print(f"  {name} = {shown}{computed}  -> moves {moves}")
    # The JSON line carries the per-layer metrics BENCHMARK.json lists; each
    # is measured on every workload.  A span that no longer runs reads 0.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (summary.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hrdiag" / "cli.py").is_file():
        print(f"error: no hrdiag sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = WORKLOADS[args.workload](workdir, args.seed)
    tracer = Tracer() if args.trace else None
    run = Run()
    try:
        print("env " + json.dumps(environment()))
        speed = Speed(REFERENCE[args.workload])
        setup_s = run.attempt("set-up", setup_once, workload, env)
        setup_times = [] if setup_s is None else [setup_s * speed.factor()]
        run.attempt("warm-up and default-seed digest", check_golden, workload)
        speed.factor()  # the warm-up is untimed; the first stretch starts here
        plain, traced = timed_loop(workload, run, args.seconds, env, speed, setup_times, tracer)
        if not plain or not setup_times or (tracer is not None and not traced):
            print("error: no operation or set-up succeeded", file=sys.stderr)
            return 1
        if tracer is None:
            metrics = end_to_end(workload, plain, speed, setup_times, run, env)
        else:
            metrics = per_layer(workload, plain, traced, tracer, env)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
