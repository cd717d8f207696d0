"""Alternating pairs of benchmark runs between two git revisions.

Run from anywhere inside the repository:

    python tools/ab.py A B --workload sweep --pairs 10 --seconds 35 [--seed K]

Each revision is exported with ``git archive`` into a temporary directory,
and each run is that export's ``BENCHMARK.json`` command (``bench/run.py``)
with ``--trace 0``.  Pair i runs both sides on seed K + i - 1 (K defaults
to 0); A runs first in odd pairs and B first in even ones, so a drift in
the machine's speed does not favour one side.  Passing the same revision
as A and B (``python tools/ab.py HEAD HEAD ...``) is an A/A control: its
ratios and win counts are the noise floor a real comparison must beat.

Every run's last stdout line must be the benchmark's JSON record.  A run
that exits non-zero, prints ``"correct": false``, reports failed
operations or ends with a malformed line stops the comparison with an
error naming the run.

For each end-to-end metric of A's ``BENCHMARK.json`` the report gives
both medians, the ratio B/A, B's wins (pairs where B is strictly better
in the metric's ``better`` direction; ties count for neither side), each
side's quartiles, whether B stays within the metric's bound of A, and
whether B's gain is clear: at least ten pairs, B better in at least nine
of every ten, and better in the median by more than A's interquartile
spread.  The last line is the same report as one JSON object.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


class Refused(Exception):
    """A run whose output cannot be compared."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="base revision")
    parser.add_argument("b", metavar="B", help="revision compared with A")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def git(*argv: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *argv], cwd=cwd, capture_output=True, check=True).stdout


def export(rev: str, dest: Path, repo: Path) -> None:
    """Extract the tree of ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, cwd=repo))) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, command: list[str], workload: str, seconds: float, seed: int) -> str:
    """One benchmark run from the export ``tree``: its stdout, or Refused if it failed."""
    argv = [*command, "--workload", workload, "--seconds", repr(seconds),
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise Refused(f"exited {proc.returncode}: {tail[0]}")
    return proc.stdout


def parse_record(stdout: str, metrics: list[str]) -> dict[str, float]:
    """The named metrics of a run's last line, or Refused if that line
    is malformed or the run was not correct."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        correct, failed, values = record["correct"], record["failed"], record["metrics"]
        values = {name: values[name]["value"] for name in metrics}
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise Refused(f"malformed last line ({type(exc).__name__}: {exc})") from None
    if correct is not True:
        raise Refused('printed "correct": ' + json.dumps(correct))
    if failed != 0:
        raise Refused(f"reported {failed} failed operations")
    for name, value in values.items():
        if type(value) not in (int, float) or not math.isfinite(value):
            raise Refused(f"malformed last line (metric {name} is {value!r})")
    return values


def order(pair: int) -> tuple[str, str]:
    """The sides of 1-based pair ``pair`` in the order they run."""
    return ("A", "B") if pair % 2 else ("B", "A")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(spec: dict, a: list[float], b: list[float]) -> dict:
    """One end-to-end metric of BENCHMARK.json over paired runs a[i], b[i]."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    worse = sign * (median_a - median_b) / median_a
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    return {
        "name": spec["name"],
        "median_a": median_a,
        "median_b": median_b,
        "ratio": median_b / median_a,
        "wins": wins,
        "pairs": len(a),
        "quartiles_a": [q1_a, q3_a],
        "quartiles_b": list(quartiles(b)),
        "within_bound": worse <= spec["bound"],
        "clear_gain": (len(a) >= 10 and wins >= 0.9 * len(a)
                       and sign * (median_b - median_a) > q3_a - q1_a),
    }


def report_line(row: dict) -> str:
    return (f"{row['name']}: A {row['median_a']:.6g} B {row['median_b']:.6g} "
            f"ratio {row['ratio']:.4f} wins {row['wins']}/{row['pairs']} "
            f"A q {row['quartiles_a'][0]:.6g}-{row['quartiles_a'][1]:.6g} "
            f"B q {row['quartiles_b'][0]:.6g}-{row['quartiles_b'][1]:.6g} "
            f"bound {'holds' if row['within_bound'] else 'BROKEN'} "
            f"clear gain {'yes' if row['clear_gain'] else 'no'}")


def run_pairs(trees: dict[str, Path], spec: dict, args, bench=run_bench) -> list[dict]:
    """Alternate the two sides' runs; the comparison of each end-to-end metric."""
    names = [m["name"] for m in spec["end_to_end"]]
    values: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair - 1
        for side in order(pair):
            label = f"run {side} of pair {pair} (seed {seed})"
            try:
                record = parse_record(bench(trees[side], spec["command"], args.workload,
                                            args.seconds, seed), names)
            except Refused as exc:
                raise Refused(f"{label}: {exc}") from None
            values[side].append(record)
            print(f"{label}: " + " ".join(f"{n}={record[n]:.6g}" for n in names), flush=True)
    return [compare(m, [r[m["name"]] for r in values["A"]], [r[m["name"]] for r in values["B"]])
            for m in spec["end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
        revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo).decode().strip()
                for side, rev in (("A", args.a), ("B", args.b))}
    except subprocess.CalledProcessError as exc:
        print(f"error: git {' '.join(exc.cmd[1:])}: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    print(f"A {revs['A']}")
    print(f"B {revs['B']}")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp, side) for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree, repo)
        spec = json.loads((trees["A"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        try:
            rows = run_pairs(trees, spec, args)
        except Refused as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for row in rows:
        print(report_line(row))
    print(json.dumps({"workload": args.workload, "a": revs["A"],
                      "b": revs["B"], "seconds": args.seconds, "first_seed": args.seed,
                      "metrics": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
