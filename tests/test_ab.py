"""tools/ab.py, the pairs rule: its statistics and its refusals, on fixed
run lines.  No benchmark runs here."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [m["name"] for m in SPEC["end_to_end"]]
BY_NAME = {m["name"]: m for m in SPEC["end_to_end"]}

# The last five lines of a `bench/run.py --workload diagnose --seconds 1` run.
RECORDED = (
    "metric setup_s = 0.1749878487234658 s\n"
    "metric wall_s = 0.0002891008833130355 s\n"
    "metric work_per_s = 3459.000154341314 1/s\n"
    "metric peak_rss_mb = 39.0625 MB\n"
    '{"correct": true, "attempted": 660, "failed": 0, "metrics": '
    '{"setup_s": {"value": 0.1749878487234658, "unit": "s"}, '
    '"wall_s": {"value": 0.0002891008833130355, "unit": "s"}, '
    '"work_per_s": {"value": 3459.000154341314, "unit": "1/s"}, '
    '"peak_rss_mb": {"value": 39.0625, "unit": "MB"}}}\n'
)
VALUES = {"setup_s": 0.1749878487234658, "wall_s": 0.0002891008833130355,
          "work_per_s": 3459.000154341314, "peak_rss_mb": 39.0625}


def edited(**changes):
    """RECORDED with its last line's record changed."""
    head, last = RECORDED.rstrip("\n").rsplit("\n", 1)
    return head + "\n" + json.dumps({**json.loads(last), **changes}) + "\n"


def test_a_correct_run_gives_every_end_to_end_metric():
    assert ab.parse_record(RECORDED, NAMES) == VALUES


@pytest.mark.parametrize("stdout, reason", [
    (edited(correct=False), 'printed "correct": false'),
    (edited(failed=2), "reported 2 failed operations"),
    (RECORDED[:-40], "malformed last line (JSONDecodeError"),
    ("", "malformed last line (IndexError"),
    (RECORDED + "done\n", "malformed last line (JSONDecodeError"),
    (edited(metrics={"setup_s": {"value": 0.2, "unit": "s"}}),
     "malformed last line (KeyError: 'wall_s')"),
    (edited(metrics={n: {"value": "1", "unit": "s"} for n in NAMES}),
     "malformed last line (metric setup_s is '1')"),
    (edited(metrics={n: {"value": float("nan"), "unit": "s"} for n in NAMES}),
     "malformed last line (metric setup_s is nan)"),
], ids=["incorrect", "failed-ops", "truncated", "empty", "trailing-text", "missing-metric",
        "string-value", "nan-value"])
def test_a_run_that_cannot_be_compared_is_refused(stdout, reason):
    with pytest.raises(ab.Refused) as info:
        ab.parse_record(stdout, NAMES)
    assert str(info.value).startswith(reason), info.value


def test_odd_pairs_run_a_first_and_even_pairs_b_first():
    assert [ab.order(pair) for pair in (1, 2, 3, 4)] == [("A", "B"), ("B", "A")] * 2


def test_a_higher_is_better_metric_counts_strict_wins_and_inclusive_quartiles():
    row = ab.compare(BY_NAME["work_per_s"], [10.0, 11.0, 12.0, 13.0], [12.0, 11.0, 11.5, 15.0])
    assert row["median_a"] == 11.5 and row["median_b"] == 11.75
    assert row["ratio"] == 11.75 / 11.5
    assert (row["wins"], row["pairs"]) == (2, 4)  # the tie in pair 2 counts for neither
    assert row["quartiles_a"] == [10.75, 12.25] and row["quartiles_b"] == [11.375, 12.75]
    assert row["within_bound"] and not row["clear_gain"]


@pytest.mark.parametrize("name, b, holds", [
    ("wall_s", 12.5, True), ("wall_s", 12.501, False), ("wall_s", 5.0, True),
    ("work_per_s", 7.5, True), ("work_per_s", 7.499, False), ("work_per_s", 20.0, True),
    ("peak_rss_mb", 11.0, True), ("peak_rss_mb", 11.001, False),
])
def test_the_bound_is_how_much_worse_b_may_be_in_the_metric_direction(name, b, holds):
    # Bounds 0.25 for wall_s and work_per_s, 0.1 for peak_rss_mb; A is 10.
    assert ab.compare(BY_NAME[name], [10.0], [b])["within_bound"] is holds


def test_a_clear_gain_needs_nine_wins_in_ten_and_a_median_beyond_a_spread():
    a = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5
    ahead = [x + 6.0 for x in a]
    assert ab.compare(BY_NAME["work_per_s"], a, ahead)["clear_gain"]
    nine = ahead[:9] + [a[9]]
    assert ab.compare(BY_NAME["work_per_s"], a, nine)["wins"] == 9
    assert ab.compare(BY_NAME["work_per_s"], a, nine)["clear_gain"]
    eight = ahead[:8] + a[8:]
    assert not ab.compare(BY_NAME["work_per_s"], a, eight)["clear_gain"]
    inside_spread = [x + 4.0 for x in a]
    assert not ab.compare(BY_NAME["work_per_s"], a, inside_spread)["clear_gain"]
    assert not ab.compare(BY_NAME["work_per_s"], a[:9], ahead[:9])["clear_gain"]
    # A lower-is-better metric gains downwards.
    assert ab.compare(BY_NAME["wall_s"], ahead, a)["clear_gain"]


def fake_bench(stdouts):
    """A stand-in for run_bench that logs each call and returns the next stdout."""
    calls = []

    def bench(tree, command, workload, seconds, seed):
        calls.append((tree, workload, seconds, seed))
        return stdouts[len(calls) - 1]
    return bench, calls


def test_pairs_alternate_with_one_seed_per_pair():
    slower = edited(metrics={n: {"value": v * 1.1, "unit": ""} for n, v in VALUES.items()})
    bench, calls = fake_bench([RECORDED, slower, RECORDED, slower])
    args = SimpleNamespace(pairs=2, seed=7, workload="diagnose", seconds=1.0)
    rows = ab.run_pairs({"A": "tree-a", "B": "tree-b"}, SPEC, args, bench)
    assert calls == [("tree-a", "diagnose", 1.0, 7), ("tree-b", "diagnose", 1.0, 7),
                     ("tree-b", "diagnose", 1.0, 8), ("tree-a", "diagnose", 1.0, 8)]
    by_name = {row["name"]: row for row in rows}
    assert by_name["work_per_s"]["wins"] == 1 and by_name["wall_s"]["wins"] == 1
    assert by_name["work_per_s"]["ratio"] == pytest.approx(1.0)


def test_a_refused_run_is_named_and_stops_the_pairs():
    bench, calls = fake_bench([RECORDED, RECORDED, edited(correct=False), RECORDED])
    args = SimpleNamespace(pairs=2, seed=5, workload="sweep", seconds=1.0)
    with pytest.raises(ab.Refused, match=r'^run B of pair 2 \(seed 6\): printed "correct": false$'):
        ab.run_pairs({"A": "tree-a", "B": "tree-b"}, SPEC, args, bench)
    assert len(calls) == 3


@pytest.mark.parametrize("argv", [
    ["A", "--workload", "sweep", "--pairs", "1", "--seconds", "1"],
    ["A", "B", "--workload", "sweep", "--pairs", "0", "--seconds", "1"],
    ["A", "B", "--workload", "sweep", "--pairs", "1", "--seconds", "0"],
    ["A", "B", "--workload", "sweep", "--pairs", "1", "--seconds", "1", "--seed", "-1"],
], ids=["no-b", "zero-pairs", "zero-seconds", "negative-seed"])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as info:
        ab.parse_args(argv)
    assert info.value.code == 2
