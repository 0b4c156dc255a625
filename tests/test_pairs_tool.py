"""tools/pairs.py, the interleaved parent/change benchmark runner: its
statistics (spread, compare, summarize), its argument checks, and the two
medians it keeps from each run's summary line. No benchmark process is
started; main runs against stubbed checkouts and benchmark processes.
Every committed BENCH_*.json is held to its own runs: its summary is
summarize's, and each workload holds every pair it claims."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import load_script


@pytest.fixture(scope="module")
def pairs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield load_script("tools/pairs.py", "mebench_tools_pairs", monkeypatch)


SUMMARY_LINE = "{}: 3 runs; wall pairs_per_s median 41.5, host speed median 0.83 (min 0.8)\n"


@pytest.fixture
def no_runs(pairs, monkeypatch):
    """main with checkouts and benchmark processes stubbed out: every run
    prints the same summary line and passing result line, and the runs made
    are recorded."""
    made = []

    def run(cmd, cwd, **kwargs):
        workload = cmd[cmd.index("--workload") + 1]
        made.append((Path(cwd), workload))
        metrics = {"pairs_per_s": 50.0, "setup_s": 0.3, "peak_rss_mb": 60.0, "ok_frac": 1.0}
        result = {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}
        stdout = SUMMARY_LINE.format(workload) + f"{workload} (seed 0, 30 pairs)\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(pairs, "checkout", lambda ref, scratch: Path(ref))
    monkeypatch.setattr(pairs, "subprocess", SimpleNamespace(run=run))
    return made


def test_spread_of_one_value(pairs):
    assert pairs.spread([4.5]) == {"median": 4.5, "q1": 4.5, "q3": 4.5}


def test_spread_of_four_values(pairs):
    assert pairs.spread([10.0, 11.0, 12.0, 13.0]) == {"median": 11.5, "q1": 10.75, "q3": 12.25}


def test_compare_counts_wins_in_the_better_direction(pairs):
    both = [(1.0, 2.0), (2.0, 1.0), (4.0, 3.0), (3.0, 3.0)]  # the last pair ties
    higher = pairs.compare(both, "higher")
    lower = pairs.compare(both, "lower")
    assert (higher["change_wins"], lower["change_wins"]) == (1, 2)
    assert higher["pairs"] == lower["pairs"] == 4
    assert higher["better"] == "higher" and lower["better"] == "lower"


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_tie_wins_for_neither_side(pairs, better):
    ties = [(3.0, 3.0), (5.0, 5.0)]
    assert pairs.compare(ties, better)["change_wins"] == 0
    swapped = [(b, a) for a, b in ties]
    assert pairs.compare(swapped, better)["change_wins"] == 0


def test_compare_of_nothing_is_none(pairs):
    assert pairs.compare([], "higher") is None


@pytest.mark.parametrize(
    "change, better, exceeds",
    [
        ([13.0, 13.5, 14.0, 14.5], "higher", True),   # gap 2.25 over an IQR of 1.5
        ([13.0, 13.5, 14.0, 14.5], "lower", False),   # the same gap, the wrong way
        ([8.0, 8.5, 9.0, 9.5], "lower", True),
        ([12.0, 12.5, 13.0, 13.5], "higher", False),  # gap 1.25: inside the IQR
        ([12.0, 13.0, 13.0, 14.0], "higher", False),  # gap 1.5 equals the IQR
    ],
)
def test_compare_sets_gap_exceeds_parent_iqr(pairs, change, better, exceeds):
    parent = [10.0, 11.0, 12.0, 13.0]  # median 11.5, quartiles 10.75 and 12.25
    result = pairs.compare(list(zip(parent, change)), better)
    assert result["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert result["gap_exceeds_parent_iqr"] is exceeds


def _run(pair, side, value, first):
    result = None if value is None else {"metrics": {"pairs_per_s": {"value": value}}}
    return {"workload": "w", "pair": pair, "side": side, "first": first, "result": result}


def _pair(pair, first, second):
    """The two runs of one pair, each a (side, value), in the order they ran."""
    return [_run(pair, *first, True), _run(pair, *second, False)]


def test_summarize_drops_a_pair_with_a_failed_side(pairs):
    runs = [
        *_pair(0, ("parent", 10.0), ("change", 12.0)),
        *_pair(1, ("change", 11.0), ("parent", None)),  # the parent's run failed
        *_pair(2, ("parent", None), ("change", None)),
        *_pair(3, ("change", 9.0), ("parent", 10.0)),
    ]
    summary = pairs.summarize(runs, {"pairs_per_s": "higher"})
    result = summary["w"]["pairs_per_s"]
    assert result["pairs"] == 2
    assert result["parent"]["median"] == 10.0
    assert result["change"]["median"] == 10.5
    assert result["change_wins"] == 1


@pytest.mark.parametrize("better, first_wins, change_wins", [("higher", 3, 3), ("lower", 1, 1)])
def test_summarize_counts_the_wins_of_the_side_that_ran_first(pairs, better, first_wins, change_wins):
    runs = [
        *_pair(0, ("parent", 12.0), ("change", 10.0)),
        *_pair(1, ("change", 13.0), ("parent", 11.0)),
        *_pair(2, ("parent", 10.0), ("change", 10.0)),  # a tie counts for neither side
        *_pair(3, ("change", 14.0), ("parent", 9.0)),
        *_pair(4, ("parent", 9.0), ("change", 12.0)),
        *_pair(5, ("change", None), ("parent", 20.0)),  # a failed run drops its pair
    ]
    result = pairs.summarize(runs, {"pairs_per_s": better})["w"]["pairs_per_s"]
    assert result["pairs"] == 5
    assert (result["first_wins"], result["change_wins"]) == (first_wins, change_wins)


@pytest.mark.parametrize("count", [3, 5, 11])
def test_odd_pair_counts_are_a_usage_error(pairs, no_runs, tmp_path, capsys, count):
    argv = ["--parent", "a", "--change", "b", "--pairs", str(count), "--label", "t", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        pairs.main(argv)
    assert info.value.code == 2
    assert f"--pairs must be 1 or even, got {count}" in capsys.readouterr().err
    assert no_runs == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("count", [1, 2])
def test_one_pair_and_even_pair_counts_run(pairs, no_runs, tmp_path, count):
    argv = ["--parent", "a", "--change", "b", "--pairs", str(count), "--label", "t"]
    argv += ["--workloads", "qcif-pan-es", "--out", str(tmp_path)]
    assert pairs.main(argv) == 0
    sides = [tree.name for tree, _ in no_runs]
    assert sides == ["a", "b", "b", "a"][: 2 * count]  # the side that runs first alternates
    assert (tmp_path / "BENCH_t.json").is_file()


def test_a_workload_not_in_the_benchmark_is_a_usage_error(pairs, no_runs, tmp_path, capsys):
    argv = ["--parent", "a", "--change", "b", "--pairs", "2", "--label", "t", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        pairs.main(argv + ["--workloads", "qcif-pan-es,qcif-pan-fst"])
    assert info.value.code == 2
    assert "--workloads: unknown qcif-pan-fst; BENCHMARK.json names qcif-pan-es," in capsys.readouterr().err
    assert no_runs == []
    assert not list(tmp_path.iterdir())


def test_each_run_keeps_the_wall_rate_and_host_speed_of_its_summary_line(pairs, no_runs, tmp_path):
    argv = ["--parent", "a", "--change", "b", "--pairs", "2", "--label", "t"]
    assert pairs.main(argv + ["--workloads", "qcif-pan-fast", "--out", str(tmp_path)]) == 0
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["wall_pairs_per_s"], r["host_speed"]) for r in bench["runs"]] == [(41.5, 0.83)] * 4
    assert list(bench["summary"]["qcif-pan-fast"]) == ["pairs_per_s", "setup_s", "peak_rss_mb", "ok_frac"]


def test_a_failed_run_keeps_its_summary_line_medians_when_it_printed_one(pairs, monkeypatch, capsys):
    for stdout, medians in [("", (None, None)), (SUMMARY_LINE.format("w"), (41.5, 0.83))]:
        proc = subprocess.CompletedProcess([], 1, stdout, "Traceback: boom")
        monkeypatch.setattr(pairs, "subprocess", SimpleNamespace(run=lambda *a, **k: proc))
        run = pairs.run_once(Path("a"), "w", 0, 1.0)
        assert run == {"result": None, "wall_pairs_per_s": medians[0], "host_speed": medians[1]}
        assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "last",
    ["Traceback (most recent call last):", '["not", "an object"]', '{"correct": true}', '{"correct": true, "metrics": {}}'],
)
def test_a_run_whose_last_line_is_no_json_object_fails_and_the_set_is_still_written(
    pairs, monkeypatch, tmp_path, capsys, last
):
    def run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, SUMMARY_LINE.format("w") + last + "\n", "stderr tail")

    monkeypatch.setattr(pairs, "checkout", lambda ref, scratch: Path(ref))
    monkeypatch.setattr(pairs, "subprocess", SimpleNamespace(run=run))
    argv = ["--parent", "a", "--change", "b", "--pairs", "2", "--label", "t"]
    assert pairs.main(argv + ["--workloads", "qcif-pan-es", "--out", str(tmp_path)]) == 1
    assert "stderr tail" in capsys.readouterr().err
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [r["result"] for r in bench["runs"]] == [None] * 4
    assert [r["wall_pairs_per_s"] for r in bench["runs"]] == [41.5] * 4
    assert bench["summary"]["qcif-pan-es"]["pairs_per_s"] is None


BENCH_FILES = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_committed_bench_file_summarizes_its_own_runs(pairs, path):
    bench = json.loads(path.read_text())
    metrics = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    directions = {m["name"]: m["better"] for m in metrics}
    runs, count = bench["runs"], bench["pairs"]
    assert bench["summary"] == pairs.summarize(runs, directions)
    assert count == 1 or (count > 1 and count % 2 == 0)
    for workload in dict.fromkeys(run["workload"] for run in runs):
        # every pair complete: both sides ran and reported
        done = {(r["pair"], r["side"]) for r in runs if r["workload"] == workload and r["result"] is not None}
        assert done == {(pair, side) for pair in range(count) for side in pairs.SIDES}, workload
