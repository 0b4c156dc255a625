"""tools/inproc.py, the interleaved in-process timer of `estimate` at two
revisions: its summary (wins, first-run wins, same fields), its argument
checks, the file it writes and the loading of each side under its own
package name. No child process is started; main runs against stubbed
checkouts and children. Every committed INPROC_*.json is held
to its own runs: its summary is summarize's, and every rep it claims ran on
both sides."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import REPO, load_script


@pytest.fixture(scope="module")
def inproc():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield load_script("tools/inproc.py", "mebench_tools_inproc", monkeypatch)


def _result(es: float, ds: float = 2.0, digest: str = "d") -> dict:
    """A child's result: ms per pair of two matchers on both inputs."""
    ms = {"es": es, "ds": ds}
    return {
        "ms_per_pair": {name: dict(ms) for name in ("pan", "static")},
        "digest": {name: {m: digest for m in ms} for name in ("pan", "static")},
    }


def _rep(rep, first, second):
    """The two runs of one rep, each a (side, result), in the order they ran."""
    return [
        {"rep": rep, "side": first[0], "first": True, "result": first[1]},
        {"rep": rep, "side": second[0], "first": False, "result": second[1]},
    ]


def test_summarize_counts_the_change_wins_and_the_first_side_wins(inproc):
    runs = [
        *_rep(0, ("parent", _result(8.0)), ("change", _result(4.0))),
        *_rep(1, ("change", _result(4.5)), ("parent", _result(7.5))),
        *_rep(2, ("parent", _result(3.0)), ("change", _result(5.0))),
        *_rep(3, ("change", _result(6.0)), ("parent", _result(6.0))),  # a tie counts for neither side
    ]
    es = inproc.summarize(runs)["pan"]["es"]
    assert (es["pairs"], es["better"]) == (4, "lower")
    assert es["parent"]["median"] == 6.75 and es["change"]["median"] == 4.75
    assert es["change_wins"] == 2
    assert es["first_wins"] == 2  # rep 1: the change ran first and won; rep 2: the parent did
    assert es["same_fields"] is True
    assert inproc.summarize(runs)["static"]["ds"]["change_wins"] == 0  # 2.0 against 2.0 throughout


def test_summarize_drops_a_rep_with_a_failed_side(inproc):
    runs = [
        *_rep(0, ("parent", _result(8.0)), ("change", _result(4.0))),
        *_rep(1, ("change", None), ("parent", _result(1.0))),
    ]
    es = inproc.summarize(runs)["pan"]["es"]
    assert es["pairs"] == 1 and es["change_wins"] == 1


def test_summarize_flags_sides_that_estimated_different_fields(inproc):
    runs = _rep(0, ("parent", _result(8.0, digest="a")), ("change", _result(4.0, digest="b")))
    assert inproc.summarize(runs)["pan"]["es"]["same_fields"] is False


@pytest.mark.parametrize("count", [0, 3, 5])
def test_a_rep_count_below_one_or_odd_is_a_usage_error(inproc, monkeypatch, tmp_path, capsys, count):
    monkeypatch.setattr(inproc, "run_child", lambda trees: pytest.fail("no child may run"))
    argv = ["--parent", "a", "--change", "b", "--reps", str(count), "--label", "t", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        inproc.main(argv)
    assert info.value.code == 2
    assert "--reps must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_main_alternates_the_first_side_and_writes_the_set(inproc, monkeypatch, tmp_path):
    made = []

    def run_child(trees):
        # one child per rep times both sides, in the order given
        made.append([(side, tree.name) for side, tree in trees.items()])
        return {side: _result(8.0 if tree.name == "a" else 4.0) for side, tree in trees.items()}

    monkeypatch.setattr(inproc.pairs, "checkout", lambda ref, scratch: Path(ref))
    monkeypatch.setattr(inproc, "run_child", run_child)
    argv = ["--parent", "a", "--change", "b", "--reps", "2", "--label", "t", "--out", str(tmp_path)]
    assert inproc.main(argv) == 0
    assert made == [[("parent", "a"), ("change", "b")], [("change", "b"), ("parent", "a")]]
    written = json.loads((tmp_path / "INPROC_t.json").read_text())
    assert [(run["rep"], run["side"], run["first"]) for run in written["runs"]] == [
        (0, "parent", True), (0, "change", False), (1, "change", True), (1, "parent", False)
    ]
    assert written["summary"] == inproc.summarize(written["runs"])
    assert written["summary"]["pan"]["es"]["change_wins"] == 2
    assert set(written["inputs"]) == set(written["summary"]) == {"pan", "static"}


def test_main_records_a_failed_child_as_failed_on_both_sides(inproc, monkeypatch, tmp_path):
    monkeypatch.setattr(inproc.pairs, "checkout", lambda ref, scratch: Path(ref))
    monkeypatch.setattr(inproc, "run_child", lambda trees: None)
    argv = ["--parent", "a", "--change", "b", "--reps", "1", "--label", "t", "--out", str(tmp_path)]
    assert inproc.main(argv) == 1
    written = json.loads((tmp_path / "INPROC_t.json").read_text())
    assert [run["result"] for run in written["runs"]] == [None, None]
    assert written["summary"]["pan"] == {}


@pytest.mark.parametrize(
    "stdout", ["", "Traceback (most recent call last):\n", '["not", "an object"]\n', '{"parent": {}}\n']
)
def test_a_child_whose_last_line_is_no_result_of_both_sides_fails_and_the_set_is_still_written(
    inproc, monkeypatch, tmp_path, capsys, stdout
):
    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout, "stderr tail")

    monkeypatch.setattr(inproc.pairs, "checkout", lambda ref, scratch: Path(ref))
    monkeypatch.setattr(inproc, "subprocess", SimpleNamespace(run=run))
    argv = ["--parent", "a", "--change", "b", "--reps", "2", "--label", "t", "--out", str(tmp_path)]
    assert inproc.main(argv) == 1
    assert "stderr tail" in capsys.readouterr().err
    written = json.loads((tmp_path / "INPROC_t.json").read_text())
    assert [run["result"] for run in written["runs"]] == [None] * 4
    assert written["summary"] == {"pan": {}, "static": {}}


def test_child_loads_each_side_under_its_own_package_name(inproc):
    first = inproc.load(str(REPO / "src"), "mebench_first")
    second = inproc.load(str(REPO / "src"), "mebench_second")
    assert first is not second and first.estimate is not second.estimate
    assert first.estimators.__name__ == "mebench_first.estimators"
    assert second.metrics.PairCost is not first.metrics.PairCost


INPROC_FILES = sorted(REPO.glob("INPROC_*.json"))


@pytest.mark.parametrize("path", INPROC_FILES, ids=[p.name for p in INPROC_FILES])
def test_committed_inproc_file_summarizes_its_own_runs(inproc, path):
    written = json.loads(path.read_text())
    assert written["summary"] == inproc.summarize(written["runs"])
    count = written["reps"]
    assert count == 1 or (count > 1 and count % 2 == 0)
    done = {(run["rep"], run["side"]) for run in written["runs"] if run["result"] is not None}
    assert done == {(rep, side) for rep in range(count) for side in inproc.SIDES}
