"""The benchmark's tracer (benchmarks/tracing.py) wraps mebench names and reads
memo hits off BlockCost.__call__. A renamed target, ES or ARPS no longer
calling __call__, or the swarm binding its column step at import time (so a
wrapped module attribute is never called) turns its per-layer metrics into
null or zero; these tests catch all three, and hold ES to exactly one
co-located call per block, the count CI pins. They also hold `estimate` to
prejudging a whole frame before building any per-block cost oracle, the
package's `__all__` to names that exist: exactly the README's library and the
names the acceptance gate imports from mebench, the swarm's random stream
to pso.py, which alone builds one, every cost oracle of a frame pair to
one anchor window view (and compensate to none when no block moved), the
array matchers' boxes and candidate keys to PairCost, and batch scoring
to PairCost, whose record fills ES's, DS's and the swarm's kept memos in
one PairCost.fill. Every `estimate` call builds exactly one PairCost, an
all-static pair's too, and reads every block's origin and the window view
from it, ARPS's oracles included. The dump and CSV writers the tracer wraps
run on the main thread, whose span stack is the tracer's only one, and a
run that dumps nothing starts no thread."""

from __future__ import annotations

import ast
import importlib
import re
import threading
import types

import numpy as np
import pytest

import mebench
from mebench import (
    BlockGrid,
    EstimatorConfig,
    Frame,
    MotionField,
    bench,
    block_origin,
    compensate,
    estimate,
    metrics,
    pso,
)
from mebench.cli import main
from mebench.estimators import ALGORITHMS
from mebench.metrics import BlockCost

from conftest import REPO, load_script, shifted_pair, smooth_texture, write_y4m


def test_every_wrapped_name_exists(monkeypatch):
    tracing = load_script("benchmarks/tracing.py", "mebench_bench_tracing", monkeypatch)
    # resolved as Tracer.install does: through each owner's own __dict__
    missing = []
    for span_name, target in tracing.WRAPS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"mebench.{module}")
        for part in path:
            owner = owner.__dict__.get(part) if owner is not None else None
        if owner is None:
            missing.append((span_name, target))
    assert not missing


def test_es_makes_memo_miss_calls(monkeypatch):
    call = BlockCost.__call__
    misses = []

    def counted(self, d):
        misses.append(d not in self.counter.memo)
        return call(self, d)

    monkeypatch.setattr(BlockCost, "__call__", counted)
    anchor, target = shifted_pair(48, 64, (2, 1), seed=0)
    field = estimate("es", anchor, target)
    assert sum(misses) >= field.grid.n_blocks  # at least one per block


@pytest.mark.parametrize("keep_memos", [False, True])
def test_es_makes_one_memo_miss_call_per_block_at_zero(monkeypatch, keep_memos):
    # CI pins metrics.cost_calls_per_pair at 99 on qcif-pan-es: one call per
    # block of a QCIF frame, each a miss, so no more and no fewer may reach
    # the tracer's wrap point.
    call = BlockCost.__call__
    calls = []

    def counted(self, d):
        calls.append(((self.x, self.y), d, d in self.counter.memo))
        return call(self, d)

    monkeypatch.setattr(BlockCost, "__call__", counted)
    anchor, target = shifted_pair(48, 64, (2, 1), seed=0)
    field = estimate("es", anchor, target, keep_memos=keep_memos)
    assert calls == [(block_origin(field.grid, i), (0, 0), False) for i in range(field.grid.n_blocks)]


def static_and_patch_clip() -> tuple[Frame, Frame]:
    """A static background with one moving 32x32 patch: both kinds of block."""
    anchor = smooth_texture(64, 96, seed=3)
    target = anchor.copy()
    target[16:48, 32:64] = smooth_texture(32, 32, seed=4)
    return Frame(anchor), Frame(target)


def test_swarm_searches_through_the_module_attribute(monkeypatch):
    step = pso.column_search
    calls = []

    def counted(pair, blocks, *args, **kwargs):
        before = len(pair.memo)
        vectors = step(pair, blocks, *args, **kwargs)
        calls.append((blocks, len(pair.memo) - before))  # the evaluations this column made
        return vectors

    monkeypatch.setattr(pso, "column_search", counted)
    field = estimate("pso-zmp", *static_and_patch_clip(), EstimatorConfig(zmp_threshold=8))
    moving = np.flatnonzero(~field.static_flags)
    cols = field.grid.cols
    assert 0 < moving.size < field.grid.n_blocks
    # once per column that holds a moving block, left to right, each with all of them
    assert [int(blocks[0]) % cols for blocks, _ in calls] == sorted(set((moving % cols).tolist()))
    assert np.concatenate([blocks for blocks, _ in calls]).tolist() == sorted(moving, key=lambda b: (b % cols, b))
    # every evaluation of a moving block, its co-located sum included, is made inside column_search
    made = sum(n for _, n in calls)
    assert made == int(field.evals_per_block[~field.static_flags].sum())


@pytest.mark.parametrize("algorithm", ["arps", "pso-zmp"])
def test_static_blocks_build_no_cost_oracle(monkeypatch, algorithm):
    init = BlockCost.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args[2])  # origin
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockCost, "__init__", counted)
    field = estimate(algorithm, *static_and_patch_clip(), EstimatorConfig(zmp_threshold=8))
    assert 0 < field.static_count < field.grid.n_blocks
    if algorithm == "arps":
        assert built == [block_origin(field.grid, i) for i in np.flatnonzero(~field.static_flags)]
    else:  # the swarm scores every block through the frame pair's PairCost
        assert built == []


def record_window_views(monkeypatch) -> tuple[list, list]:
    """(anchors handed to BlockCost, window views built), filled as estimate runs."""
    init, build = BlockCost.__init__, metrics.sliding_window_view
    anchors, views = [], []

    def recorded(self, *args, **kwargs):
        anchors.append(args[0])
        init(self, *args, **kwargs)

    def built(*args, **kwargs):
        views.append(build(*args, **kwargs))
        return views[-1]

    monkeypatch.setattr(BlockCost, "__init__", recorded)
    monkeypatch.setattr(metrics, "sliding_window_view", built)
    return anchors, views


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_cost_oracle_of_a_pair_reads_one_window_view(monkeypatch, algorithm):
    anchors, views = record_window_views(monkeypatch)
    field = estimate(algorithm, *static_and_patch_clip(), EstimatorConfig(zmp_threshold=8))
    assert len(views) == 1
    assert all(a is views[0] for a in anchors)
    blocks = field.grid.n_blocks - field.static_count if algorithm in ("es", "arps") else 0
    assert len(anchors) == blocks


@pytest.mark.parametrize("algorithm", ["ds", "arps", "pso-zmp"])
def test_an_all_static_pair_builds_no_window_view(monkeypatch, algorithm):
    anchors, views = record_window_views(monkeypatch)
    anchor, _ = static_and_patch_clip()
    field = estimate(algorithm, anchor, anchor, EstimatorConfig(zmp_threshold=8, ds_zmp=True))
    assert field.static_count == field.grid.n_blocks
    assert anchors == views == []


def test_compensate_builds_a_window_view_only_when_a_block_moved(monkeypatch):
    anchors, views = record_window_views(monkeypatch)
    anchor, _ = static_and_patch_clip()
    field = MotionField.empty(BlockGrid.for_frame(anchor, 16))
    assert compensate(anchor, field).frame.luma.tobytes() == anchor.luma.tobytes()
    assert views == []
    field.vectors[1, 2] = (1, -1)
    compensate(anchor, field)
    assert len(views) == 1


def test_one_helper_builds_the_anchor_window_views():
    # metrics.anchor_windows builds every anchor window view in the package,
    # for the cost oracles and compensate alike; no module builds one by hand
    # from strides
    strays = []
    for path in sorted((REPO / "src" / "mebench").glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "anchor_windows" for n in ast.walk(f)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            func = getattr(node, "func", None)  # a call's callee, by name or attribute
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if "as_strided" in (name, getattr(node, "name", None)):
                strays.append(f"{path.name}:{node.lineno} as_strided")
            elif callee == "sliding_window_view" and id(node) not in helper:
                strays.append(f"{path.name}:{node.lineno} sliding_window_view")
    assert strays == []


def calls_by_function(path) -> list[tuple[str, str | None]]:
    """(enclosing function, callee name) of every call in a module, the
    function named with its class (PairCost.__init__), '' at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                found.append((scope, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_the_pair_alone_states_the_array_matchers_boxes_and_keys():
    # PairCost states each block's box and the pair's candidate keys for ES,
    # DS and the swarm: in estimators.py only compensate computes a frame
    # box, and besides the pair only the swarm's one-block oracle pso_match
    # builds CandidateKeys
    calls = {path.name: calls_by_function(path) for path in (REPO / "src" / "mebench").glob("*.py")}
    boxes = {scope for scope, callee in calls["estimators.py"] if callee == "displacement_bounds"}
    keys = {f"{name}:{scope}" for name, found in calls.items() for scope, callee in found if callee == "CandidateKeys"}
    assert boxes == {"compensate"}
    assert keys == {"metrics.py:PairCost.__init__", "pso.py:pso_match"}


def test_the_pair_alone_states_the_origins_and_the_window_view():
    # estimate reads every block's origin and the anchor's window view from
    # the pair, ARPS's oracles included: in estimators.py only compensate,
    # which has no pair, builds a window view, and nothing computes an origin
    calls = calls_by_function(REPO / "src" / "mebench" / "estimators.py")
    assert {scope for scope, callee in calls if callee == "anchor_windows"} == {"compensate"}
    assert {scope for scope, callee in calls if callee == "block_origin"} == set()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("all_static", [False, True], ids=["moving", "all-static"])
def test_every_estimate_call_builds_one_pair(monkeypatch, algorithm, all_static):
    init, built = metrics.PairCost.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(metrics.PairCost, "__init__", counted)
    anchor, target = static_and_patch_clip()
    field = estimate(algorithm, anchor, anchor if all_static else target, EstimatorConfig(zmp_threshold=8, ds_zmp=True))
    if all_static and algorithm != "es":  # ES prejudges nothing
        assert field.static_count == field.grid.n_blocks
    assert len(built) == 1


def test_the_pair_is_the_one_batch_scorer():
    # BlockCost answers one displacement per call; in metrics.py only
    # PairCost.rank reduces a batch of windows through sad_sums
    path = REPO / "src" / "mebench" / "metrics.py"
    block_cost = next(n for n in ast.parse(path.read_text()).body if getattr(n, "name", None) == "BlockCost")
    methods = [n.name for n in block_cost.body if isinstance(n, ast.FunctionDef)]
    assert methods == ["__init__", "legal", "__call__"]
    assert {scope for scope, callee in calls_by_function(path) if callee == "sad_sums"} == {"PairCost.rank"}


@pytest.mark.parametrize("algorithm", ["es", "ds", "pso-zmp"])
def test_the_pair_record_fills_the_kept_memos(monkeypatch, algorithm):
    # ES, DS and the swarm keep their memos from the pair's record, in one
    # fill; ES's per-block oracles keep only the co-located query CI pins
    fill, filled = metrics.PairCost.fill, []
    init, oracles = BlockCost.__init__, []

    def counted_fill(self, memos):
        filled.append(len(memos))
        fill(self, memos)

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        oracles.append(self)

    monkeypatch.setattr(metrics.PairCost, "fill", counted_fill)
    monkeypatch.setattr(BlockCost, "__init__", recorded)
    field = estimate(algorithm, *static_and_patch_clip(), EstimatorConfig(zmp_threshold=8), keep_memos=True)
    assert filled == [field.grid.n_blocks]
    assert [list(o.counter.memo) for o in oracles] == ([[(0, 0)]] * field.grid.n_blocks if algorithm == "es" else [])


def test_arps_makes_memo_miss_calls_on_every_moving_block(monkeypatch):
    # These calls keep the result line's metrics.cost_calls_per_pair and
    # metrics.sad_us_per_eval numeric on workloads without ES.
    call = BlockCost.__call__
    misses = []

    def counted(self, d):
        if d not in self.counter.memo:
            misses.append((self.x, self.y))
        return call(self, d)

    monkeypatch.setattr(BlockCost, "__call__", counted)
    field = estimate("arps", *static_and_patch_clip(), EstimatorConfig(zmp_threshold=8))
    moving = [block_origin(field.grid, i) for i in np.flatnonzero(~field.static_flags)]
    assert moving and set(moving) <= set(misses)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mebench import *", namespace)
    assert set(mebench.__all__) <= set(namespace)


def _readme_root_names(group: str) -> set[str]:
    """The names in backticks of the README Library section's `group` bullet."""
    text = (REPO / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullet = text.split(f"\n- **{group}", 1)[1].split("\n\n", 1)[0].split("\n- ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullet))


def test_root_exports_the_readme_library_and_the_acceptance_gate_imports():
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    gate = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mebench" and not node.level
        for alias in node.names
    }
    library = _readme_root_names("Library:**")
    assert set(mebench.__all__) == library | gate
    assert _readme_root_names("Acceptance-gate helpers**") == gate - library
    public = {n for n, v in vars(mebench).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(mebench.__all__)
    # a root name that is also a module stem hides that module behind it
    assert set(mebench.__all__).isdisjoint(p.stem for p in (REPO / "src" / "mebench").glob("*.py"))


def test_each_engine_owns_its_state():
    # the swarm's per-pair stream is built by pso.search
    strays = []
    for path in sorted((REPO / "src" / "mebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "PCG64" and path.name != "pso.py":
                strays.append(f"{path.name}:{node.lineno} {name}")
    assert strays == []


def run_argv(tmp_path, *flags: str) -> list[str]:
    """`mebench run` of ds and arps over a 3-frame clip (2 pairs), with flags."""
    clip = tmp_path / "clip.y4m"
    texture = smooth_texture(56, 72, seed=50)
    write_y4m(clip, [texture[k : k + 48, 4:68].copy() for k in range(3)])
    argv = ["run", "--input", str(clip), "--algos", "ds,arps", "--zmp-threshold", "128"]
    return argv + ["--out", str(tmp_path / "o"), *flags]


def test_dump_and_csv_writers_run_on_the_main_thread(tmp_path, monkeypatch):
    # bench.write_ms_per_pair is the tracer's spans around these three names
    calls = []
    for name in ("dump_mv_field", "write_pgm", "write_csv"):

        def recorded(*args, _name=name, _fn=getattr(bench, name), **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            calls.append((_name, args[-1].name, on_main))  # the last argument is the path
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bench, name, recorded)
    assert main(run_argv(tmp_path, "--dump-mv", "--dump-recon")) == 0
    dumps = [
        (fn, f"{algo}_frame{k:04d}.{ext}", True)
        for k in (1, 2)
        for algo in ("ds", "arps")
        for fn, ext in (("dump_mv_field", "mvf"), ("write_pgm", "pgm"))
    ]
    assert calls == dumps + [("write_csv", "o", True)]


@pytest.mark.parametrize("flags", [(), ("--dump-mv",), ("--dump-recon",), ("--dump-mv", "--dump-recon")])
def test_only_a_run_that_dumps_starts_a_thread(tmp_path, monkeypatch, flags):
    start = threading.Thread.start
    started = []

    def recorded(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    assert main(run_argv(tmp_path, *flags)) == 0
    assert len(started) == (1 if flags else 0)
