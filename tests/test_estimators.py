import re
import tracemalloc

import numpy as np
import pytest

from mebench import (
    BlockGrid,
    EstimatorConfig,
    Frame,
    block_origin,
    es_search,
    estimate,
    estimators,
)
from mebench.estimators import ALGORITHMS, arps_search
from mebench.metrics import PairCost

from conftest import load_script, make_cost, noise_frame, shifted_pair, smooth_texture


def brute_force_best(anchor, target, origin, p, block_size=16):
    """Vectorized full-search oracle: min cost and its tie-broken argmin."""
    x, y = origin
    h, w = anchor.luma.shape
    tgt = target.luma[y : y + block_size, x : x + block_size].astype(np.int64)
    best = None
    for dy in range(-p, p + 1):
        for dx in range(-p, p + 1):
            cx, cy = x + dx, y + dy
            if not (0 <= cx <= w - block_size and 0 <= cy <= h - block_size):
                continue
            cand = anchor.luma[cy : cy + block_size, cx : cx + block_size].astype(np.int64)
            cost = int(np.abs(tgt - cand).sum())
            key = (cost, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best:
                best = key
    return best[0], (best[3], best[2])


def test_estimate_unknown_algorithm():
    f = noise_frame(48, 64, 0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        estimate("tss", f, f)


def test_estimate_size_mismatch():
    with pytest.raises(ValueError):
        estimate("es", noise_frame(48, 64, 0), noise_frame(48, 48, 0))


def test_identical_frames_all_algorithms_zero_field():
    f = noise_frame(48, 64, 1)
    cfg = EstimatorConfig(zmp_threshold=384)
    for algo in ("es", "ds", "arps", "pso-zmp"):
        field = estimate(algo, f, f, cfg, seed=0)
        assert (field.vectors == 0).all(), algo
        assert (field.evals_per_block >= 1).all(), algo


def test_es_interior_eval_count_is_window_area():
    anchor, target = shifted_pair(64, 80, (1, 1), seed=2)
    cost, counter = make_cost(anchor, target, (16, 16), window=(-7, 7, -7, 7))
    es_search(cost)
    assert counter.evals == 225  # (2*7+1)^2


def test_es_corner_eval_count():
    anchor, target = shifted_pair(64, 80, (1, 1), seed=3)
    # only nonnegative displacements survive clamping at the top-left corner
    legal = [
        (dx, dy)
        for dy in range(-7, 8)
        for dx in range(-7, 8)
        if 0 <= dx and 0 <= dy
    ]
    assert len(legal) == 64
    cost, counter = make_cost(anchor, target, (0, 0), window=(-7, 7, -7, 7))
    es_search(cost)
    assert counter.evals == 64


def test_es_flat_frames_tie_break_to_zero():
    f = Frame(np.full((48, 64), 77, np.uint8))
    field = estimate("es", f, f)
    assert (field.vectors == 0).all()


def test_es_recovers_global_shift_on_interior():
    anchor, target = shifted_pair(80, 96, (-2, 1), seed=4)
    field = estimate("es", anchor, target)
    inner = field.vectors[1:-1, 1:-1]
    assert (inner[..., 0] == -2).all() and (inner[..., 1] == 1).all()


def test_es_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(6):
        h, w = 48, 64
        anchor = Frame(smooth_texture(h, w, seed=100 + trial))
        noise = rng.integers(-6, 7, (h, w))
        target = Frame(np.clip(anchor.luma.astype(int) + noise, 0, 255).astype(np.uint8))
        grid = BlockGrid.for_frame(anchor)
        for index in range(grid.n_blocks):
            origin = block_origin(grid, index)
            cost, _ = make_cost(anchor, target, origin, window=(-5, 5, -5, 5))
            mv = es_search(cost)
            oracle_cost, oracle_mv = brute_force_best(anchor, target, origin, p=5)
            assert cost(mv) == oracle_cost
            assert mv == oracle_mv


def test_es_scores_few_of_its_candidates_on_a_pan(monkeypatch):
    # The bound rules out most of each window on natural motion: on the
    # first pair of the benchmark's seed-0 pan clip the engine computes the
    # exact SAD of about 12% of the candidates it counts. A slide back to
    # scoring whole windows would read 100%.
    frames = load_script("benchmarks/clips.py", "mebench_bench_clips", monkeypatch).pan_frames(0)
    sad_sums, scored = estimators.sad_sums, []

    def counted(a, b):
        sums = sad_sums(a, b)
        scored.append(sums.size)
        return sums

    monkeypatch.setattr(estimators, "sad_sums", counted)
    field = estimate("es", Frame(frames[0]), Frame(frames[1]), EstimatorConfig(search_param=7))
    assert field.total_evals == 18271  # the 15x15 window of every block, cut at the frame edge
    assert sum(scored) < 0.25 * field.total_evals, sum(scored)


@pytest.mark.parametrize("content", ["pan", "noise"])
def test_es_chunking_never_changes_a_result(monkeypatch, content):
    # No workload splits a QCIF frame at p = 7 into several es_blocks calls,
    # so only this test runs that path: one grid row per call, then the
    # whole frame in one, must give the same vectors, evals and memos.
    if content == "pan":
        frames = load_script("benchmarks/clips.py", "mebench_bench_clips", monkeypatch).pan_frames(0)
        anchor, target = Frame(frames[0]), Frame(frames[1])
    else:
        anchor, target = noise_frame(144, 176, 40), noise_frame(144, 176, 41)
    es_blocks, calls = estimators.es_blocks, []

    def counted(*args):
        calls.append(len(args[1]))  # the blocks of the call
        return es_blocks(*args)

    monkeypatch.setattr(estimators, "es_blocks", counted)
    row = 4 * 15 * 15 * 11  # the four quadrant sums of each candidate of one grid row of 11 blocks
    fields = []
    for pixels, blocks in ((row, [11] * 9), (9 * row, [99])):
        monkeypatch.setattr(estimators, "ES_GATHER_PIXELS", pixels)
        calls.clear()
        fields.append(estimate("es", anchor, target, EstimatorConfig(search_param=7), keep_memos=True))
        assert calls == blocks
    by_row, whole = fields
    assert np.array_equal(by_row.vectors, whole.vectors)
    assert np.array_equal(by_row.evals_per_block, whole.evals_per_block)
    assert [list(m.items()) for m in by_row.memos] == [list(m.items()) for m in whole.memos]


@pytest.mark.parametrize("bs", [2, 15, 64])
def test_quadrant_sums_are_exact_when_the_integral_image_wraps(bs):
    # 64 x 64 pixels of 2**20 sum to 2**32, so the int32 running sums wrap
    plane = np.full((64, 64), 2**20, dtype=np.int32)
    sums = estimators.quadrant_sums(plane, bs)
    n, half = 64 - bs + 1, bs // 2
    expected = np.empty((4, n, n), dtype=np.int64)
    for r in range(n):
        for c in range(n):
            window = plane[r : r + bs, c : c + bs].astype(np.int64)
            top, bottom = window[:half], window[half:]
            expected[:, r, c] = [part.sum() for band in (top, bottom) for part in (band[:, :half], band[:, half:])]
    assert sums.dtype == np.int32
    assert np.array_equal(sums, expected)


# (anchor, target, search_param, tracemalloc peak allowed in MiB): twice the
# peak of the per-block full-window search on each pair (10.5-10.6 MiB, 10.5
# MiB and 3.9 MiB). Past the frame's larger side, every block's window is the
# whole frame box.
FLAT = Frame(np.full((144, 176), 77, np.uint8))
ES_MEMORY_CASES = {
    "flat QCIF, whole frame": (FLAT, FLAT, 176, 21),
    "noise QCIF, whole frame": (noise_frame(144, 176, 30), noise_frame(144, 176, 31), 176, 21),
    "noise 1280x720, p=7": (noise_frame(720, 1280, 32), noise_frame(720, 1280, 33), 7, 8),
}


@pytest.mark.parametrize("anchor, target, p, limit", list(ES_MEMORY_CASES.values()), ids=list(ES_MEMORY_CASES))
def test_es_memory_peak(anchor, target, p, limit):
    tracemalloc.start()
    try:
        estimate("es", anchor, target, EstimatorConfig(search_param=p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20, peak / 2**20


def test_ds_stationary_block_13_evals():
    f = noise_frame(64, 80, 6)
    field = estimate("ds", f, f, EstimatorConfig(search_param=7))
    interior = field.evals_per_block[1:-1, 1:-1]
    assert interior.size and (field.vectors[1:-1, 1:-1] == 0).all()
    assert (interior == 13).all()  # 9-point large diamond + 4 fresh small-diamond points


def test_ds_ranks_each_point_about_once_on_a_pan(monkeypatch):
    # Each large-diamond step ranks only the points its last diamond did not
    # hold, and the small diamond takes its center's key, so on the 30 pairs
    # of the benchmark's seed-0 pan clip DS sends PairCost.rank 49,463
    # queries for 49,263 evaluations. Re-ranking every pattern point read
    # 71,523 (1.45x).
    frames = [Frame(f) for f in load_script("benchmarks/clips.py", "mebench_bench_clips", monkeypatch).pan_frames(0)]
    rank, queries = PairCost.rank, []

    def counted(self, blocks, d):
        queries.append(np.broadcast_shapes(np.shape(blocks), d.shape[:-1]))
        return rank(self, blocks, d)

    monkeypatch.setattr(PairCost, "rank", counted)
    config = EstimatorConfig(search_param=7, zmp_threshold=8)
    evals = sum(estimate("ds", a, b, config, seed=k).total_evals for k, (a, b) in enumerate(zip(frames, frames[1:]), 1))
    ranked = sum(int(np.prod(shape)) for shape in queries)
    assert evals == 49263
    assert ranked <= 1.07 * evals, ranked


def test_ds_recovers_small_shift():
    anchor, target = shifted_pair(80, 96, (2, 0), seed=7)
    field = estimate("ds", anchor, target)
    inner = field.vectors[1:-1, 1:-1]
    assert (inner[..., 0] == 2).all() and (inner[..., 1] == 0).all()


def test_ds_never_beats_es():
    anchor = Frame(smooth_texture(48, 64, seed=8))
    target = noise_frame(48, 64, 9)
    field = estimate("ds", anchor, target, EstimatorConfig(search_param=7))
    for index in range(field.grid.n_blocks):
        origin = block_origin(field.grid, index)
        cost, _ = make_cost(anchor, target, origin, window=(-7, 7, -7, 7))
        ds_mv = field.vector(*divmod(index, field.grid.cols))
        es_cost, _ = brute_force_best(anchor, target, origin, p=7)
        assert cost(ds_mv) >= es_cost


def test_arps_static_block_single_eval():
    f = noise_frame(64, 80, 10)
    field = estimate("arps", f, f, EstimatorConfig(zmp_threshold=384), keep_memos=True)
    assert field.static_flags.all()
    assert (field.vectors == 0).all()
    assert (field.evals_per_block == 1).all()
    assert all(memo == {(0, 0): 0} for memo in field.memos)


def test_arps_finds_unit_shift_from_zero_predictor():
    anchor, target = shifted_pair(80, 96, (1, 0), seed=11)
    cut = EstimatorConfig(zmp_threshold=16).static_cut("arps")
    cost, counter = make_cost(anchor, target, (32, 32), window=(-7, 7, -7, 7))
    assert cost((0, 0)) >= cut  # the driver's prejudgment: moving
    mv = arps_search(cost, left_neighbor_mv=(0, 0))
    assert mv == (1, 0)
    # visited lattice: prejudgment point, unit rood at (0,0) [4 fresh],
    # unit rood at (1,0) [(2,0),(1,1),(1,-1) fresh]
    assert counter.evals == 8


def test_arps_uses_predictor_arm():
    anchor, target = shifted_pair(96, 112, (4, 0), seed=12)
    cut = EstimatorConfig(zmp_threshold=16).static_cut("arps")
    cost, counter = make_cost(anchor, target, (48, 48), window=(-7, 7, -7, 7))
    assert cost((0, 0)) >= cut
    mv = arps_search(cost, left_neighbor_mv=(4, 0))
    assert mv == (4, 0)
    # the predictor point is evaluated directly, so the rood stage lands on it
    assert (4, 0) in cost.counter.memo


def test_arps_never_beats_es():
    anchor = Frame(smooth_texture(48, 64, seed=13))
    target = noise_frame(48, 64, 14)
    grid = BlockGrid.for_frame(anchor)
    left = None
    for index in range(grid.cols):  # one raster row with propagating predictor
        origin = block_origin(grid, index)
        cost, _ = make_cost(anchor, target, origin, window=(-7, 7, -7, 7))
        mv = arps_search(cost, left)
        es_cost, _ = brute_force_best(anchor, target, origin, p=7)
        assert cost(mv) >= es_cost
        left = mv


def test_arps_recovery_rate_on_shifts():
    # pattern searches may stop early at rare aliases; require near-total recovery
    total = hits = 0
    for sx, sy in ((1, 1), (2, -1), (-2, 2)):
        anchor, target = shifted_pair(112, 128, (sx, sy), seed=15)
        field = estimate("arps", anchor, target, EstimatorConfig(zmp_threshold=16))
        inner = field.vectors[1:-1, 1:-1]
        hits += int(((inner[..., 0] == sx) & (inner[..., 1] == sy)).sum())
        total += inner[..., 0].size
    assert hits / total >= 0.95


def test_ds_zmp_variant():
    f = noise_frame(48, 64, 16)
    field = estimate("ds", f, f, EstimatorConfig(zmp_threshold=384, ds_zmp=True))
    assert field.static_flags.all()
    assert (field.evals_per_block == 1).all()


def test_static_cut_per_algorithm():
    cfg = EstimatorConfig(block_size=8, zmp_threshold=12.5)
    assert cfg.static_cut("es") is None
    assert cfg.static_cut("ds") is None  # ds prejudges only with ds_zmp
    assert cfg.static_cut("arps") == 12.5  # raw-sum convention
    assert cfg.static_cut("pso-zmp") == 12.5 * 8
    assert EstimatorConfig(block_size=8, zmp_threshold=12.5, ds_zmp=True).static_cut("ds") == 100
    normalized = EstimatorConfig(block_size=8, zmp_threshold=12.5, arps_raw_threshold=False)
    assert normalized.static_cut("arps") == 100
    with pytest.raises(ValueError, match="no static-block threshold"):
        EstimatorConfig().static_cut("pso-zmp")
    assert EstimatorConfig().static_cut("es") is None  # no threshold needed


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_threshold_rejected(value):
    with pytest.raises(ValueError, match="zmp_threshold must be finite"):
        EstimatorConfig(zmp_threshold=value)


@pytest.mark.parametrize("name, value", [("search_param", 2.5), ("search_param", 7.0), ("block_size", 16.0)])
def test_non_integral_integer_fields_rejected(name, value):
    # these constructed at one time and failed in estimate with a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        EstimatorConfig(**{name: value})


def test_numpy_integer_fields_accepted():
    anchor, target = shifted_pair(48, 64, (1, 0), seed=22)
    numpy_ints = EstimatorConfig(block_size=np.int64(16), search_param=np.int32(3))
    a, b = (estimate("es", anchor, target, cfg) for cfg in (numpy_ints, EstimatorConfig(search_param=3)))
    assert (a.vectors == b.vectors).all() and (a.evals_per_block == b.evals_per_block).all()


def test_arps_requires_threshold():
    f = noise_frame(48, 64, 17)
    with pytest.raises(ValueError, match="threshold"):
        estimate("arps", f, f)
    with pytest.raises(ValueError, match="threshold"):
        estimate("ds", f, f, EstimatorConfig(ds_zmp=True))


@pytest.mark.parametrize("threshold", [1e9, 8], ids=["all-static", "moving"])
def test_every_matcher_refuses_a_frame_whose_candidate_keys_overflow(threshold):
    # one 2901x2901 block of a 2901x3344 frame, one pixel taller than the
    # last frame whose keys fit int64: its raw co-located sum, 2901**2, falls
    # under every static cut at 1e9 and under none at 8, and either way every
    # matcher refuses the frame with the same message
    anchor, target = Frame(np.zeros((3344, 2901), np.uint8)), Frame(np.ones((3344, 2901), np.uint8))
    config = EstimatorConfig(block_size=2901, zmp_threshold=threshold, ds_zmp=True)
    assert all((2901**2 < config.static_cut(a)) == (threshold == 1e9) for a in ("ds", "arps", "pso-zmp"))
    for algorithm in ALGORITHMS:
        with pytest.raises(ValueError) as info:
            estimate(algorithm, anchor, target, config)
        assert str(info.value) == "candidate keys of a 2901x3344 frame with 2901x2901 blocks overflow int64", algorithm


def test_all_field_vectors_are_legal():
    anchor, target = shifted_pair(64, 80, (2, -2), seed=19)
    cfg = EstimatorConfig(zmp_threshold=64)
    for algo in ("es", "ds", "arps", "pso-zmp"):
        field = estimate(algo, anchor, target, cfg, seed=7)
        grid = field.grid
        for index in range(grid.n_blocks):
            row, col = index // grid.cols, index % grid.cols
            x, y = block_origin(grid, index)
            dx, dy = field.vector(row, col)
            assert 0 <= x + dx <= anchor.width - 16, (algo, index)
            assert 0 <= y + dy <= anchor.height - 16, (algo, index)


@pytest.mark.parametrize("algo", ["es", "ds", "arps"])
def test_search_param_beyond_the_frame_moves_no_box(algo):
    # no frame-legal component reaches the frame's larger side, so any
    # larger reach searches the same boxes at the same cost
    anchor, target = shifted_pair(48, 64, (3, -2), seed=21)
    huge, edge = (
        estimate(algo, anchor, target, EstimatorConfig(search_param=p, zmp_threshold=8), keep_memos=True)
        for p in (2**70, max(anchor.width, anchor.height))
    )
    assert (huge.vectors == edge.vectors).all()
    assert (huge.evals_per_block == edge.evals_per_block).all()
    assert [list(m.items()) for m in huge.memos] == [list(m.items()) for m in edge.memos]


def test_estimate_deterministic():
    anchor, target = shifted_pair(64, 80, (1, -1), seed=18)
    cfg = EstimatorConfig(zmp_threshold=128)
    for algo in ("es", "ds", "arps", "pso-zmp"):
        a = estimate(algo, anchor, target, cfg, seed=42)
        b = estimate(algo, anchor, target, cfg, seed=42)
        assert (a.vectors == b.vectors).all()
        assert (a.evals_per_block == b.evals_per_block).all()
        assert (a.static_flags == b.static_flags).all()
