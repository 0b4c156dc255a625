import re

import numpy as np
import pytest

from mebench import (
    EstimatorConfig,
    Frame,
    PsoConfig,
    estimate,
    inertia_weight,
    init_pattern,
    pso_match,
)
from mebench import pso
from mebench.metrics import PairCost
from mebench.pso import select_pattern

from conftest import make_cost, noise_frame, shifted_pair, smooth_texture

PATTERN_A = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
PATTERN_B = {(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)}
PATTERN_C = {(0, -1), (1, 0), (1, -1), (2, 0), (0, -2), (2, -1), (1, -2), (2, -2)}
PATTERN_D = {(0, 1), (0, -1), (0, 2), (0, -2), (1, 0), (2, 0), (1, 1), (1, -1)}


def single_block_frames(target_pixel=None):
    """One-block frames whose co-located cost is fully controlled."""
    anchor = Frame(np.zeros((16, 16), np.uint8))
    luma = np.zeros((16, 16), np.uint8)
    if target_pixel is not None:
        luma[0, 0] = target_pixel
    return anchor, Frame(luma)


def test_zmp_static_hit():
    anchor, target = single_block_frames()
    config = EstimatorConfig(zmp_threshold=384)
    field = estimate("pso-zmp", anchor, target, config, keep_memos=True)
    assert field.static_flags.all() and field.vector(0, 0) == (0, 0)
    assert field.total_evals == 1
    assert field.memos == [{(0, 0): 0}]  # the one co-located evaluation


def test_zmp_threshold_is_strict():
    # raw cost 64 equals threshold 4 * block side 16 exactly -> not static
    anchor, target = single_block_frames(target_pixel=64)
    field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=4), keep_memos=True)
    assert not field.static_flags.any()
    assert next(iter(field.memos[0].items())) == ((0, 0), 64)
    field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=4.1), keep_memos=True)
    assert field.static_flags.all()
    assert field.memos == [{(0, 0): 64}]


def test_select_pattern(qcif_grid):
    rows = qcif_grid.rows
    assert select_pattern(0, 0, rows) == "B"
    assert select_pattern(8, 0, rows) == "C"  # bottom-left corner
    assert select_pattern(4, 0, rows) == "D"  # leftmost column
    assert select_pattern(4, 1, rows) == "A"
    assert select_pattern(0, 0, 1) == "B"     # a one-row grid's only corner is the top


def test_init_pattern_sets():
    assert set(init_pattern("A")) == PATTERN_A
    assert set(init_pattern("B")) == PATTERN_B
    assert set(init_pattern("C")) == PATTERN_C
    assert set(init_pattern("D")) == PATTERN_D


def test_init_pattern_translation():
    shifted = set(init_pattern("A", (3, 2)))
    assert shifted == {(dx + 3, dy + 2) for dx, dy in PATTERN_A}


def test_init_pattern_cardinality_and_quadrants():
    for kind in "ABCD":
        pts = init_pattern(kind)
        assert len(pts) == len(set(pts)) == 8
    assert all(dx >= 0 and dy >= 0 for dx, dy in PATTERN_B)   # legal at top-left corner
    assert all(dx >= 0 and dy <= 0 for dx, dy in PATTERN_C)   # legal at bottom-left corner
    assert all(dx >= 0 for dx, dy in PATTERN_D)               # legal in the leftmost column


def test_init_pattern_unknown_kind():
    with pytest.raises(ValueError, match=re.escape("expected one of ('A', 'B', 'C', 'D')")):
        init_pattern("E")


def test_inertia_schedule_endpoints_exact():
    assert inertia_weight(0, 5, 0.9, 0.4) == 0.9
    assert inertia_weight(4, 5, 0.9, 0.4) == 0.4


def test_inertia_schedule_affine_strictly_decreasing():
    values = [inertia_weight(t, 5, 0.9, 0.4) for t in range(5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0])
    assert inertia_weight(0, 1, 0.9, 0.4) == 0.9  # single iteration keeps the start weight


def test_pso_match_returns_zero_cost_point():
    anchor, target = shifted_pair(80, 96, (1, 1), seed=20)
    cost, _ = make_cost(anchor, target, (32, 32))
    rng = np.random.Generator(np.random.PCG64(0))
    mv = pso_match(cost, init_pattern("A"), ((0, 0),), PsoConfig(), rng)
    assert mv == (1, 1)  # the pattern contains the true shift, cost 0
    assert cost(mv) == 0


def test_pso_match_degenerate_reduces_to_pattern_evaluation():
    anchor, target = shifted_pair(80, 96, (1, 1), seed=21)
    cost, counter = make_cost(anchor, target, (32, 32))
    cfg = PsoConfig(c1=0.0, c2=0.0, w_start=0.0, w_end=0.0)
    rng = np.random.Generator(np.random.PCG64(0))
    mv = pso_match(cost, init_pattern("A"), ((0, 0),), cfg, rng)
    # particles never move: the evaluated set is the seed plus the 8 starts
    assert counter.evals == 9
    best = min(counter.memo, key=lambda d: (counter.memo[d], abs(d[0]) + abs(d[1]), d[1], d[0]))
    assert mv == best == (1, 1)


def test_pso_match_deterministic_per_seed():
    anchor, target = shifted_pair(80, 96, (2, -2), seed=22)
    results = []
    for _ in range(2):
        cost, counter = make_cost(anchor, target, (32, 32))
        rng = np.random.Generator(np.random.PCG64(123))
        results.append((pso_match(cost, init_pattern("A"), ((0, 0),), PsoConfig(), rng), counter.evals))
    assert results[0] == results[1]


def test_pso_match_velocity_clamp_and_monotone_best():
    anchor, target = shifted_pair(80, 96, (2, 2), seed=23)
    cost, _ = make_cost(anchor, target, (32, 32))
    trace = []
    rng = np.random.Generator(np.random.PCG64(7))
    # oversized acceleration forces the clamp to engage
    pso_match(cost, init_pattern("A", (-4, -4)), ((0, 0),), PsoConfig(c1=8.0, c2=8.0), rng, trace=trace)
    assert len(trace) == 5
    clamped = False
    for step in trace:
        assert (np.abs(step["velocities"]) <= 5.0 + 1e-12).all()
        clamped = clamped or (np.abs(step["velocities"]) >= 5.0 - 1e-12).any()
    assert clamped
    costs = [step["gbest_cost"] for step in trace]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_pso_match_inertia_trace_matches_schedule():
    anchor, target = shifted_pair(80, 96, (1, 0), seed=24)
    cost, _ = make_cost(anchor, target, (32, 32))
    trace = []
    rng = np.random.Generator(np.random.PCG64(1))
    pso_match(cost, init_pattern("A"), ((0, 0),), PsoConfig(), rng, trace=trace)
    assert [s["w"] for s in trace] == [inertia_weight(t, 5, 0.9, 0.4) for t in range(5)]
    assert trace[0]["w"] == 0.9 and trace[-1]["w"] == 0.4


def test_estimate_pso_zmp_identical_frames_all_static():
    f = noise_frame(64, 80, 25)
    field = estimate("pso-zmp", f, f, EstimatorConfig(zmp_threshold=384), seed=0)
    assert field.static_flags.all()
    assert (field.evals_per_block == 1).all()
    assert (field.vectors == 0).all()


def test_estimate_pso_zmp_saturated_difference_never_static():
    anchor = Frame(np.zeros((48, 64), np.uint8))
    target = Frame(np.full((48, 64), 255, np.uint8))
    # co-located raw cost 255*256 dwarfs the threshold-sum 384*16 = 6144
    field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=384), seed=0)
    assert not field.static_flags.any()
    assert (field.evals_per_block > 1).all()


def test_estimate_pso_zmp_recovery_on_shift():
    anchor, target = shifted_pair(112, 128, (2, 1), seed=26)
    hits = total = 0
    for seed in range(5):
        field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=16), seed=seed)
        inner = field.vectors[1:-1, 1:-1]
        hits += int(((inner[..., 0] == 2) & (inner[..., 1] == 1)).sum())
        total += inner[..., 0].size
    assert hits / total >= 0.95


def test_estimate_pso_zmp_output_dominates_every_evaluated_point():
    anchor, target = shifted_pair(80, 96, (-1, 2), seed=27)
    field = estimate(
        "pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=64), seed=3, keep_memos=True
    )
    grid = field.grid
    for index, memo in enumerate(field.memos):
        row, col = index // grid.cols, index % grid.cols
        mv = field.vector(row, col)
        assert memo[mv] == min(memo.values())


@pytest.mark.parametrize("config", [PsoConfig(), PsoConfig(iterations=3, seed_predictor=False)])
def test_the_swarm_ranks_once_per_iteration_per_column(monkeypatch, config):
    # the seeds join the first positions' rank call, so a column of blocks
    # makes exactly `iterations` calls
    anchor = Frame(smooth_texture(64, 96, seed=5))
    target = Frame(np.roll(anchor.luma, (1, 3), axis=(0, 1)))
    calls = []
    column_search, rank = pso.column_search, PairCost.rank

    def column(pair, blocks, *args):
        calls.append(0)
        return column_search(pair, blocks, *args)

    def counted(self, blocks, d):
        calls[-1] += 1
        return rank(self, blocks, d)

    monkeypatch.setattr(pso, "column_search", column)
    monkeypatch.setattr(PairCost, "rank", counted)
    field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=0), pso=config, seed=3)
    assert not field.static_flags.any()
    assert calls == [config.iterations] * field.grid.cols


def test_estimate_pso_zmp_eval_budget():
    anchor, target = shifted_pair(80, 96, (2, -2), seed=28)
    cfg = PsoConfig()
    field = estimate("pso-zmp", anchor, target, EstimatorConfig(zmp_threshold=0), pso=cfg, seed=1)
    # 1 prejudgment + 1 seed + 8 starts + 8 per iteration, all distinct at worst
    assert (field.evals_per_block <= 2 + 8 + 8 * cfg.iterations).all()
    assert not field.static_flags.any()  # threshold 0 never fires (strict <)


def test_estimate_pso_zmp_field_reproducible():
    anchor, target = shifted_pair(80, 96, (1, 1), seed=29)
    cfg = EstimatorConfig(zmp_threshold=64)
    a = estimate("pso-zmp", anchor, target, cfg, seed=11)
    b = estimate("pso-zmp", anchor, target, cfg, seed=11)
    assert (a.vectors == b.vectors).all()
    assert (a.evals_per_block == b.evals_per_block).all()
    assert (a.static_flags == b.static_flags).all()


def test_estimate_pso_zmp_requires_threshold():
    f = noise_frame(48, 64, 30)
    with pytest.raises(ValueError, match="threshold"):
        estimate("pso-zmp", f, f, EstimatorConfig())


def test_evaluation_rounding_is_half_away_from_zero():
    from mebench.pso import _round_half_away

    assert _round_half_away(2.5) == 3
    assert _round_half_away(-2.5) == -3
    assert _round_half_away(1.49) == 1
    assert _round_half_away(-1.49) == -1
    assert _round_half_away(0.0) == 0


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(particles=0)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)
    with pytest.raises(ValueError):
        PsoConfig(w_start=0.3, w_end=0.4)
    with pytest.raises(ValueError):
        PsoConfig(v_max=0)


@pytest.mark.parametrize("name, value", [("particles", 2.5), ("particles", 8.0), ("iterations", 2.5)])
def test_pso_config_rejects_non_integral_counts(name, value):
    # these constructed at one time and failed in estimate with a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        PsoConfig(**{name: value})


@pytest.mark.parametrize("name", ["w_start", "c1", "c2", "v_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_pso_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PsoConfig(**{name: value})
