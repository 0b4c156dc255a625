"""Differential properties of the array fast paths against small scalar
references: ES's one-op window (BlockCost.box_sums) against a raster scan of
single BlockCost queries, the whole-swarm array update of pso_match against
the per-particle, per-dimension loop it replaced, and compensate's one
gather against a per-block copy loop. Frames are random, flat or tie-heavy;
windows are interior, edge-clipped and corner-clipped. Last, invariants of
`estimate` for every algorithm: legal vectors, evals == len(memo), and the
static-block prejudgment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebench import (
    ALGORITHMS,
    BlockGrid,
    EstimatorConfig,
    EvalCounter,
    Frame,
    MotionField,
    PsoConfig,
    block_origin,
    compensate,
    es_search,
    estimate,
    inertia_weight,
    init_pattern,
    pso_match,
    sad_sum,
)
from mebench.blocks import displacement_bounds
from mebench.estimators import _best_over
from mebench.metrics import BlockCost, candidate_key

CONTENT = ("noise", "flat", "two-level", "periodic")


def _luma(rng, h: int, w: int, content: str) -> np.ndarray:
    if content == "noise":
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    if content == "flat":
        return np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    if content == "two-level":
        # few distinct values: many displacements share the minimum cost
        return rng.choice(np.array([0, 255], dtype=np.uint8), size=(h, w), p=[0.9, 0.1])
    # a small repeated tile: exact cost ties at multiples of its period
    ty, tx = rng.integers(1, 4, size=2)
    tile = rng.integers(0, 256, (ty, tx), dtype=np.uint8)
    return np.tile(tile, (h // ty + 1, w // tx + 1))[:h, :w]


@st.composite
def frame_pairs(draw):
    """(anchor luma, target luma, block size, rng) with at least one block."""
    bs = draw(st.integers(2, 16))
    h = draw(st.integers(bs, 3 * bs + 5))
    w = draw(st.integers(bs, 3 * bs + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = _luma(rng, h, w, draw(st.sampled_from(CONTENT)))
    if draw(st.booleans()):
        target = _luma(rng, h, w, draw(st.sampled_from(CONTENT)))
    else:
        # a shifted copy of the anchor, so a true match exists somewhere
        sx, sy = (int(v) for v in rng.integers(-3, 4, size=2))
        target = np.roll(anchor, (sy, sx), axis=(0, 1))
    return anchor, target, bs, rng


def reference_es(cost: BlockCost):
    """The scalar ES scan: every displacement of the box through
    BlockCost.__call__, in raster order, keeping the candidate_key minimum."""
    dx_min, dx_max, dy_min, dy_max = cost.bounds
    return _best_over(
        cost, ((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in range(dx_min, dx_max + 1))
    )


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def reference_pso_match(cost, pattern_positions, seed_candidates, config, rng, trace):
    """The scalar swarm: per-particle, per-dimension loops and two scalar
    rng.random() draws per particle and dimension."""
    gbest_key = None
    gbest = None
    for cand in seed_candidates:
        c = cost.clamp(cand)
        k = candidate_key(cost(c), c)
        if gbest_key is None or k < gbest_key:
            gbest_key, gbest = k, c

    n = config.particles
    starts = [cost.clamp(pattern_positions[i % len(pattern_positions)]) for i in range(n)]
    pos = np.array(starts, dtype=np.float64)
    vel = np.zeros((n, 2), dtype=np.float64)
    pbest = np.zeros((n, 2), dtype=np.float64)
    pbest_key = [None] * n

    for t in range(config.iterations):
        for i in range(n):
            q = cost.clamp((_round_half_away(pos[i, 0]), _round_half_away(pos[i, 1])))
            k = candidate_key(cost(q), q)
            if pbest_key[i] is None or k < pbest_key[i]:
                pbest_key[i] = k
                pbest[i] = q
        for i in range(n):
            if gbest_key is None or pbest_key[i] < gbest_key:
                gbest_key = pbest_key[i]
                gbest = (int(pbest[i, 0]), int(pbest[i, 1]))
        w = inertia_weight(t, config.iterations, config.w_start, config.w_end)
        for i in range(n):
            for dim in range(2):
                r1 = rng.random()
                r2 = rng.random()
                v = (
                    w * vel[i, dim]
                    + config.c1 * r1 * (pbest[i, dim] - pos[i, dim])
                    + config.c2 * r2 * (gbest[dim] - pos[i, dim])
                )
                vel[i, dim] = min(max(v, -config.v_max), config.v_max)
            pos[i] += vel[i]
        trace.append(
            {
                "iteration": t,
                "w": w,
                "velocities": vel.copy(),
                "positions": pos.copy(),
                "gbest": gbest,
                "gbest_cost": gbest_key[0],
            }
        )
    return gbest


def reference_compensate(anchor: Frame, field: MotionField) -> np.ndarray:
    """Per-block copy loop, raising on the first illegal block in raster order."""
    bs = field.grid.block_size
    out = anchor.luma.copy()
    for row in range(field.grid.rows):
        for col in range(field.grid.cols):
            x, y = col * bs, row * bs
            dx, dy = field.vector(row, col)
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.width, anchor.height, (x, y), bs)
            if not (dx_min <= dx <= dx_max and dy_min <= dy <= dy_max):
                raise ValueError(f"block ({col},{row}) carries illegal vector ({dx},{dy})")
            out[y : y + bs, x : x + bs] = anchor.luma[y + dy : y + dy + bs, x + dx : x + dx + bs]
    return out


@settings(max_examples=150, deadline=None)
@given(
    pair=frame_pairs(),
    p=st.one_of(st.none(), st.integers(1, 8)),
    dtype=st.sampled_from([np.int16, np.int32]),
    data=st.data(),
)
def test_es_equals_scalar_reference(pair, p, dtype, data):
    anchor, target, bs, _ = pair
    grid = BlockGrid.for_frame(Frame(anchor), bs)
    origin = block_origin(grid, data.draw(st.integers(0, grid.n_blocks - 1)))
    window = None if p is None else (-p, p, -p, p)  # None: the whole frame

    def make_cost():
        counter = EvalCounter()
        return BlockCost(anchor.astype(dtype), target.astype(dtype), origin, bs, counter, window), counter

    cost, counter = make_cost()
    ref_cost, ref_counter = make_cost()
    assert es_search(cost) == reference_es(ref_cost)

    dx_min, dx_max, dy_min, dy_max = cost.bounds
    area = (dx_max - dx_min + 1) * (dy_max - dy_min + 1)
    assert counter.evals == len(counter.memo) == area == ref_counter.evals
    assert counter.memo == ref_counter.memo
    x, y = origin
    tgt = target[y : y + bs, x : x + bs]
    for (dx, dy), c in counter.memo.items():
        assert type(c) is int
        assert c == sad_sum(tgt, anchor[y + dy : y + dy + bs, x + dx : x + dx + bs])


@settings(max_examples=150, deadline=None)
@given(pair=frame_pairs(), n_illegal=st.integers(0, 2))
def test_compensate_equals_per_block_reference(pair, n_illegal):
    anchor_luma, _, bs, rng = pair
    anchor = Frame(anchor_luma)
    field = MotionField.empty(BlockGrid.for_frame(anchor, bs))
    for row in range(field.grid.rows):
        for col in range(field.grid.cols):
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(
                anchor.width, anchor.height, (col * bs, row * bs), bs
            )
            field.vectors[row, col] = (rng.integers(dx_min, dx_max + 1), rng.integers(dy_min, dy_max + 1))
    for _ in range(n_illegal):
        row, col = (int(rng.integers(0, n)) for n in (field.grid.rows, field.grid.cols))
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(
            anchor.width, anchor.height, (col * bs, row * bs), bs
        )
        field.vectors[row, col] = rng.choice(
            [(dx_min - 1, 0), (dx_max + 1, 0), (0, dy_min - 1), (0, dy_max + 1)]
        )

    try:
        expected = reference_compensate(anchor, field)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            compensate(anchor, field)
        assert str(got.value) == str(e)
    else:
        assert (compensate(anchor, field).frame.luma == expected).all()


@st.composite
def swarm_configs(draw):
    w_start = draw(st.floats(0, 1.5))
    return PsoConfig(
        particles=draw(st.integers(1, 12)),
        iterations=draw(st.integers(1, 6)),
        w_start=w_start,
        w_end=draw(st.floats(0, w_start)),
        c1=draw(st.floats(0, 8)),
        c2=draw(st.floats(0, 8)),
        v_max=draw(st.floats(0.1, 12)),
    )


@settings(max_examples=200, deadline=None)
@given(
    pair=frame_pairs(),
    config=swarm_configs(),
    p=st.one_of(st.none(), st.integers(1, 8)),
    data=st.data(),
)
def test_swarm_equals_scalar_reference(pair, config, p, data):
    anchor, target, bs, _ = pair
    h, w = anchor.shape
    # corners and edges of the frame as often as anywhere inside it
    x = data.draw(st.one_of(st.just(0), st.just(w - bs), st.integers(0, w - bs)))
    y = data.draw(st.one_of(st.just(0), st.just(h - bs), st.integers(0, h - bs)))
    window = None if p is None else (-p, p, -p, p)
    center = data.draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    pattern = init_pattern(data.draw(st.sampled_from("ABCD")), center)
    pattern = pattern[: data.draw(st.integers(1, len(pattern)))]
    seeds = data.draw(
        st.sampled_from([(), ((0, 0),), ((0, 0), center), (center, (0, 0))])
    )
    stream = data.draw(st.integers(0, 2**32 - 1))

    runs = []
    for match in (pso_match, reference_pso_match):
        counter = EvalCounter()
        cost = BlockCost(anchor.astype(np.int16), target.astype(np.int16), (x, y), bs, counter, window)
        rng = np.random.Generator(np.random.PCG64(stream))
        trace = []
        runs.append((match(cost, pattern, seeds, config, rng, trace), counter, rng, trace))
    (mv, counter, rng, trace), (ref_mv, ref_counter, ref_rng, ref_trace) = runs

    assert mv == ref_mv
    assert list(counter.memo.items()) == list(ref_counter.memo.items())  # same points, same order
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(trace) == len(ref_trace) == config.iterations
    for step, ref in zip(trace, ref_trace):
        for key in ("iteration", "w", "gbest", "gbest_cost"):
            assert step[key] == ref[key]
        for key in ("velocities", "positions"):
            assert step[key].dtype == ref[key].dtype and step[key].shape == ref[key].shape
            assert step[key].tobytes() == ref[key].tobytes()  # bit-equal, signed zeros included


@settings(max_examples=100, deadline=None)
@given(
    pair=frame_pairs(),
    algorithm=st.sampled_from(ALGORITHMS),
    p=st.integers(1, 8),
    threshold=st.one_of(st.just(0.0), st.just(1e9), st.floats(0, 64)),
    arps_raw_threshold=st.booleans(),
    ds_zmp=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_estimate_invariants(pair, algorithm, p, threshold, arps_raw_threshold, ds_zmp, seed):
    anchor, target, bs, _ = pair
    config = EstimatorConfig(
        block_size=bs,
        search_param=p,
        zmp_threshold=threshold,
        arps_raw_threshold=arps_raw_threshold,
        ds_zmp=ds_zmp,
    )
    cut = config.static_cut(algorithm)
    field = estimate(algorithm, Frame(anchor), Frame(target), config, seed=seed, keep_memos=True)
    grid = field.grid
    assert (grid.cols, grid.rows) == (anchor.shape[1] // bs, anchor.shape[0] // bs)
    for index, memo in enumerate(field.memos):
        row, col = divmod(index, grid.cols)
        x, y = block_origin(grid, index)
        dx, dy = field.vector(row, col)
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.shape[1], anchor.shape[0], (x, y), bs)
        assert dx_min <= dx <= dx_max and dy_min <= dy <= dy_max
        if algorithm != "pso-zmp":  # the pattern searches also stay in the window
            assert max(abs(dx), abs(dy)) <= p
        assert field.evals_per_block[row, col] == len(memo)
        assert (dx, dy) in memo
        colocated = sad_sum(target[y : y + bs, x : x + bs], anchor[y : y + bs, x : x + bs])
        static = cut is not None and colocated < cut
        assert bool(field.static_flags[row, col]) == static
        if static:
            assert (dx, dy) == (0, 0) and memo == {(0, 0): colocated}
