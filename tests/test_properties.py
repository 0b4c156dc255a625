"""Differential properties of the array fast paths against small scalar
references: ES's one-op window (BlockCost.box_sums) against a raster scan of
single BlockCost queries, and compensate's one gather against a per-block
copy loop. Frames are random, flat or tie-heavy; windows are interior,
edge-clipped and corner-clipped."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebench import (
    BlockGrid,
    EvalCounter,
    Frame,
    MotionField,
    block_origin,
    compensate,
    es_search,
    sad_sum,
)
from mebench.blocks import displacement_bounds
from mebench.estimators import _best_over
from mebench.metrics import BlockCost

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
