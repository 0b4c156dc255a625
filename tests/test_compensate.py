import numpy as np
import pytest

from mebench import (
    BlockGrid,
    EstimatorConfig,
    MotionField,
    compensate,
    estimate,
    frame_psnr,
)

from conftest import noise_frame, shifted_pair


def test_zero_field_is_identity():
    anchor = noise_frame(48, 64, 0)
    grid = BlockGrid.for_frame(anchor)
    field = MotionField.empty(grid)
    out = compensate(anchor, field)
    assert (out.frame.luma == anchor.luma).all()


def test_uniform_field_reconstructs_shifted_target_on_tiled_region():
    # 84x68 leaves a 4-pixel margin, so a uniform (2, 2) field is legal everywhere
    anchor, target = shifted_pair(68, 84, (2, 2), seed=1)
    grid = BlockGrid.for_frame(anchor)
    assert (grid.cols, grid.rows) == (5, 4)
    field = MotionField.empty(grid)
    field.vectors[..., 0] = 2
    field.vectors[..., 1] = 2
    out = compensate(anchor, field)
    th, tw = grid.rows * 16, grid.cols * 16
    assert (out.frame.luma[:th, :tw] == target.luma[:th, :tw]).all()


def test_margins_copied_from_anchor():
    anchor, target = shifted_pair(68, 84, (2, 2), seed=2)
    grid = BlockGrid.for_frame(anchor)
    field = MotionField.empty(grid)
    field.vectors[..., 0] = 2
    field.vectors[..., 1] = 2
    out = compensate(anchor, field)
    th, tw = grid.rows * 16, grid.cols * 16
    assert (out.frame.luma[th:, :] == anchor.luma[th:, :]).all()
    assert (out.frame.luma[:, tw:] == anchor.luma[:, tw:]).all()


def test_locality_of_single_vector_change():
    anchor = noise_frame(48, 64, 3)
    grid = BlockGrid.for_frame(anchor)
    base = MotionField.empty(grid)
    out_a = compensate(anchor, base).frame.luma
    changed = MotionField.empty(grid)
    changed.vectors[1, 2] = (3, -2)
    out_b = compensate(anchor, changed).frame.luma
    diff = out_a != out_b
    diff_outside = diff.copy()
    diff_outside[16:32, 32:48] = False
    assert not diff_outside.any()


def test_illegal_vector_rejected():
    anchor = noise_frame(48, 64, 4)
    grid = BlockGrid.for_frame(anchor)
    field = MotionField.empty(grid)
    field.vectors[0, 0] = (-1, 0)  # would read left of the frame
    with pytest.raises(ValueError, match="illegal vector"):
        compensate(anchor, field)


def test_grid_mismatch_rejected():
    # a 2x2 field on a frame tiled 4x3 would leave half the blocks uncompensated
    anchor = noise_frame(48, 64, 5)
    field = MotionField.empty(BlockGrid(16, 2, 2))
    with pytest.raises(ValueError, match="2x2 blocks of 16.*64x48 frame"):
        compensate(anchor, field)


def test_frame_smaller_than_the_field_block_rejected():
    anchor = noise_frame(8, 8, 5)
    field = MotionField.empty(BlockGrid(16, 1, 1))
    with pytest.raises(ValueError, match="1x1 blocks of 16, which do not tile the 8x8 frame"):
        compensate(anchor, field)


def test_es_compensation_improves_on_anchor():
    # piecewise motion: left half shifted (2,1), right half shifted (-1,-2)
    left_a, left_t = shifted_pair(96, 64, (2, 1), seed=6)
    right_a, right_t = shifted_pair(96, 64, (-1, -2), seed=7)
    anchor_luma = np.concatenate([left_a.luma, right_a.luma], axis=1)
    target_luma = np.concatenate([left_t.luma, right_t.luma], axis=1)
    anchor = type(left_a)(anchor_luma)
    target = type(left_a)(target_luma)
    field = estimate("es", anchor, target, EstimatorConfig())
    out = compensate(anchor, field)
    assert frame_psnr(target, out.frame) >= frame_psnr(target, anchor)
