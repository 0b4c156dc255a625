"""Decoder-side reconstruction: rebuild the target frame from the anchor
frame and a motion field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import BlockGrid, displacement_bounds
from .estimators import MotionField
from .video_io import Frame


@dataclass(frozen=True)
class CompensatedFrame:
    frame: Frame


def compensate(anchor: Frame, field: MotionField) -> CompensatedFrame:
    """Copy each block from its displaced anchor position; pixels outside the
    block tiling (right/bottom remainders) are copied co-located."""
    grid = field.grid
    if grid != BlockGrid.for_frame(anchor, grid.block_size):
        raise ValueError(
            f"field holds {grid.cols}x{grid.rows} blocks of {grid.block_size}, "
            f"which do not tile the {anchor.width}x{anchor.height} frame"
        )
    bs = grid.block_size
    ys, xs = np.indices((grid.rows, grid.cols)) * bs
    dx, dy = field.vectors[..., 0], field.vectors[..., 1]
    dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.width, anchor.height, (xs, ys), bs)
    illegal = (dx < dx_min) | (dx > dx_max) | (dy < dy_min) | (dy > dy_max)
    if illegal.any():
        row, col = np.argwhere(illegal)[0]  # the first in raster order
        raise ValueError(
            f"block ({col},{row}) carries illegal vector ({dx[row, col]},{dy[row, col]})"
        )
    out = anchor.luma.copy()  # margins keep the co-located anchor pixels
    grid.tiles(out)[...] = sliding_window_view(anchor.luma, (bs, bs))[ys + dy, xs + dx]
    return CompensatedFrame(Frame(out))
