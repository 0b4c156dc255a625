"""Decoder-side reconstruction: rebuild the target frame from the anchor
frame and a motion field."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockGrid, displacement_bounds
from .estimators import MotionField
from .video_io import Frame


@dataclass(frozen=True)
class CompensatedFrame:
    frame: Frame
    source_field: MotionField


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
    out = anchor.luma.copy()  # margins keep the co-located anchor pixels
    for row in range(grid.rows):
        for col in range(grid.cols):
            x, y = col * bs, row * bs
            dx, dy = field.vector(row, col)
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(
                anchor.width, anchor.height, (x, y), bs
            )
            if not (dx_min <= dx <= dx_max and dy_min <= dy <= dy_max):
                raise ValueError(
                    f"block ({col},{row}) carries illegal vector ({dx},{dy})"
                )
            out[y : y + bs, x : x + bs] = anchor.luma[y + dy : y + dy + bs, x + dx : x + dx + bs]
    return CompensatedFrame(Frame(out), field)
