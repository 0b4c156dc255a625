"""Macroblock partition of a frame and the frame-legal displacement box.

A motion vector (dx, dy) names where a block's content sits in the anchor
frame: the block at origin (x, y) in the target frame matches the anchor
pixels at (x + dx, y + dy). Compensation reads anchor[y+dy : , x+dx : ].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .video_io import Frame

# Integer pixel displacement (dx, dy).
MotionVector = tuple[int, int]

# The largest block side whose raw sum of 8-bit absolute differences fits
# int32, the accumulator of metrics.sad_sums: 255 * 2901**2 < 2**31 < 255 * 2902**2.
MAX_BLOCK_SIZE = 2901


def check_integer(name: str, value) -> None:
    """Reject a non-integral value of an integer setting: 16.0 or 2.5 would
    pass a range check and fail later, as a bare TypeError, as a slice
    bound or an array shape."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_block_size(block_size: int) -> None:
    """Reject a block side that cannot tile a frame (checked before any
    division), or whose raw SAD sum could pass int32 (MAX_BLOCK_SIZE)."""
    check_integer("block_size", block_size)
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(
            f"block_size must be <= {MAX_BLOCK_SIZE}, the largest side whose raw SAD sum fits int32, "
            f"got {block_size}"
        )


@dataclass(frozen=True)
class BlockGrid:
    """Non-overlapping block_size x block_size tiling of a frame's top-left region."""

    block_size: int
    cols: int
    rows: int

    def __post_init__(self):
        check_block_size(self.block_size)
        if self.cols < 1 or self.rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.cols}x{self.rows}")

    @classmethod
    def for_frame(cls, frame: Frame, block_size: int = 16) -> "BlockGrid":
        check_block_size(block_size)
        cols, rows = frame.width // block_size, frame.height // block_size
        if cols < 1 or rows < 1:
            raise ValueError(
                f"{frame.width}x{frame.height} frame is smaller than one "
                f"{block_size}x{block_size} block"
            )
        return cls(block_size, cols, rows)

    @property
    def n_blocks(self) -> int:
        return self.rows * self.cols

    def tiles(self, plane: np.ndarray) -> np.ndarray:
        """The tiled region of a frame-sized array as a (rows, cols, side, side)
        view: [r, c] is block r * cols + c, and writes through it reach the array."""
        bs, rows, cols = self.block_size, self.rows, self.cols
        return plane[: rows * bs, : cols * bs].reshape(rows, bs, cols, bs).swapaxes(1, 2)


def block_origin(grid: BlockGrid, index: int) -> tuple[int, int]:
    """Top-left pixel (x, y) of block `index`, raster order."""
    if not 0 <= index < grid.n_blocks:
        raise ValueError(f"block index {index} out of range [0, {grid.n_blocks})")
    return (grid.block_size * (index % grid.cols), grid.block_size * (index // grid.cols))


def displacement_bounds(
    width: int, height: int, origin: tuple[int, int], block_size: int
) -> tuple[int, int, int, int]:
    """(dx_min, dx_max, dy_min, dy_max) keeping the displaced block inside the
    frame. The origin's x and y may be arrays, one box per element."""
    x, y = origin
    return (-x, width - block_size - x, -y, height - block_size - y)


def clamp_displacement(
    grid: BlockGrid, frame: Frame, origin: tuple[int, int], d: MotionVector
) -> MotionVector:
    """Component-wise clamp of d to the nearest displacement that keeps the
    block at `origin` fully inside the frame. Idempotent."""
    dx_min, dx_max, dy_min, dy_max = displacement_bounds(
        frame.width, frame.height, origin, grid.block_size
    )
    dx = min(max(d[0], dx_min), dx_max)
    dy = min(max(d[1], dy_min), dy_max)
    return (dx, dy)

