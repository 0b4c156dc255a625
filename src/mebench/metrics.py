"""Matching cost and reconstruction quality metrics.

BlockCost is the memoized per-block cost oracle: the pattern and swarm
searches query it one displacement at a time, and ES fills its whole window
in one array op (box_sums), memo and evaluation count included.

Cost convention: every cost is the raw integer sum of absolute differences,
so comparisons stay exact. The static-block threshold is given in sum/N
units (N the block side); EstimatorConfig.static_cut is the one place that
converts it to a raw-sum cut, and `estimate` prejudges a whole frame against
it in one array op, so static blocks never reach a BlockCost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import MotionVector, displacement_bounds
from .video_io import Frame, Sequence

# Reported in place of an infinite PSNR (zero MSE); far above the ~40 dB
# "excellent" band, so averages are not distorted.
PSNR_CAP_DB = 100.0


def sad_sum(a: np.ndarray, b: np.ndarray) -> int:
    """Raw sum of absolute differences between two equal-sized blocks."""
    if a.shape != b.shape:
        raise ValueError(f"block shapes differ: {a.shape} vs {b.shape}")
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


class EvalCounter:
    """Per-block ledger of distinct cost evaluations.

    memo maps each clamped displacement to its raw SAD sum; re-querying a
    memoized displacement is free and does not count as new work. A given
    memo is used in place, entries already in it included.
    """

    def __init__(self, memo: dict[MotionVector, int] | None = None):
        self.memo: dict[MotionVector, int] = {} if memo is None else memo

    @property
    def evals(self) -> int:
        return len(self.memo)


class BlockCost:
    """Memoized cost oracle d -> raw SAD sum for one target block.

    anchor/target are full-frame signed integer arrays (int16 holds every
    difference of two 8-bit pixels); origin is the block's top-left
    corner in the target frame. Candidate blocks are read from the anchor at
    origin + d, which must stay inside the frame (frame_bounds, from
    displacement_bounds). An optional window (dx_min, dx_max, dy_min, dy_max)
    further restricts `bounds`, the box that `legal` and `clamp` use.
    """

    def __init__(
        self,
        anchor: np.ndarray,
        target: np.ndarray,
        origin: tuple[int, int],
        block_size: int,
        counter: EvalCounter,
        window: tuple[int, int, int, int] | None = None,
    ):
        self.x, self.y = origin
        self.block_size = block_size
        self.anchor = anchor
        self.tgt = target[self.y : self.y + block_size, self.x : self.x + block_size]
        self.counter = counter
        h, w = anchor.shape
        self.frame_bounds = displacement_bounds(w, h, origin, block_size)
        dx_min, dx_max, dy_min, dy_max = self.frame_bounds
        if window is not None:
            dx_min, dx_max = max(dx_min, window[0]), min(dx_max, window[1])
            dy_min, dy_max = max(dy_min, window[2]), min(dy_max, window[3])
        self.bounds = (dx_min, dx_max, dy_min, dy_max)

    def legal(self, d: MotionVector) -> bool:
        dx_min, dx_max, dy_min, dy_max = self.bounds
        return dx_min <= d[0] <= dx_max and dy_min <= d[1] <= dy_max

    def clamp(self, d: MotionVector) -> MotionVector:
        dx_min, dx_max, dy_min, dy_max = self.bounds
        return (min(max(d[0], dx_min), dx_max), min(max(d[1], dy_min), dy_max))

    def __call__(self, d: MotionVector) -> int:
        c = self.counter.memo.get(d)
        if c is None:
            dx_min, dx_max, dy_min, dy_max = self.frame_bounds
            if not (dx_min <= d[0] <= dx_max and dy_min <= d[1] <= dy_max):
                raise ValueError(
                    f"displacement {d} leaves the frame for block at ({self.x},{self.y})"
                )
            bs = self.block_size
            cx, cy = self.x + d[0], self.y + d[1]
            c = int(np.abs(self.tgt - self.anchor[cy : cy + bs, cx : cx + bs]).sum())
            self.counter.memo[d] = c
        return c

    def box_sums(self) -> np.ndarray:
        """Raw SAD sum of every displacement in `bounds`, as a (dy, dx) array
        whose [0, 0] is (dx_min, dy_min). Every displacement is memoized, so
        it counts as one evaluation, as if each had been queried."""
        dx_min, dx_max, dy_min, dy_max = self.bounds
        bs = self.block_size
        region = self.anchor[
            self.y + dy_min : self.y + dy_max + bs, self.x + dx_min : self.x + dx_max + bs
        ]
        sums = np.abs(sliding_window_view(region, (bs, bs)) - self.tgt).sum(axis=(2, 3))
        dxs = range(dx_min, dx_max + 1)
        self.counter.memo.update(
            zip(((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in dxs), sums.ravel().tolist())
        )
        return sums


def sad_at(
    counter: EvalCounter,
    anchor: Frame,
    target: Frame,
    origin: tuple[int, int],
    d: MotionVector,
    block_size: int,
) -> int:
    """Memoized raw SAD sum between the target block at origin and the anchor
    block at origin + d. Counts one evaluation only when d is new."""
    cost = BlockCost(
        anchor.luma.astype(np.int32),
        target.luma.astype(np.int32),
        origin,
        block_size,
        counter,
    )
    return cost(d)


def candidate_key(cost: int, d: MotionVector) -> tuple[int, int, int, int]:
    """Total order on search candidates: lowest cost first, then the
    center-biased tie-break (smaller |dx|+|dy|, then raster order of (dy, dx))."""
    return (cost, abs(d[0]) + abs(d[1]), d[1], d[0])


@dataclass
class PsnrReport:
    """Per-frame PSNR values plus their arithmetic mean, in dB."""

    per_frame_db: list[float] = field(default_factory=list)

    @property
    def mean_db(self) -> float:
        return float(np.mean(self.per_frame_db))


def frame_mse(a: Frame, b: Frame) -> float:
    if a.luma.shape != b.luma.shape:
        raise ValueError(f"frame shapes differ: {a.luma.shape} vs {b.luma.shape}")
    # exact in float64; at QCIF each int32 temporary stays under glibc's 128 KiB mmap threshold
    diff = a.luma.astype(np.int32) - b.luma.astype(np.int32)
    return float(np.mean(diff * diff))


def frame_psnr(a: Frame, b: Frame) -> float:
    """PSNR between two frames in dB: 10*log10(255^2 / MSE), capped when MSE=0."""
    mse = frame_mse(a, b)
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(float(10.0 * np.log10(255.0 * 255.0 / mse)), PSNR_CAP_DB)


def psnr(original: Sequence, compensated: Sequence) -> PsnrReport:
    """Per-frame PSNR of compensated vs original."""
    if original.width != compensated.width or original.height != compensated.height:
        raise ValueError(
            f"sequences differ in size: {original.width}x{original.height} vs "
            f"{compensated.width}x{compensated.height}"
        )
    if len(original) != len(compensated):
        raise ValueError(f"sequences differ in length: {len(original)} vs {len(compensated)}")
    return PsnrReport([frame_psnr(a, b) for a, b in zip(original.frames, compensated.frames)])
