"""Matching cost and reconstruction quality metrics.

BlockCost is the memoized per-block cost oracle: ARPS queries it one
displacement at a time, and ES queries its co-located point and scores its
whole window into the memo (BlockCost.score_box) only when the memos are
kept (keep_memos), every oracle reading one anchor_windows view per frame
pair, as PairCost does. EvalCounter is the block's ledger: a memo dict and
its count of distinct displacements. PairCost scores many (block,
displacement) pairs of one frame pair in one gather, for the lockstep
diamond search and the column-wavefront swarm; its memo records the distinct
ones. candidate_key is the one order on candidates: ARPS compares its
tuples, and CandidateKeys ranks the array paths' candidates, ES's included,
as int64 keys that order exactly as it does. sad_sums is the one place where
a strided window difference is reduced: ES's survivors and scored windows,
the pair gather (PairCost.rank) and `estimate`'s prejudgment all sum through
it, in int32, and get int64 sums back; a block side whose raw sum could pass
int32 is refused (blocks.MAX_BLOCK_SIZE).

Cost convention: every cost is the raw integer sum of absolute differences,
so comparisons stay exact. The static-block threshold is given in sum/N
units (N the block side); EstimatorConfig.static_cut is the one place that
converts it to a raw-sum cut, and `estimate` prejudges a whole frame against
it in one array op, so static blocks never reach a cost oracle.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import MAX_BLOCK_SIZE, MotionVector, check_block_size, displacement_bounds
from .video_io import Frame, Sequence

# Reported in place of an infinite PSNR (zero MSE); far above the ~40 dB
# "excellent" band, so averages are not distorted.
PSNR_CAP_DB = 100.0


def anchor_windows(anchor: np.ndarray, block_size: int) -> np.ndarray:
    """A plane's block windows as one read-only view, [y, x] the block at (x, y); a view passes as is."""
    return anchor if anchor.ndim == 4 else sliding_window_view(anchor, (block_size, block_size))


def sad_sum(a: np.ndarray, b: np.ndarray) -> int:
    """Raw sum of absolute differences between two equal-sized blocks."""
    if a.shape != b.shape:
        raise ValueError(f"block shapes differ: {a.shape} vs {b.shape}")
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def sad_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw SAD sums over the last two axes of signed integer arrays a and b,
    which broadcast together over the rest.

    A window or tile view keeps its parent's strides, so a difference taken
    the plain way inherits them, and summing each block of it walks the
    frame's rows apart. The difference is written in C order instead, its
    abs taken in place, and each block summed as one flat axis in an int32
    accumulator, which a block of 8-bit pixels cannot overflow up to side
    MAX_BLOCK_SIZE; a larger side is refused. The sums are returned as
    int64, so no caller's arithmetic on them wraps. No candidates give an
    empty result.
    """
    diff = np.subtract(a, b, order="C")
    *lead, side, width = diff.shape
    if max(side, width) > MAX_BLOCK_SIZE:
        check_block_size(max(side, width))
    np.abs(diff, out=diff)
    return diff.reshape(*lead, side * width).sum(axis=-1, dtype=np.int32).astype(np.int64)


class EvalCounter:
    """Per-block ledger of distinct cost evaluations.

    memo maps each clamped displacement to its raw SAD sum, in first-query
    order; re-querying a memoized displacement is free and does not count as
    new work. A given memo dict is used in place, entries already in it
    included. evals counts the distinct displacements.
    """

    def __init__(self, memo: dict[MotionVector, int] | None = None):
        self.memo: dict[MotionVector, int] = {} if memo is None else memo

    @property
    def evals(self) -> int:
        return len(self.memo)


class BlockCost:
    """Memoized cost oracle d -> raw SAD sum for one target block.

    anchor/target are full-frame signed integer arrays (int16 holds every
    difference of two 8-bit pixels), the anchor maybe as its anchor_windows
    view; origin is the block's top-left corner, and d reads the anchor window
    at origin + d. `bounds`, the one box of legal queries, is the frame's
    (displacement_bounds) cut to an optional window (dx_min, dx_max, dy_min,
    dy_max); `legal` is the one test against it, and a query it refuses raises.
    A query reads and fills counter.memo."""

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
        self.windows = anchor_windows(anchor, block_size)
        self.tgt = target[self.y : self.y + block_size, self.x : self.x + block_size]
        self.counter = counter
        self.height, self.width = target.shape
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(self.width, self.height, origin, block_size)
        if window is not None:
            dx_min, dx_max = max(dx_min, window[0]), min(dx_max, window[1])
            dy_min, dy_max = max(dy_min, window[2]), min(dy_max, window[3])
        self.bounds = (dx_min, dx_max, dy_min, dy_max)

    def legal(self, d: MotionVector) -> bool:
        dx_min, dx_max, dy_min, dy_max = self.bounds
        return dx_min <= d[0] <= dx_max and dy_min <= d[1] <= dy_max

    def __call__(self, d: MotionVector) -> int:
        memo = self.counter.memo
        c = memo.get(d)
        if c is None:
            if not self.legal(d):
                raise ValueError(
                    f"displacement {d} leaves the frame or the window of block at ({self.x},{self.y}), "
                    f"box {self.bounds}"
                )
            c = int(np.abs(self.tgt - self.windows[self.y + d[1], self.x + d[0]]).sum())
            memo[d] = c
        return c

    def score_box(self) -> np.ndarray:
        """Score every displacement in `bounds` in one gather (sad_sums) into
        counter.memo, in (dy, dx) raster order after the entries already
        there (a key already present keeps its place), and return the raw
        sums as a (dy, dx) array whose [0, 0] is (dx_min, dy_min)."""
        dx_min, dx_max, dy_min, dy_max = self.bounds
        x, y = self.x, self.y
        sums = sad_sums(self.windows[y + dy_min : y + dy_max + 1, x + dx_min : x + dx_max + 1], self.tgt)
        dxs = range(dx_min, dx_max + 1)
        keys = ((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in dxs)
        self.counter.memo.update(zip(keys, sums.ravel().tolist()))
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
    anc, tgt = anchor.luma.astype(np.int16), target.luma.astype(np.int16)
    return BlockCost(anc, tgt, origin, block_size, counter)(d)


def candidate_key(cost: int, d: MotionVector) -> tuple[int, int, int, int]:
    """Total order on search candidates: lowest cost first, then the
    center-biased tie-break (smaller |dx|+|dy|, then raster order of (dy, dx))."""
    return (cost, abs(d[0]) + abs(d[1]), d[1], d[0])


INT64_MAX = np.iinfo(np.int64).max  # ranks after every candidate key: no candidate yet


class CandidateKeys:
    """candidate_key as one int64 per candidate, for the matchers' array paths.

    A displacement d of the block whose top-left pixel has raster index
    `corner` in a `width` x `height` frame reads the anchor window at index
    at = corner + dy * width + dx, which grows with d in candidate_key's
    (dy, dx) order. In a frame of 8-bit pixels |dx| + |dy| stays below
    l1_span and a cost is at most 255 * block_size**2, so for one block

        key = (cost * l1_span + |dx| + |dy|) * area + at

    orders candidates exactly as candidate_key does; keys of different
    blocks do not compare. A PairCost memo key is block * area + at. Both
    ranges must fit int64, else ValueError.
    """

    def __init__(self, width: int, height: int, block_size: int):
        self.width, self.area = width, width * height
        self.l1_span = (width - block_size) + (height - block_size) + 1
        self.unit = self.l1_span * self.area  # one unit of cost in key units
        self._step = np.array([1, width])  # d @ _step is dy * width + dx
        blocks = (width // block_size) * (height // block_size)
        if max((255 * block_size * block_size + 1) * self.l1_span, blocks) * self.area > INT64_MAX:
            raise ValueError(
                f"candidate keys of a {width}x{height} frame with {block_size}x{block_size} "
                f"blocks overflow int64"
            )

    def at(self, corner, d):
        """Raster index of the anchor window that displacements d (..., 2)
        of the block at `corner` read."""
        return corner + d @ self._step

    def encode(self, costs, d, at):
        """Keys of the candidates with raw costs `costs`, displacements d
        (..., 2) and anchor windows `at`, elementwise."""
        return costs * self.unit + self.ties(np.abs(d).sum(-1), at)

    def ties(self, l1, at):
        """The keys at zero cost of candidates with |dx| + |dy| = l1 reading
        anchor windows `at`: a key is its cost times `unit` plus this."""
        return l1 * self.area + at

    def cost(self, key) -> int:
        """The raw cost a key was encoded from."""
        return int(key) // self.unit


class PairCost:
    """Costs of many (block, displacement) pairs of one frame pair.

    anchor/target are the pair's int16 frames, the anchor maybe as its
    anchor_windows view, and grid their block tiling. `rank` takes block indices
    (raster order) and frame-legal displacements, arrays that broadcast
    together, scores every pair, repeats included, in one gather (sad_sums) from
    the anchor windows, and returns their candidate keys. The memo is a record
    that rank never reads: one dict of every distinct cost under block * area +
    at (see CandidateKeys) in first-query order, within a call in array order,
    so each block's entries keep the order a BlockCost memo would give them.
    """

    def __init__(self, anchor: np.ndarray, target: np.ndarray, grid):
        bs, rows, cols = grid.block_size, grid.rows, grid.cols
        self.height, self.width = target.shape
        self.grid = grid
        self.keys = CandidateKeys(self.width, self.height, bs)
        self._windows = anchor_windows(anchor, bs)
        self._tiles = grid.tiles(target).reshape(rows * cols, bs, bs)
        index = np.arange(rows * cols)
        self.x, self.y = index % cols * bs, index // cols * bs
        self._corner = self.y * self.width + self.x
        self.memo: dict[int, int] = {}

    def bounds(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frame-legal (dx, dy) minima and maxima of the blocks, each (k, 2)."""
        origin = (self.x[blocks], self.y[blocks])
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(self.width, self.height, origin, self.grid.block_size)
        return np.stack((dx_min, dy_min), 1), np.stack((dx_max, dy_max), 1)

    def rank(self, blocks: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The candidate keys (CandidateKeys.encode) of displacements d
        (..., 2) of the blocks, every one scored in one gather, repeats
        included, and recorded in the memo."""
        at = self.keys.at(self._corner[blocks], d)
        row, col = np.divmod(at, self.width)
        costs = sad_sums(self._windows[row, col], self._tiles[blocks])
        keys = blocks * self.keys.area + at
        self.memo.update(zip(keys.ravel().tolist(), costs.ravel().tolist()))
        return self.keys.encode(costs, d, at)

    def evals(self) -> np.ndarray:
        """Distinct displacements memoized per block, raster order."""
        blocks = np.fromiter(self.memo, dtype=np.int64, count=len(self.memo)) // self.keys.area
        return np.bincount(blocks, minlength=self.grid.n_blocks)

    def fill(self, memos: list[dict[MotionVector, int]]) -> None:
        """Add each block's memo entries to memos[block], in first-query order."""
        x, y = self.x.tolist(), self.y.tolist()
        for key, cost in self.memo.items():
            block, at = divmod(key, self.keys.area)
            row, col = divmod(at, self.width)
            memos[block][(col - x[block], row - y[block])] = cost


def frame_psnr(a: Frame, b: Frame) -> float:
    """PSNR between two frames in dB: 10*log10(255^2 / MSE), capped when MSE=0."""
    if a.luma.shape != b.luma.shape:
        raise ValueError(f"frame shapes differ: {a.luma.shape} vs {b.luma.shape}")
    # exact in float64; at QCIF each int32 temporary stays under glibc's 128 KiB mmap threshold
    diff = a.luma.astype(np.int32) - b.luma.astype(np.int32)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(float(10.0 * np.log10(255.0 * 255.0 / mse)), PSNR_CAP_DB)


def psnr(original: Sequence, compensated: Sequence) -> list[float]:
    """Per-frame PSNR of compensated vs original, in dB."""
    if original.width != compensated.width or original.height != compensated.height:
        raise ValueError(
            f"sequences differ in size: {original.width}x{original.height} vs "
            f"{compensated.width}x{compensated.height}"
        )
    if len(original) != len(compensated):
        raise ValueError(f"sequences differ in length: {len(original)} vs {len(compensated)}")
    return [frame_psnr(a, b) for a, b in zip(original.frames, compensated.frames)]
