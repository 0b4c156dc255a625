"""Block matchers (exhaustive, diamond and adaptive rood pattern search) and
`estimate`, the one raster driver that runs every matcher block by block,
the swarm matcher of pso.py included.

All searches run per block with a memoized BlockCost, so revisiting a
displacement never inflates the evaluation count; ES fills its whole window
in one array op (BlockCost.box_sums) and counts every displacement in it.
Ties are broken uniformly by candidate_key (center-biased, then raster
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blocks import BlockGrid, MotionVector, block_origin, check_block_size
from .metrics import BlockCost, EvalCounter, candidate_key, threshold_sum
from .video_io import Frame

if TYPE_CHECKING:
    from .pso import PsoConfig

ALGORITHMS = ("es", "ds", "arps", "pso-zmp")

# Large and small diamond offsets of the two-pattern diamond search.
_LDSP = ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1))
_SDSP = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared matcher settings.

    search_param bounds the ES/DS/ARPS candidate window to |dx|,|dy| <= P.
    zmp_threshold is the per-sequence static-block cut, required by ARPS and
    the swarm matcher (and by DS when ds_zmp is set). The swarm matcher and
    ds_zmp compare it against the side-normalized cost (sum/side); ARPS
    follows its original convention and compares the raw sum, which keeps its
    prejudgment far stricter at the same threshold number. Set
    arps_raw_threshold=False to give ARPS the normalized convention too.
    The field order is the key order of the config echo in meta.json.
    """

    block_size: int = 16
    search_param: int = 7
    zmp_threshold: float | None = None
    arps_raw_threshold: bool = True
    ds_zmp: bool = False

    def __post_init__(self):
        check_block_size(self.block_size)
        if self.search_param < 1:
            raise ValueError(f"search_param must be >= 1, got {self.search_param}")
        if self.zmp_threshold is not None and self.zmp_threshold < 0:
            raise ValueError(f"zmp_threshold must be >= 0, got {self.zmp_threshold}")

    def require_threshold(self) -> float:
        if self.zmp_threshold is None:
            raise ValueError(
                "no static-block threshold set; pass zmp_threshold "
                "(CLI: --zmp-threshold)"
            )
        return self.zmp_threshold


@dataclass
class MotionField:
    """Per-block estimation output for one frame pair."""

    grid: BlockGrid
    vectors: np.ndarray       # (rows, cols, 2) int32, last axis (dx, dy)
    evals_per_block: np.ndarray  # (rows, cols) int64
    static_flags: np.ndarray  # (rows, cols) bool, True when prejudged static
    memos: list[dict[MotionVector, int]] | None = None  # raster order, optional

    @classmethod
    def empty(cls, grid: BlockGrid) -> "MotionField":
        return cls(
            grid,
            np.zeros((grid.rows, grid.cols, 2), dtype=np.int32),
            np.zeros((grid.rows, grid.cols), dtype=np.int64),
            np.zeros((grid.rows, grid.cols), dtype=bool),
        )

    def vector(self, row: int, col: int) -> MotionVector:
        dx, dy = self.vectors[row, col]
        return (int(dx), int(dy))

    @property
    def total_evals(self) -> int:
        return int(self.evals_per_block.sum())

    @property
    def static_count(self) -> int:
        return int(self.static_flags.sum())


def _best_over(cost: BlockCost, candidates) -> MotionVector:
    """Evaluate the legal candidates and return the key-minimal one."""
    best_d = None
    best_key = None
    for d in candidates:
        if not cost.legal(d):
            continue
        k = candidate_key(cost(d), d)
        if best_key is None or k < best_key:
            best_key, best_d = k, d
    if best_d is None:
        raise ValueError("no legal candidate displacement")
    return best_d


def _around(center: MotionVector, pattern) -> list[MotionVector]:
    return [(center[0] + ox, center[1] + oy) for ox, oy in pattern]


def _walk(cost: BlockCost, center: MotionVector, pattern) -> MotionVector:
    """Recenter `pattern` on its minimum until the minimum stays at the center."""
    while True:
        best = _best_over(cost, _around(center, pattern))
        if best == center:
            return center
        center = best


def es_search(cost: BlockCost) -> MotionVector:
    """Exhaustive scan of every legal displacement in the cost's window: all
    sums in one op, then candidate_key over the displacements tied at the
    minimum."""
    # The co-located point goes through BlockCost.__call__ like every other
    # matcher's first query, so wrappers around __call__ still see ES work.
    cost((0, 0))
    sums = cost.box_sums()
    dx_min, _, dy_min, _ = cost.bounds
    best = int(sums.min())
    ys, xs = np.nonzero(sums == best)
    ties = [(int(x) + dx_min, int(y) + dy_min) for y, x in zip(ys, xs)]
    return min(ties, key=lambda d: candidate_key(best, d))


def ds_search(cost: BlockCost) -> MotionVector:
    """Two-pattern diamond search: large diamond walked until its minimum sits
    at the center, then one small-diamond refinement."""
    center = _walk(cost, _best_over(cost, [(0, 0)]), _LDSP)
    return _best_over(cost, _around(center, _SDSP))


def zmp_check(cost: BlockCost, threshold: float, block_size: int) -> MotionVector | None:
    """One co-located evaluation; (0, 0) when its cost falls under the static
    threshold (strict), else None. The evaluation stays memoized either way."""
    if cost((0, 0)) < threshold_sum(threshold, block_size):
        return (0, 0)
    return None


def arps_search(
    cost: BlockCost,
    config: EstimatorConfig,
    left_neighbor_mv: MotionVector | None,
) -> tuple[MotionVector, bool]:
    """Adaptive rood pattern search with zero-motion prejudgment.

    Returns (vector, static). The prejudgment compares the co-located raw
    SAD sum against the threshold (its original convention) unless
    config.arps_raw_threshold is off. The rood arm stretches to the
    predictor's largest component (2 when the block has no left neighbor);
    the predictor itself joins the initial candidate set, and a unit-rood
    walk refines.
    """
    threshold = config.require_threshold()
    if not config.arps_raw_threshold:
        threshold = threshold_sum(threshold, config.block_size)
    if cost((0, 0)) < threshold:
        return (0, 0), True

    arm = 2 if left_neighbor_mv is None else max(map(abs, left_neighbor_mv))
    candidates = [(0, 0), (arm, 0), (-arm, 0), (0, arm), (0, -arm)]
    if left_neighbor_mv is not None:
        candidates.append(left_neighbor_mv)
    return _walk(cost, _best_over(cost, candidates), _SDSP), False


def predict_mv_ros_d(field_so_far: MotionField, block_index: int) -> MotionVector | None:
    """Left-neighbor prediction: the vector of the block immediately to the
    left, or None for the leftmost column (block 0 included)."""
    grid = field_so_far.grid
    if not 0 <= block_index < grid.n_blocks:
        raise ValueError(f"block index {block_index} out of range [0, {grid.n_blocks})")
    if block_index % grid.cols == 0:
        return None
    return field_so_far.vector(block_index // grid.cols, block_index % grid.cols - 1)


def estimate(
    algorithm: str,
    anchor: Frame,
    target: Frame,
    config: EstimatorConfig | None = None,
    pso: PsoConfig | None = None,
    seed: int = 0,
    keep_memos: bool = False,
) -> MotionField:
    """Estimate the motion field of `target` relative to `anchor`.

    algorithm is one of es, ds, arps, pso-zmp. Blocks are processed in raster
    order; the result is a pure function of the inputs, config, and seed
    (which only pso-zmp consumes). ES/DS/ARPS candidates stay inside the
    search window; the swarm is bounded by frame legality alone.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if anchor.width != target.width or anchor.height != target.height:
        raise ValueError(
            f"frame sizes differ: {anchor.width}x{anchor.height} vs "
            f"{target.width}x{target.height}"
        )
    config = config or EstimatorConfig()
    p = config.search_param
    window = (-p, p, -p, p)
    # the per-block matcher: (cost, block index, field so far) -> (vector, static)
    if algorithm == "es":
        match = lambda cost, index, field: (es_search(cost), False)
    elif algorithm == "ds":
        threshold = config.require_threshold() if config.ds_zmp else None

        def match(cost, index, field):
            if threshold is not None and zmp_check(cost, threshold, config.block_size) is not None:
                return (0, 0), True
            return ds_search(cost), False

    elif algorithm == "arps":
        match = lambda cost, index, field: arps_search(cost, config, predict_mv_ros_d(field, index))
    else:
        from .pso import PsoConfig, swarm_matcher

        match, window = swarm_matcher(config, pso or PsoConfig(), seed), None

    grid = BlockGrid.for_frame(anchor, config.block_size)
    field = MotionField.empty(grid)
    if keep_memos:
        field.memos = []
    anc = anchor.luma.astype(np.int16)
    tgt = target.luma.astype(np.int16)

    for index in range(grid.n_blocks):
        row, col = index // grid.cols, index % grid.cols
        counter = EvalCounter()
        cost = BlockCost(anc, tgt, block_origin(grid, index), config.block_size, counter, window)
        mv, static = match(cost, index, field)
        field.vectors[row, col] = mv
        field.evals_per_block[row, col] = counter.evals
        field.static_flags[row, col] = static
        if keep_memos:
            field.memos.append(counter.memo)
    return field
