"""Block matchers (exhaustive, diamond and adaptive rood pattern search) and
`estimate`, the one raster driver that runs every matcher block by block,
the swarm search of pso.py included.

The driver alone prejudges static blocks, as one frame-level op ahead of any
search: every block's co-located raw sum against EstimatorConfig.static_cut,
the one place the threshold is converted to raw-sum units. That sum is each
block's first memo entry, one evaluation; static blocks stop there. The
searches themselves only search and return a vector; of the field they see
only the left neighbor's vector (None in column 0), the one link between
blocks. Every moving block is searched with a memoized BlockCost, so
revisiting a displacement never inflates the evaluation count; ES fills its
whole window in one array op (BlockCost.box_sums) and counts every
displacement in it. Ties are broken uniformly by candidate_key
(center-biased, then raster order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pso as swarm
from .blocks import BlockGrid, MotionVector, block_origin, check_block_size
from .metrics import BlockCost, EvalCounter, best_candidate, candidate_key
from .video_io import Frame

ALGORITHMS = ("es", "ds", "arps", "pso-zmp")

# Large and small diamond offsets of the two-pattern diamond search.
_LDSP = ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1))
_SDSP = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared matcher settings.

    search_param bounds the ES/DS/ARPS candidate window to |dx|,|dy| <= P.
    zmp_threshold is the per-sequence static-block cut, required by the
    algorithms that prejudge (see prejudges). The swarm matcher and ds_zmp
    compare it against the side-normalized cost (sum/side); ARPS follows its
    original convention and compares the raw sum, which keeps its
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
        if self.zmp_threshold is not None and not (
            np.isfinite(self.zmp_threshold) and self.zmp_threshold >= 0
        ):
            raise ValueError(f"zmp_threshold must be finite and >= 0, got {self.zmp_threshold}")

    def prejudges(self, algorithm: str) -> bool:
        """Whether `algorithm` runs the static-block prejudgment first."""
        return algorithm in ("arps", "pso-zmp") or (algorithm == "ds" and self.ds_zmp)

    def static_cut(self, algorithm: str) -> float | None:
        """The static-block cut of `algorithm` in raw-sum units, or None when
        it does not prejudge. A block is static when its co-located raw sum
        falls strictly under the cut."""
        if not self.prejudges(algorithm):
            return None
        if self.zmp_threshold is None:
            raise ValueError(
                "no static-block threshold set; pass zmp_threshold "
                "(CLI: --zmp-threshold)"
            )
        if algorithm == "arps" and self.arps_raw_threshold:
            return self.zmp_threshold
        return self.zmp_threshold * self.block_size  # sum/N units to raw sum


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


def _around(center: MotionVector, pattern) -> list[MotionVector]:
    return [(center[0] + ox, center[1] + oy) for ox, oy in pattern]


def _walk(cost: BlockCost, center: MotionVector, pattern) -> MotionVector:
    """Recenter `pattern` on its minimum until the minimum stays at the center."""
    while True:
        _, best = best_candidate(cost, _around(center, pattern))
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
    center = _walk(cost, (0, 0), _LDSP)
    return best_candidate(cost, _around(center, _SDSP))[1]


def arps_search(cost: BlockCost, left_neighbor_mv: MotionVector | None) -> MotionVector:
    """Adaptive rood pattern search, run after the driver's prejudgment.

    The rood arm stretches to the predictor's largest component (2 when the
    block has no left neighbor); the predictor itself joins the initial
    candidate set, and a unit-rood walk refines.
    """
    arm = 2 if left_neighbor_mv is None else max(map(abs, left_neighbor_mv))
    candidates = [(0, 0), (arm, 0), (-arm, 0), (0, arm), (0, -arm)]
    if left_neighbor_mv is not None:
        candidates.append(left_neighbor_mv)
    return _walk(cost, best_candidate(cost, candidates)[1], _SDSP)


def estimate(
    algorithm: str,
    anchor: Frame,
    target: Frame,
    config: EstimatorConfig | None = None,
    pso: swarm.PsoConfig | None = None,
    seed: int = 0,
    keep_memos: bool = False,
) -> MotionField:
    """Estimate the motion field of `target` relative to `anchor`.

    algorithm is one of es, ds, arps, pso-zmp. Blocks are processed in raster
    order; the result is a pure function of the inputs, config, and seed
    (which only pso-zmp consumes). A block whose co-located raw sum falls
    strictly under the algorithm's static cut is recorded as (0, 0) at that
    one evaluation, with no search; every other block is searched. ES/DS/ARPS
    candidates stay inside the search window; the swarm is bounded by frame
    legality alone.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if anchor.width != target.width or anchor.height != target.height:
        raise ValueError(
            f"frame sizes differ: {anchor.width}x{anchor.height} vs "
            f"{target.width}x{target.height}"
        )
    config = config or EstimatorConfig()
    cut = config.static_cut(algorithm)
    p = config.search_param
    window = (-p, p, -p, p)
    grid = BlockGrid.for_frame(anchor, config.block_size)
    # the per-block search: (cost, row, col, left neighbor's vector or None) -> vector
    if algorithm == "es":
        search = lambda cost, row, col, left: es_search(cost)
    elif algorithm == "ds":
        search = lambda cost, row, col, left: ds_search(cost)
    elif algorithm == "arps":
        search = lambda cost, row, col, left: arps_search(cost, left)
    else:
        swarm_config = pso or swarm.PsoConfig()
        rng = np.random.Generator(np.random.PCG64(seed))  # the pair's stream, in raster order
        window = None

        def search(cost, row, col, left):
            # Ordinary blocks recenter pattern A on the left neighbor's vector
            # and (by default) try that prediction as a starting global best.
            # The co-located point always joins the initial candidates, so the
            # output never scores worse than staying put.
            center = left or (0, 0)
            seeds = ((0, 0), center) if swarm_config.seed_predictor and center != (0, 0) else ((0, 0),)
            kind = swarm.select_pattern(row, col, grid.rows)
            # through the module attribute, which the benchmark's tracer wraps
            return swarm.pso_match(cost, swarm.init_pattern(kind, center), seeds, swarm_config, rng)

    field = MotionField.empty(grid)
    if keep_memos:
        field.memos = []
    anc = anchor.luma.astype(np.int16)
    tgt = target.luma.astype(np.int16)
    colocated = [None] * grid.n_blocks
    if cut is not None:
        # Every block's co-located raw sum in one op over the tiled region. It
        # is each memo's first entry, as it is every matcher's first query.
        bs, rows, cols = config.block_size, grid.rows, grid.cols
        diff = np.abs(anc[: rows * bs, : cols * bs] - tgt[: rows * bs, : cols * bs])
        sums = diff.reshape(rows, bs, cols, bs).sum(axis=(1, 3))
        field.static_flags[...] = sums < cut
        field.evals_per_block[...] = 1
        colocated = sums.ravel().tolist()

    static = field.static_flags.ravel().tolist()
    for index, s in enumerate(colocated):
        memo = {} if s is None else {(0, 0): s}
        if not static[index]:
            row, col = divmod(index, grid.cols)
            left = field.vector(row, col - 1) if col else None  # a block's one link to the field
            counter = EvalCounter(memo)
            cost = BlockCost(anc, tgt, block_origin(grid, index), config.block_size, counter, window)
            field.vectors[row, col] = search(cost, row, col, left)
            field.evals_per_block[row, col] = counter.evals
        if keep_memos:
            field.memos.append(memo)
    return field
