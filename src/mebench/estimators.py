"""Block matchers (exhaustive, diamond and adaptive rood pattern search) and
`estimate`, the one raster driver that runs every matcher, the swarm search
of pso.py included.

The driver alone prejudges static blocks, as one frame-level op ahead of any
search: every block's co-located raw sum against EstimatorConfig.static_cut,
the one place the threshold is converted to raw-sum units. That sum is each
block's first memo entry, one evaluation; static blocks stop there. The
searches themselves only search and return vectors; of the field they see
only the left neighbor's vector (in column 0, None for ARPS and (0, 0) for
the swarm), the one link between blocks. ES and ARPS search one block at a
time through a memoized BlockCost; ES fills its whole window in one array op
(BlockCost.box_sums) and counts every displacement in it, and ARPS scores its
start set and then each unit rood one point at a time, in one loop. DS,
whose blocks are independent, walks every moving block's diamond in
lockstep, and the swarm runs one grid column at a time (pso.column_search),
both scored through one PairCost per frame pair. Every memo counts a
revisited displacement once and keeps its first-query order, and ties are
broken uniformly by candidate_key (center-biased, then raster order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pso as swarm
from .blocks import BlockGrid, MotionVector, block_origin, check_block_size
from .metrics import INT64_MAX, BlockCost, EvalCounter, PairCost, candidate_key
from .video_io import Frame

ALGORITHMS = ("es", "ds", "arps", "pso-zmp")

# Large and small diamond offsets of the two-pattern diamond search; the
# small diamond is also ARPS's unit rood. Each starts at the center.
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


def _pattern_min(pair: PairCost, blocks, center, lo, hi, pattern):
    """Each block's candidate_key minimum over the legal points of `pattern`
    around its center (k, 2), scored in pattern order; and whether it left
    the center."""
    cand = center[:, None] + pattern
    legal = ((cand >= lo[:, None]) & (cand <= hi[:, None])).all(axis=2)
    d = cand[legal]
    keys = np.full(legal.shape, INT64_MAX)
    keys[legal] = pair.rank(np.broadcast_to(blocks[:, None], legal.shape)[legal], d)
    best = keys.argmin(axis=1)
    return cand[np.arange(len(blocks)), best], best != 0


def ds_lockstep(pair: PairCost, blocks: np.ndarray, p: int) -> np.ndarray:
    """Two-pattern diamond search on many blocks at once: each block walks
    its large diamond from (0, 0) until the minimum sits at the center, every
    still-walking block taking its step in the same gather, then all take one
    small-diamond refinement. Candidates stay inside |dx|, |dy| <= p and the
    frame. Returns the vectors, (k, 2)."""
    lo, hi = pair.bounds(blocks)
    lo, hi = np.maximum(lo, -p), np.minimum(hi, p)
    center = np.zeros((len(blocks), 2), dtype=np.int64)
    walking = np.arange(len(blocks))
    while walking.size:
        center[walking], moved = _pattern_min(
            pair, blocks[walking], center[walking], lo[walking], hi[walking], _LDSP
        )
        walking = walking[moved]
    return _pattern_min(pair, blocks, center, lo, hi, _SDSP)[0]


def arps_search(cost: BlockCost, left_neighbor_mv: MotionVector | None) -> MotionVector:
    """Adaptive rood pattern search, run after the driver's prejudgment.

    The rood arm stretches to the predictor's largest component (2 when the
    block has no left neighbor); the predictor itself joins the initial
    candidate set. Then the unit rood is recentered on its minimum until the
    minimum stays at the center. Each round scores its legal points through
    `cost` in order and keeps their candidate_key minimum.
    """
    arm = 2 if left_neighbor_mv is None else max(map(abs, left_neighbor_mv))
    candidates = [(0, 0), (arm, 0), (-arm, 0), (0, arm), (0, -arm)]
    if left_neighbor_mv is not None:
        candidates.append(left_neighbor_mv)
    center = None  # every round holds a legal point: (0, 0), then its center
    while True:
        best_key = best = None
        for d in candidates:
            if cost.legal(d):
                k = candidate_key(cost(d), d)
                if best is None or k < best_key:
                    best_key, best = k, d
        if best == center:
            return center
        center = best
        candidates = [(center[0] + ox, center[1] + oy) for ox, oy in _SDSP]


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
    legality alone. Every branch addresses a block by its raster index alone.
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
    grid = BlockGrid.for_frame(anchor, config.block_size)
    field = MotionField.empty(grid)
    anc = anchor.luma.astype(np.int16)
    tgt = target.luma.astype(np.int16)
    colocated = None
    if cut is not None:
        # Every block's co-located raw sum in one op over the tiled region. It
        # is each memo's first entry, as it is every matcher's first query.
        bs, rows, cols = config.block_size, grid.rows, grid.cols
        diff = np.abs(anc[: rows * bs, : cols * bs] - tgt[: rows * bs, : cols * bs])
        sums = diff.reshape(rows, bs, cols, bs).sum(axis=(1, 3))
        field.static_flags[...] = sums < cut
        field.evals_per_block[...] = 1
        colocated = sums.ravel()
    if keep_memos:
        field.memos = [{} for _ in range(grid.n_blocks)] if colocated is None else [
            {(0, 0): s} for s in colocated.tolist()
        ]
    moving = np.flatnonzero(~field.static_flags.ravel())
    vectors, evals = field.vectors.reshape(-1, 2), field.evals_per_block.reshape(-1)  # by raster index

    if algorithm in ("es", "arps"):
        for index in moving.tolist():
            counter = EvalCounter({} if colocated is None else {(0, 0): int(colocated[index])})
            cost = BlockCost(anc, tgt, block_origin(grid, index), config.block_size, counter, (-p, p, -p, p))
            if algorithm == "es":
                vectors[index] = es_search(cost)
            else:  # a block's one link to the field: its left neighbor's vector
                left = tuple(vectors[index - 1].tolist()) if index % grid.cols else None
                vectors[index] = arps_search(cost, left)
            evals[index] = counter.evals
            if keep_memos:
                field.memos[index] = counter.memo
        return field

    if not moving.size:
        return field
    pair = PairCost(anc, tgt, grid)
    if colocated is not None:
        pair.record(moving, colocated[moving])
    if algorithm == "ds":
        vectors[moving] = ds_lockstep(pair, moving, p)
    else:
        swarm_config = pso or swarm.PsoConfig()
        rng = np.random.Generator(np.random.PCG64(seed))
        # the pair's stream: each moving block's draws, blocks in raster order
        r = rng.random((moving.size, swarm_config.iterations, swarm_config.particles, 2, 2))
        column = moving % grid.cols
        for col in sorted(set(column.tolist())):  # only columns that hold a moving block
            rank = np.flatnonzero(column == col)
            blocks = moving[rank]
            # the column's one link to the field, (0, 0) in column 0
            left = vectors[blocks - 1] if col else np.zeros_like(vectors[blocks])
            # looked up at call time, so a wrapper around the module attribute sees every column
            vectors[blocks] = swarm.column_search(pair, blocks, left, swarm_config, r[rank])
    evals[moving] = pair.evals()[moving]
    if keep_memos:
        pair.fill(field.memos)
    return field
