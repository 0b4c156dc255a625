"""Block matchers (exhaustive, diamond and adaptive rood pattern search),
`estimate`, the one raster driver that runs every matcher, the swarm search
of pso.py included, and `compensate`, which rebuilds the target frame from
the anchor and the MotionField that `estimate` returns.

The driver alone prejudges static blocks, as one frame-level op ahead of any
search: every block's co-located raw sum against EstimatorConfig.static_cut,
the one place the threshold is converted to raw-sum units. That sum is each
block's first memo entry, one evaluation; static blocks stop there. The
searches themselves only search; of the field they see only the left
neighbor's vector (in column 0, None for ARPS and (0, 0) for the swarm), the
one link between blocks. ES searches whole grid rows of a frame per call
(es_blocks), a QCIF frame at p = 7 in one, by exact successive elimination:
a lower bound from the 2x2 quadrant sums of one int32 integral image rules
out most of each window, and only the rest is scored. Each ES block counts
every displacement of its window and keeps a BlockCost only for its one
co-located query; under keep_memos it scores the whole window into its memo
(BlockCost.score_box). es_search, the acceptance gate's ES, is that plain
scan of one block's window. ARPS searches one block at a time through its
BlockCost, scoring its start set and then each unit rood one point at a
time, in one loop. DS, whose blocks are independent, walks every moving
block's diamond in lockstep, each step ranking only the points the block's
last diamond did not hold. The swarm (pso.search) draws the pair's stream
and runs one grid column at a time, each column's vectors written to the
field before the next reads them. Both score through one PairCost per frame
pair. Every oracle of a pair reads one anchor_windows view, built once a
block moves. Every memo counts a revisited displacement once and keeps its
first-query order, and ties are broken uniformly by candidate_key
(center-biased, then raster order). Compensation reads the anchor's blocks
through the same anchor_windows helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pso as swarm
from .blocks import BlockGrid, MotionVector, block_origin, check_block_size, check_integer, displacement_bounds
from .metrics import (
    INT64_MAX,
    BlockCost,
    CandidateKeys,
    EvalCounter,
    PairCost,
    anchor_windows,
    candidate_key,
    sad_sums,
)
from .video_io import Frame

ALGORITHMS = ("es", "ds", "arps", "pso-zmp")

# Large and small diamond offsets of the two-pattern diamond search; the
# small diamond is also ARPS's unit rood. Each starts at the center.
_LDSP = ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1))
_SDSP = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
# After a large-diamond step to point b of the last diamond, point j of the
# next one is point _LDSP_SHARED[b, j] of the last, or len(_LDSP) when it is
# new: 5 new points after an edge step, 3 after a corner step (Zhu & Ma 2000).
_LDSP_SHARED = np.array(
    [[_LDSP.index(q) if q in _LDSP else len(_LDSP) for q in ((bx + x, by + y) for x, y in _LDSP)]
     for bx, by in _LDSP]
)
_UNSCORED = -1  # in place of a key not yet ranked; every candidate key is >= 0


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
        check_integer("search_param", self.search_param)
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


@dataclass(frozen=True)
class CompensatedFrame:
    frame: Frame


def compensate(anchor: Frame, field: MotionField) -> CompensatedFrame:
    """Decoder-side reconstruction: copy each block from its displaced anchor
    position; pixels outside the block tiling (right/bottom remainders) are
    copied co-located."""
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
    grid.tiles(out)[...] = anchor_windows(anchor.luma, bs)[ys + dy, xs + dx]
    return CompensatedFrame(Frame(out))


# The most values one ES step holds: the four quadrant sums of each candidate
# that a call's bound gathers, and the anchor-window pixels of one gather of
# its survivors (512 KiB as int16), which also holds at most one box.
# `estimate` hands es_blocks as many whole grid rows as that bound holds, at
# least one.
ES_GATHER_PIXELS = 1 << 18


def quadrant_sums(plane: np.ndarray, bs: int) -> np.ndarray:
    """The sums of the 2x2 quadrants, split at bs // 2, of every bs x bs
    window of `plane`, from one integral image, as int32 [quadrant (top-left,
    top-right, bottom-left, bottom-right), window row, window column].

    The integral image's running sums may wrap in int32. They stay exact
    modulo 2**32, and so does every difference of them; a quadrant of 8-bit
    pixels up to side MAX_BLOCK_SIZE sums below 2**31, so its int32
    difference is the sum itself."""
    h, w = plane.shape
    ny, nx = h - bs + 1, w - bs + 1
    total = np.zeros((h + 1, w + 1), dtype=np.int32)
    np.cumsum(plane, axis=0, dtype=np.int32, out=total[1:, 1:])
    np.cumsum(total[1:, 1:], axis=1, out=total[1:, 1:])
    cuts = (0, bs // 2, bs)
    sums = np.empty((2, 2, ny, nx), dtype=np.int32)
    for band, (top, bottom) in zip(sums, zip(cuts, cuts[1:])):
        rows = total[bottom : bottom + ny] - total[top : top + ny]
        for part, (left, right) in zip(band, zip(cuts, cuts[1:])):
            np.subtract(rows[:, right : right + nx], rows[:, left : left + nx], out=part)
    return sums.reshape(4, ny, nx)


def es_blocks(anchor: np.ndarray, windows: np.ndarray, tiles: np.ndarray, x, y, bounds) -> np.ndarray:
    """Exhaustive search of k blocks at once by exact successive elimination.
    `anchor` is the plane under the window view `windows`; tiles holds the
    target blocks (k, side, side), x and y their top-left corners and bounds
    their boxes (dx_min, dx_max, dy_min, dy_max), each (k,). Returns each
    box's candidate_key minimum, (k, 2) as (dx, dy).

    Over the 2x2 quadrants of a block B and a window W, sum_q |sum(B_q) -
    sum(W_q)| never exceeds SAD(B, W) (Li & Salari 1995; Gao, Duanmu & Zou
    2000), so no candidate's CandidateKeys key at its bound ranks after its
    key at its cost. The exact cost at a block's lowest bound key gives an
    upper key; only the candidates whose bound key does not rank after it
    can hold the minimum, and only they are scored, by sad_sums on the
    window view, in gathers of at most one box and ES_GATHER_PIXELS pixels.
    """
    k, bs = len(tiles), tiles.shape[-1]
    height, width = anchor.shape
    keys = CandidateKeys(width, height, bs)
    dx_min, dx_max, dy_min, dy_max = bounds
    # A block's candidates are the h x w window origins from (top, left)
    # that hold its box, within the frame: [block, row, column].
    h, w = int((dy_max - dy_min).max()) + 1, int((dx_max - dx_min).max()) + 1
    top, left = np.minimum(y + dy_min, height - bs + 1 - h), np.minimum(x + dx_min, width - bs + 1 - w)
    rows, cols = top[:, None] + np.arange(h), left[:, None] + np.arange(w)
    dy, dx = rows - y[:, None], cols - x[:, None]
    box = h * w
    # every candidate's bound, from the quadrant sums of the anchor rectangle the blocks reach
    r0, c0 = top.min(), left.min()
    sums = quadrant_sums(anchor[r0 : rows.max() + bs, c0 : cols.max() + bs], bs)
    flat = ((rows - r0) * sums.shape[2])[:, :, None] + (cols - c0)[:, None]
    gap = np.take(sums.reshape(4, -1), flat, axis=1)
    del sums, flat
    cuts = [0, bs // 2]
    parts = np.add.reduceat(np.add.reduceat(tiles, cuts, axis=2, dtype=np.int32), cuts, axis=1)
    gap -= parts.reshape(k, 4).T[:, :, None, None]
    np.abs(gap, out=gap)
    bound = np.multiply(gap.sum(0, dtype=np.int32), keys.unit, dtype=np.int64)  # a bound fits int32, as a SAD does
    del gap
    # its key at that bound: ties holds each candidate's key at zero cost,
    # the sum of its row's and its column's share (CandidateKeys.ties is linear)
    ties = keys.ties(np.abs(dy), rows * width)[:, :, None] + keys.ties(np.abs(dx), cols)[:, None]
    bound += ties
    bound[(dy < dy_min[:, None]) | (dy > dy_max[:, None])] = INT64_MAX  # the rows and columns outside the box
    bound.swapaxes(1, 2)[(dx < dx_min[:, None]) | (dx > dx_max[:, None])] = INT64_MAX
    # each block's upper key, and the candidates whose bound key does not rank after it
    lowest = ties.reshape(k, box)[np.arange(k), bound.reshape(k, box).argmin(1)]
    row, col = np.divmod(lowest % keys.area, width)
    upper = sad_sums(windows[row, col], tiles) * keys.unit + lowest
    survivors = np.flatnonzero(bound <= upper[:, None, None])
    ranked = ties.ravel()[survivors]
    del bound, ties
    step = max(1, min(box, ES_GATHER_PIXELS // (bs * bs)))
    for lo in range(0, len(ranked), step):
        tie = ranked[lo : lo + step]
        row, col = np.divmod(tie % keys.area, width)
        tie += sad_sums(windows[row, col], tiles[survivors[lo : lo + step] // box]) * keys.unit
    # every block keeps its lowest-bound candidate, so each has a first survivor
    best = np.minimum.reduceat(ranked, np.searchsorted(survivors, np.arange(k) * box))
    row, col = np.divmod(best % keys.area, width)
    return np.stack((col - x, row - y), axis=1)


def es_search(cost: BlockCost) -> MotionVector:
    """Exhaustive scan of every legal displacement in the cost's window: the
    block queries (0, 0) through `cost`, scores the whole box into its
    counter's memo (BlockCost.score_box) and returns the box's candidate_key
    minimum."""
    cost((0, 0))
    sums = cost.score_box()
    dx_min, dx_max, dy_min, dy_max = cost.bounds
    d = np.stack(np.meshgrid(np.arange(dx_min, dx_max + 1), np.arange(dy_min, dy_max + 1)), axis=-1)
    keys = CandidateKeys(cost.width, cost.height, cost.block_size)
    best = keys.encode(sums, d, keys.at(cost.y * cost.width + cost.x, d)).argmin()
    return tuple(d.reshape(-1, 2)[best].tolist())


def _pattern_min(pair: PairCost, blocks, center, lo, hi, pattern, known):
    """Each block's candidate_key minimum over the legal points of `pattern`
    around its center (k, 2), with the points' keys (k, len(pattern)),
    INT64_MAX where illegal, and the minimum's index in `pattern`. known
    holds the keys already ranked, _UNSCORED elsewhere; only the legal
    unscored points are ranked, in pattern order."""
    cand = center[:, None] + pattern
    legal = ((cand >= lo[:, None]) & (cand <= hi[:, None])).all(axis=2)
    keys = np.where(legal, known, INT64_MAX)
    new = legal & (known == _UNSCORED)
    keys[new] = pair.rank(np.broadcast_to(blocks[:, None], new.shape)[new], cand[new])
    best = keys.argmin(axis=1)
    return cand[np.arange(len(blocks)), best], keys, best


def ds_lockstep(pair: PairCost, blocks: np.ndarray, p: int) -> np.ndarray:
    """Two-pattern diamond search on many blocks at once: each block walks
    its large diamond from (0, 0) until the minimum sits at the center, every
    still-walking block taking its step in the same gather, then all take one
    small-diamond refinement. Candidates stay inside |dx|, |dy| <= p and the
    frame. Each step ranks only the points its block has not ranked in its
    last diamond (_LDSP_SHARED), and the small diamond takes its center's
    key from the last large one. Returns the vectors, (k, 2)."""
    lo, hi = pair.bounds(blocks)
    lo, hi = np.maximum(lo, -p), np.minimum(hi, p)
    k = len(blocks)
    center = np.zeros((k, 2), dtype=np.int64)
    # each block's keys of its last large diamond, then an _UNSCORED column that new points read
    keys = np.full((k, len(_LDSP) + 1), _UNSCORED)
    step = np.zeros(k, dtype=np.intp)  # the index of each block's last move, 0 (none) at first
    walking = np.arange(k)
    while walking.size:
        known = keys[walking[:, None], _LDSP_SHARED[step[walking]]]
        center[walking], keys[walking, :-1], step[walking] = _pattern_min(
            pair, blocks[walking], center[walking], lo[walking], hi[walking], _LDSP, known
        )
        walking = walking[step[walking] != 0]
    known = np.full((k, len(_SDSP)), _UNSCORED)
    known[:, 0] = keys[:, 0]  # the small diamond shares only its center with the last large one
    return _pattern_min(pair, blocks, center, lo, hi, _SDSP, known)[0]


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
    # ES/DS/ARPS reach |dx|, |dy| <= p; no frame-legal component reaches the larger side, so no box moves
    p = min(config.search_param, max(anchor.width, anchor.height))
    window = (-p, p, -p, p)
    grid = BlockGrid.for_frame(anchor, config.block_size)
    field = MotionField.empty(grid)
    anc = anchor.luma.astype(np.int16)
    tgt = target.luma.astype(np.int16)
    colocated = None
    if cut is not None:
        # Every block's co-located raw sum in one op over the tiled region. It
        # is each memo's first entry, as it is every matcher's first query.
        sums = sad_sums(grid.tiles(anc), grid.tiles(tgt))
        field.static_flags[...] = sums < cut
        field.evals_per_block[...] = 1
        colocated = sums.ravel()
    if keep_memos:
        field.memos = [{} for _ in range(grid.n_blocks)] if colocated is None else [
            {(0, 0): s} for s in colocated.tolist()
        ]
    moving = np.flatnonzero(~field.static_flags.ravel())
    vectors, evals = field.vectors.reshape(-1, 2), field.evals_per_block.reshape(-1)  # by raster index
    if not moving.size:
        return field
    windows = anchor_windows(anc, config.block_size)

    if algorithm == "es":  # ES prejudges nothing, so every block moves
        bs = config.block_size
        ys, xs = (np.indices((grid.rows, grid.cols)) * bs).reshape(2, -1)
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.width, anchor.height, (xs, ys), bs)
        bounds = (np.maximum(dx_min, -p), np.minimum(dx_max, p), np.maximum(dy_min, -p), np.minimum(dy_max, p))
        widths, heights = bounds[1] - bounds[0] + 1, bounds[3] - bounds[2] + 1
        evals[:] = widths * heights  # every displacement of the box
        # as many whole grid rows per call as ES_GATHER_PIXELS holds four sums of each candidate of
        step = max(1, ES_GATHER_PIXELS // (4 * int(widths.max() * heights.max()) * grid.cols))
        tiles = grid.tiles(tgt)
        for lo in range(0, grid.rows, step):
            part = slice(lo * grid.cols, (lo + step) * grid.cols)
            row_tiles = tiles[lo : lo + step].reshape(-1, bs, bs)
            vectors[part] = es_blocks(anc, windows, row_tiles, xs[part], ys[part], [b[part] for b in bounds])
        for index in range(grid.n_blocks):
            # each block's one query of the cost layer, which wrappers of BlockCost.__call__ see as ES work
            cost = BlockCost(windows, tgt, block_origin(grid, index), bs, EvalCounter(), window)
            cost((0, 0))
            if keep_memos:
                cost.score_box()
                field.memos[index] = cost.counter.memo
        return field

    if algorithm == "arps":
        for index in moving.tolist():
            counter = EvalCounter({(0, 0): int(colocated[index])})
            cost = BlockCost(windows, tgt, block_origin(grid, index), config.block_size, counter, window)
            # a block's one link to the field: its left neighbor's vector
            left = tuple(vectors[index - 1].tolist()) if index % grid.cols else None
            vectors[index] = arps_search(cost, left)
            evals[index] = counter.evals
            if keep_memos:
                field.memos[index] = counter.memo
        return field

    pair = PairCost(windows, tgt, grid)
    if algorithm == "ds":
        vectors[moving] = ds_lockstep(pair, moving, p)
    else:
        swarm.search(pair, moving, vectors, pso or swarm.PsoConfig(), seed)
    evals[moving] = pair.evals()[moving]
    if keep_memos:
        pair.fill(field.memos)
    return field
