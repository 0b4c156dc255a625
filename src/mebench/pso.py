"""Swarm block search: edge-aware particle seeding patterns and a
fixed-iteration particle swarm. `estimators.estimate` hands every block it
has not prejudged static to `search`, which runs the swarm one grid column at
a time (column_search): blocks link only through their left neighbor, so a
column's blocks are independent and update together. pso_match is the
one-block case of the same swarm, scored through a BlockCost.

Moving blocks get eight particles placed by a pattern keyed to the block's
grid position (pattern A recentered on the left neighbor's vector for
ordinary blocks, down/up-biased corner patterns and a right-biased edge
pattern for the leftmost column). The swarm then runs a standard
inertia-weight update for a fixed number of iterations, with velocities
clamped component-wise; every block's swarm updates in place, in one array
expression per term. A column ranks its candidates once per iteration: the
initial global-best seeds join the first positions' call, ahead of them.

Particle state is continuous; positions are rounded (half away from zero)
and clamped to the frame-legal box only when a cost is evaluated. There is
no search-window restriction beyond frame legality.

Randomness: one PCG64 stream per frame pair, built by `search` and drawn
after prejudgment as one (moving blocks, iterations, particles, 2, 2) batch,
blocks in raster order; each particle takes four uniforms per iteration in
the fixed order (r1 for x, r2 for x, r1 for y, r2 for y), particles in index
order. These are the numbers, in the order, that per-block, per-iteration
draws would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MotionVector, check_integer
from .metrics import INT64_MAX, BlockCost, CandidateKeys, PairCost

# Particle seeding offsets, in particle-index order. A is the unit rood plus
# its diagonal copy (8 directions); B/C sit in the only legal quadrant of the
# top-left / bottom-left corner blocks; D is right-half biased for the rest
# of the leftmost column.
_PATTERNS: dict[str, tuple[MotionVector, ...]] = {
    "A": ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
    "B": ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)),
    "C": ((0, -1), (1, 0), (1, -1), (2, 0), (0, -2), (2, -1), (1, -2), (2, -2)),
    "D": ((0, 1), (0, -1), (0, 2), (0, -2), (1, 0), (2, 0), (1, 1), (1, -1)),
}
PATTERN_KINDS = tuple(_PATTERNS)
_STARTS = np.array(list(_PATTERNS.values()), dtype=np.int64)  # (kinds, 8, 2), PATTERN_KINDS order


@dataclass(frozen=True)
class PsoConfig:
    """Swarm parameters: 8 particles, 5 iterations, w 0.9 -> 0.4, c1 = c2 = 2,
    velocity clamp 5 px/iteration. The field order is the key order of the
    "pso" block in meta.json."""

    particles: int = 8
    iterations: int = 5
    w_start: float = 0.9
    w_end: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    v_max: float = 5.0
    seed_predictor: bool = True  # evaluate the predicted vector as an initial global-best candidate

    def __post_init__(self):
        # The swarm clamps with np.clip, which lets NaN through, and a
        # non-finite factor turns particle positions into NaN.
        for name in ("w_start", "c1", "c2", "v_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_integer("particles", self.particles)
        check_integer("iterations", self.iterations)
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.w_end <= self.w_start:
            raise ValueError(f"need 0 <= w_end <= w_start, got {self.w_start}..{self.w_end}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")


def inertia_weight(t: int, iterations: int, w_start: float, w_end: float) -> float:
    """Linearly decayed inertia: w(0) = w_start, w(iterations-1) = w_end."""
    if iterations == 1:
        return w_start
    return w_start - (w_start - w_end) * t / (iterations - 1)


def select_pattern(row: int, col: int, rows: int) -> str:
    """Seeding pattern for the block at (row, col) of a grid `rows` blocks
    tall: A off the leftmost column; in it, B at the top (a one-row grid
    included), C at the bottom and D in between."""
    if col > 0:
        return "A"
    if row == 0:
        return "B"
    return "C" if row == rows - 1 else "D"


def init_pattern(kind: str, center: MotionVector = (0, 0)) -> list[MotionVector]:
    """The 8 particle start displacements of a pattern, shifted to `center`
    (not yet clamped)."""
    if kind not in _PATTERNS:
        raise ValueError(f"unknown pattern kind {kind!r}, expected one of {PATTERN_KINDS}")
    cx, cy = center
    return [(cx + dx, cy + dy) for dx, dy in _PATTERNS[kind]]


def _round_half_away(v: np.ndarray) -> np.ndarray:
    """Round half away from zero, elementwise, to int64 (the cast truncates)."""
    return (v + np.copysign(0.5, v)).astype(np.int64)


def _swarm(rank, keys: CandidateKeys, starts, seeds, lo, hi, config: PsoConfig, r, trace=None):
    """The fixed-iteration swarm on k independent blocks at once; their best
    evaluated displacements, (k, 2) int64.

    rank maps (k, m, 2) integer displacements to their (k, m) candidate
    keys (CandidateKeys.encode), scoring them block by block in array order.
    starts (k, P, 2) are the pattern positions, particle i starting at
    starts[:, i % P]; seeds (k, s, 2) the initial global-best candidates.
    Both are clamped to the per-block box lo..hi ((k, 2) each); r (k,
    iterations, particles, 2, 2) holds each block's uniforms. The seeds are
    ranked ahead of the first positions, in the same rank call, so the swarm
    makes one call per iteration. `trace` receives the first block's state
    after each iteration's velocity/position update.
    """
    lo, hi = lo[:, None], hi[:, None]
    k, n = len(starts), config.particles
    block = np.arange(k)
    seeds = np.minimum(np.maximum(seeds, lo), hi)
    s = seeds.shape[1]
    gbest_key = np.full(k, INT64_MAX)
    gbest = np.zeros((k, 2), dtype=np.float64)
    pos = np.minimum(np.maximum(starts[:, np.arange(n) % starts.shape[1]], lo), hi).astype(np.float64)
    vel = np.zeros((k, n, 2), dtype=np.float64)
    pbest = np.zeros((k, n, 2), dtype=np.float64)
    pbest_key = np.full((k, n), INT64_MAX)
    c1r, c2r = config.c1 * r[..., 0], config.c2 * r[..., 1]  # [block][iteration][particle][dim]

    for t in range(config.iterations):
        q = np.minimum(np.maximum(_round_half_away(pos), lo), hi)
        if t:
            q_keys = rank(q)
        else:  # the seeds join the first positions' call, ahead of them
            q_keys = rank(np.concatenate((seeds, q), 1))
            if s:
                best = q_keys[:, :s].argmin(1)
                gbest_key, gbest[:] = q_keys[block, best], seeds[block, best]
            q_keys = q_keys[:, s:]
        better = q_keys < pbest_key
        np.minimum(q_keys, pbest_key, out=pbest_key)
        np.copyto(pbest, q, where=better[..., None])
        # synchronous global-best update after the full evaluation pass
        best = pbest_key.argmin(1)
        top = pbest_key[block, best]
        improved = top < gbest_key
        np.minimum(top, gbest_key, out=gbest_key)
        np.copyto(gbest, pbest[block, best], where=improved[:, None])
        w = inertia_weight(t, config.iterations, config.w_start, config.w_end)
        # vel = w * vel + c1 r1 (pbest - pos) + c2 r2 (gbest - pos), summed in that order
        vel *= w
        vel += c1r[:, t] * (pbest - pos)
        vel += c2r[:, t] * (gbest[:, None] - pos)
        np.minimum(np.maximum(vel, -config.v_max, out=vel), config.v_max, out=vel)
        pos += vel
        if trace is not None:
            trace.append(
                {
                    "iteration": t,
                    "w": w,
                    "velocities": vel[0].copy(),
                    "positions": pos[0].copy(),
                    "gbest": (int(gbest[0, 0]), int(gbest[0, 1])),
                    "gbest_cost": keys.cost(gbest_key[0]),
                }
            )
    return gbest.astype(np.int64)


def column_search(
    pair: PairCost, blocks: np.ndarray, left: np.ndarray, config: PsoConfig, r: np.ndarray
) -> np.ndarray:
    """The swarm on the moving blocks of one grid column at once, scored and
    memoized through the frame pair's PairCost; their vectors, (k, 2).

    blocks are raster indices, top to bottom; left holds their left
    neighbors' vectors, (k, 2), zeros in column 0. Each block starts from the
    pattern select_pattern picks for its grid position, recentered on its
    left neighbor's vector, and (by default) tries that vector as a starting
    global best. The co-located point always joins the initial candidates,
    so no output scores worse than staying put. r is (k, iterations,
    particles, 2, 2), each block's uniforms.
    """
    grid = pair.grid
    kinds = [PATTERN_KINDS.index(select_pattern(*divmod(b, grid.cols), grid.rows)) for b in blocks.tolist()]
    center = left.astype(np.int64)
    starts = center[:, None] + _STARTS[kinds]
    zero = np.zeros_like(center)
    # a block with center (0, 0) tries it twice, which neither counts nor ranks differently
    seeds = np.stack((zero, center) if config.seed_predictor else (zero,), 1)
    lo, hi = pair.bounds(blocks)
    rows_of = blocks[:, None]  # one block per row of displacements

    def rank(q):
        return pair.rank(rows_of, q)

    return _swarm(rank, pair.keys, starts, seeds, lo, hi, config, r)


def search(pair: PairCost, moving: np.ndarray, vectors: np.ndarray, config: PsoConfig, seed: int) -> None:
    """The swarm on one frame pair's moving blocks (raster indices, ascending):
    draws the pair's stream, then runs column_search on each column that holds
    one, left to right, each reading its left neighbors' vectors from `vectors`
    ((blocks, 2), raster order; (0, 0) in column 0) and writing its own there."""
    rng = np.random.Generator(np.random.PCG64(seed))
    r = rng.random((moving.size, config.iterations, config.particles, 2, 2))
    column = moving % pair.grid.cols
    for col in sorted(set(column.tolist())):
        rank = np.flatnonzero(column == col)
        blocks = moving[rank]
        left = vectors[blocks - 1] if col else np.zeros_like(vectors[blocks])
        # looked up at call time, so a wrapper around the module attribute sees every column
        vectors[blocks] = column_search(pair, blocks, left, config, r[rank])


def pso_match(
    cost: BlockCost,
    pattern_positions: list[MotionVector],
    seed_candidates: tuple[MotionVector, ...],
    config: PsoConfig,
    rng: np.random.Generator,
    trace: list | None = None,
) -> MotionVector:
    """Run the fixed-iteration swarm on one block and return the best
    evaluated displacement: the one-block case of the column swarm, scored
    one displacement at a time through `cost`.

    seed_candidates are clamped, evaluated once each, and installed as
    initial global-best candidates (they take no part in the dynamics).
    Pattern positions are clamped before the first evaluation; particle i
    starts at pattern_positions[i % len(pattern_positions)]. When `trace`
    is given, it receives one dict per iteration with copies of the swarm
    state after the velocity/position update.
    """
    dx_min, dx_max, dy_min, dy_max = cost.bounds
    r = rng.random((1, config.iterations, config.particles, 2, 2))

    keys = CandidateKeys(cost.width, cost.height, cost.block_size)

    def rank(q):
        costs = np.array([[cost(d) for d in map(tuple, q[0].tolist())]], dtype=np.int64)
        return keys.encode(costs, q, keys.at(cost.y * cost.width + cost.x, q))

    gbest = _swarm(
        rank,
        keys,
        np.array(pattern_positions, dtype=np.int64).reshape(1, -1, 2),
        np.array(seed_candidates, dtype=np.int64).reshape(1, -1, 2),
        np.array([[dx_min, dy_min]]),
        np.array([[dx_max, dy_max]]),
        config,
        r,
        trace,
    )
    return (int(gbest[0, 0]), int(gbest[0, 1]))
