"""Swarm block matcher: static-block prejudgment, left-neighbor prediction,
edge-aware particle seeding patterns, and a fixed-iteration particle swarm.
`estimators.estimate` runs it block by block through swarm_matcher.

Per block: one co-located evaluation decides staticness; moving blocks get
eight particles placed by a pattern keyed to the block's grid position
(pattern A recentered on the left neighbor's vector for ordinary blocks,
down/up-biased corner patterns and a right-biased edge pattern for the
leftmost column). The swarm then runs a standard inertia-weight update for a
fixed number of iterations, with velocities clamped component-wise.

Particle state is continuous; positions are rounded (half away from zero)
and clamped to the frame-legal box only when a cost is evaluated. There is
no search-window restriction beyond frame legality.

Randomness: one PCG64 stream per frame pair, held by swarm_matcher and
consumed in block raster order; each particle draws four uniforms per
iteration in the fixed order (r1 for x, r2 for x, r1 for y, r2 for y),
particles in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .blocks import BlockGrid, MotionVector
from .estimators import EstimatorConfig, MotionField, predict_mv_ros_d, zmp_check
from .metrics import BlockCost, candidate_key

PATTERN_KINDS = ("A", "B", "C", "D")

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


def select_pattern(block_index: int, grid: BlockGrid) -> str:
    """Seeding pattern for a block: B at the top-left corner, C at the
    bottom-left corner, D elsewhere in the leftmost column, A otherwise."""
    if not 0 <= block_index < grid.n_blocks:
        raise ValueError(f"block index {block_index} out of range [0, {grid.n_blocks})")
    if block_index == 0:
        return "B"
    if block_index == (grid.rows - 1) * grid.cols:
        return "C"
    if block_index % grid.cols == 0:
        return "D"
    return "A"


def init_pattern(kind: str, center: MotionVector = (0, 0)) -> list[MotionVector]:
    """The 8 particle start displacements of a pattern, shifted to `center`
    (not yet clamped)."""
    if kind not in _PATTERNS:
        raise ValueError(f"unknown pattern kind {kind!r}, expected one of {PATTERN_KINDS}")
    cx, cy = center
    return [(cx + dx, cy + dy) for dx, dy in _PATTERNS[kind]]


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def pso_match(
    cost: BlockCost,
    pattern_positions: list[MotionVector],
    seed_candidates: tuple[MotionVector, ...],
    config: PsoConfig,
    rng: np.random.Generator,
    trace: list | None = None,
) -> MotionVector:
    """Run the fixed-iteration swarm on one block and return the best
    evaluated displacement.

    seed_candidates are clamped, evaluated once each, and installed as
    initial global-best candidates (they take no part in the dynamics).
    Pattern positions are clamped before the first evaluation. When `trace`
    is given, it receives one dict per iteration with copies of the swarm
    state after the velocity/position update.
    """
    gbest_key = None
    gbest: MotionVector | None = None
    for cand in seed_candidates:
        c = cost.clamp(cand)
        k = candidate_key(cost(c), c)
        if gbest_key is None or k < gbest_key:
            gbest_key, gbest = k, c

    n = config.particles
    starts = [cost.clamp(pattern_positions[i % len(pattern_positions)]) for i in range(n)]
    pos = np.array(starts, dtype=np.float64)
    vel = np.zeros((n, 2), dtype=np.float64)
    pbest = np.zeros((n, 2), dtype=np.float64)
    pbest_key: list[tuple | None] = [None] * n

    for t in range(config.iterations):
        for i in range(n):
            q = cost.clamp((_round_half_away(pos[i, 0]), _round_half_away(pos[i, 1])))
            k = candidate_key(cost(q), q)
            if pbest_key[i] is None or k < pbest_key[i]:
                pbest_key[i] = k
                pbest[i] = q
        # synchronous global-best update after the full evaluation pass
        for i in range(n):
            if gbest_key is None or pbest_key[i] < gbest_key:
                gbest_key = pbest_key[i]
                gbest = (int(pbest[i, 0]), int(pbest[i, 1]))
        w = inertia_weight(t, config.iterations, config.w_start, config.w_end)
        for i in range(n):
            for dim in range(2):
                r1 = rng.random()
                r2 = rng.random()
                v = (
                    w * vel[i, dim]
                    + config.c1 * r1 * (pbest[i, dim] - pos[i, dim])
                    + config.c2 * r2 * (gbest[dim] - pos[i, dim])
                )
                vel[i, dim] = min(max(v, -config.v_max), config.v_max)
            pos[i] += vel[i]
        if trace is not None:
            trace.append(
                {
                    "iteration": t,
                    "w": w,
                    "velocities": vel.copy(),
                    "positions": pos.copy(),
                    "gbest": gbest,
                    "gbest_cost": gbest_key[0],
                }
            )
    return gbest


def swarm_matcher(config: EstimatorConfig, pso: PsoConfig, seed: int):
    """Per-block matcher of `estimate` for one frame pair; holds the pair's
    PCG64 stream.

    Per block: prejudge; if static, record (0, 0) with one evaluation.
    Otherwise pick the seeding pattern; ordinary blocks recenter pattern A on
    the left neighbor's vector and (by default) evaluate that prediction as a
    starting global-best candidate. The co-located point always joins the
    initial candidates, so the output never scores worse than staying put.
    """
    threshold = config.require_threshold()
    rng = np.random.Generator(np.random.PCG64(seed))

    def match(cost: BlockCost, index: int, field: MotionField) -> tuple[MotionVector, bool]:
        if zmp_check(cost, threshold, config.block_size) is not None:
            return (0, 0), True
        kind = select_pattern(index, field.grid)
        center: MotionVector = (0, 0)
        seeds: tuple[MotionVector, ...] = ((0, 0),)
        if kind == "A":
            center = predict_mv_ros_d(field, index)
            if pso.seed_predictor and center != (0, 0):
                seeds = ((0, 0), center)
        return pso_match(cost, init_pattern(kind, center), seeds, pso, rng), False

    return match
