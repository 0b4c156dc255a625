"""Swarm block search: edge-aware particle seeding patterns and a
fixed-iteration particle swarm. `estimators.estimate` runs it on every block
it has not prejudged static, and picks the pattern and seeds per block.

Moving blocks get eight particles placed by a pattern keyed to the block's
grid position (pattern A recentered on the left neighbor's vector for
ordinary blocks, down/up-biased corner patterns and a right-biased edge
pattern for the leftmost column). The swarm then runs a standard
inertia-weight update for a fixed number of iterations, with velocities
clamped component-wise; the whole swarm updates in one array expression.

Particle state is continuous; positions are rounded (half away from zero)
and clamped to the frame-legal box only when a cost is evaluated. There is
no search-window restriction beyond frame legality.

Randomness: one PCG64 stream per frame pair, held by `estimate` and
consumed in block raster order; each particle draws four uniforms per
iteration in the fixed order (r1 for x, r2 for x, r1 for y, r2 for y),
particles in index order, batched as one (particles, 2, 2) draw per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MotionVector
from .metrics import BlockCost, best_candidate, candidate_key

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
        # The swarm clamps with np.clip, which lets NaN through, and a
        # non-finite factor turns particle positions into NaN.
        for name in ("w_start", "c1", "c2", "v_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    """Round half away from zero, elementwise (floats in, floats out)."""
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5))


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
    Pattern positions are clamped before the first evaluation; particle i
    starts at pattern_positions[i % len(pattern_positions)]. When `trace`
    is given, it receives one dict per iteration with copies of the swarm
    state after the velocity/position update.
    """
    gbest_key, gbest = best_candidate(cost, [cost.clamp(c) for c in seed_candidates])
    dx_min, dx_max, dy_min, dy_max = cost.bounds
    lo, hi = (dx_min, dy_min), (dx_max, dy_max)
    n = config.particles
    pos = np.clip(np.resize(np.array(pattern_positions, dtype=np.float64), (n, 2)), lo, hi)
    vel = np.zeros((n, 2), dtype=np.float64)
    pbest = np.zeros((n, 2), dtype=np.float64)
    pbest_key = [(float("inf"),)] * n

    for t in range(config.iterations):
        evaluated = np.clip(_round_half_away(pos), lo, hi).astype(np.int64).tolist()
        for i, (qx, qy) in enumerate(evaluated):
            k = candidate_key(cost((qx, qy)), (qx, qy))
            if k < pbest_key[i]:
                pbest_key[i] = k
                pbest[i] = (qx, qy)
        # synchronous global-best update after the full evaluation pass
        best = min(range(n), key=pbest_key.__getitem__)
        if pbest_key[best] < gbest_key:
            gbest_key = pbest_key[best]
            gbest = (int(pbest[best, 0]), int(pbest[best, 1]))
        w = inertia_weight(t, config.iterations, config.w_start, config.w_end)
        r = rng.random((n, 2, 2))  # [particle][dim][r1, r2]
        vel = np.clip(
            w * vel
            + config.c1 * r[..., 0] * (pbest - pos)
            + config.c2 * r[..., 1] * (np.array(gbest, dtype=np.float64) - pos),
            -config.v_max,
            config.v_max,
        )
        pos += vel
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
