"""Differential properties of the array fast paths against small scalar
references: ES against a raster scan of single BlockCost queries, as the
plain scan alone (es_search) and as the elimination engine inside
`estimate`, on short and tall frames, at windows up to past the frame's
larger side and on tie-heavy frames where the tie-break decides, es_search
filling the caller's memo dict before the memo is read; one ledger shared by
a whole-frame BlockCost and es_search's windowed one against a memo filled
one query at a time, in query order; DS and ARPS inside `estimate` against
plain pattern walks (same vectors, same memo order); the whole-swarm array
update of pso_match against the per-particle, per-dimension loop it
replaced (alone, and inside `estimate` with the start rule and one stream
per pair); and compensate's gather of the moved blocks against a per-block
copy loop, with any share of the blocks at (0, 0) and on frames with
margins. Frames are random, flat or
tie-heavy; windows are interior, edge-clipped and corner-clipped. Last,
invariants of `estimate` for every algorithm: legal vectors and memo keys,
evals == len(memo), the static-block prejudgment and the same field without
memos, and that `estimate` gives the same field whatever the memory layout
of its frames (ES's window is drawn in three layouts too). CandidateKeys
refuses exactly the frames whose largest keys, derived from its definition
in Python ints, pass int64, and the int64 candidate keys of the array
paths are held to candidate_key's order, in PairCost's ranking too where a
cost times the displacement ranks passes int32, PairCost's memo to
BlockCost's, and PairCost's boxes, cut to the search window or not, to
BlockCost's and the frame's."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebench import (
    ALGORITHMS,
    BlockGrid,
    EstimatorConfig,
    EvalCounter,
    Frame,
    MotionField,
    PsoConfig,
    block_origin,
    compensate,
    es_search,
    estimate,
    inertia_weight,
    init_pattern,
    pso_match,
    sad_sum,
)
from mebench.blocks import displacement_bounds
from mebench.metrics import (
    INT64_MAX,
    BlockCost,
    CandidateKeys,
    PairCost,
    anchor_windows,
    candidate_key,
)

CONTENT = ("noise", "flat", "two-level", "periodic")


def _luma(rng, h: int, w: int, content: str) -> np.ndarray:
    if content == "noise":
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    if content == "flat":
        return np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    if content == "two-level":
        # few distinct values: many displacements share the minimum cost
        return rng.choice(np.array([0, 255], dtype=np.uint8), size=(h, w), p=[0.9, 0.1])
    # a small repeated tile: exact cost ties at multiples of its period
    ty, tx = rng.integers(1, 4, size=2)
    tile = rng.integers(0, 256, (ty, tx), dtype=np.uint8)
    return np.tile(tile, (h // ty + 1, w // tx + 1))[:h, :w]


@st.composite
def frame_pairs(draw, max_blocks=None, tall=False):
    """(anchor luma, target luma, block size, rng) with at least one block,
    and at most max_blocks block rows and columns when it is given. A tall
    pair has 6 to 8 rows of at most two blocks, each at most 6 pixels wide,
    so that a scalar scan of its whole frame stays quick."""
    bs = draw(st.integers(2, 6 if tall else 16))
    top = 3 * bs + 5 if max_blocks is None else (max_blocks + 1) * bs - 1
    h = draw(st.integers(6 * bs, 9 * bs - 1) if tall else st.integers(bs, top))
    w = draw(st.integers(bs, 3 * bs - 1) if tall else st.integers(bs, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = _luma(rng, h, w, draw(st.sampled_from(CONTENT)))
    if draw(st.booleans()):
        target = _luma(rng, h, w, draw(st.sampled_from(CONTENT)))
    else:
        # a shifted copy of the anchor, so a true match exists somewhere
        sx, sy = (int(v) for v in rng.integers(-3, 4, size=2))
        target = np.roll(anchor, (sy, sx), axis=(0, 1))
    return anchor, target, bs, rng


# The diamond and rood offsets, in the order the searches query them.
LARGE_DIAMOND = ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1))
UNIT_ROOD = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def reference_min(cost: BlockCost, candidates):
    """The candidate_key minimum over the legal candidates, each scored
    through BlockCost.__call__ in the given order."""
    best_key = best = None
    for d in candidates:
        if cost.legal(d):
            k = candidate_key(cost(d), d)
            if best_key is None or k < best_key:
                best_key, best = k, d
    return best


def reference_es(cost: BlockCost):
    """The scalar ES scan: every displacement of the box through
    BlockCost.__call__, in raster order, keeping the candidate_key minimum."""
    dx_min, dx_max, dy_min, dy_max = cost.bounds
    return reference_min(
        cost, ((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in range(dx_min, dx_max + 1))
    )


def reference_walk(cost: BlockCost, center, pattern):
    """Recenter `pattern` on its minimum until the minimum is the center."""
    while True:
        best = reference_min(cost, [(center[0] + ox, center[1] + oy) for ox, oy in pattern])
        if best == center:
            return center
        center = best


def reference_ds(cost: BlockCost):
    """Diamond search: the large diamond walked from (0, 0), then one small
    diamond (the unit rood) around where it stopped."""
    cx, cy = reference_walk(cost, (0, 0), LARGE_DIAMOND)
    return reference_min(cost, [(cx + ox, cy + oy) for ox, oy in UNIT_ROOD])


def reference_arps(cost: BlockCost, left):
    """Adaptive rood pattern search: a rood whose arm is the left neighbour's
    largest component (2 without one) plus that vector itself, then a
    unit-rood walk from its minimum."""
    arm = 2 if left is None else max(abs(left[0]), abs(left[1]))
    start = [(0, 0), (arm, 0), (-arm, 0), (0, arm), (0, -arm)]
    if left is not None:
        start.append(left)
    return reference_walk(cost, reference_min(cost, start), UNIT_ROOD)


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def reference_pso_match(cost, pattern_positions, seed_candidates, config, rng, trace):
    """The scalar swarm: per-particle, per-dimension loops and two scalar
    rng.random() draws per particle and dimension, every query clamped to
    the cost's box."""
    dx_min, dx_max, dy_min, dy_max = cost.bounds

    def clamp(d):
        return (min(max(d[0], dx_min), dx_max), min(max(d[1], dy_min), dy_max))

    gbest_key = None
    gbest = None
    for cand in seed_candidates:
        c = clamp(cand)
        k = candidate_key(cost(c), c)
        if gbest_key is None or k < gbest_key:
            gbest_key, gbest = k, c

    n = config.particles
    starts = [clamp(pattern_positions[i % len(pattern_positions)]) for i in range(n)]
    pos = np.array(starts, dtype=np.float64)
    vel = np.zeros((n, 2), dtype=np.float64)
    pbest = np.zeros((n, 2), dtype=np.float64)
    pbest_key = [None] * n

    for t in range(config.iterations):
        for i in range(n):
            q = clamp((_round_half_away(pos[i, 0]), _round_half_away(pos[i, 1])))
            k = candidate_key(cost(q), q)
            if pbest_key[i] is None or k < pbest_key[i]:
                pbest_key[i] = k
                pbest[i] = q
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


def reference_compensate(anchor: Frame, field: MotionField) -> np.ndarray:
    """Per-block copy loop, raising on the first illegal block in raster order."""
    bs = field.grid.block_size
    out = anchor.luma.copy()
    for row in range(field.grid.rows):
        for col in range(field.grid.cols):
            x, y = col * bs, row * bs
            dx, dy = field.vector(row, col)
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.width, anchor.height, (x, y), bs)
            if not (dx_min <= dx <= dx_max and dy_min <= dy <= dy_max):
                raise ValueError(f"block ({col},{row}) carries illegal vector ({dx},{dy})")
            out[y : y + bs, x : x + bs] = anchor.luma[y + dy : y + dy + bs, x + dx : x + dx + bs]
    return out


def in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """a's values in C order, in Fortran order, or as a strided view into a
    larger array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    parent = np.zeros((2 * a.shape[0] + 1, 3 * a.shape[1]), a.dtype)
    view = parent[1::2, ::3]
    view[...] = a
    return view


def search_params(frame: np.ndarray):
    """A search range for ES and the pattern searches on `frame`: small, or
    at least the frame's larger side, where every block's box is the whole
    frame box."""
    side = max(frame.shape)
    return st.one_of(st.integers(1, 8), st.integers(side, side + 8))


# short frames of up to about four block rows, and tall ones of six to eight
SHORT_OR_TALL = st.one_of(frame_pairs(), frame_pairs(tall=True))


@settings(max_examples=200, deadline=None)
@given(
    pair=SHORT_OR_TALL,
    whole=st.booleans(),
    dtype=st.sampled_from([np.int16, np.int32]),
    layout=st.sampled_from(["C", "F", "strided"]),
    windowed=st.booleans(),
    data=st.data(),
)
def test_es_equals_scalar_reference(pair, whole, dtype, layout, windowed, data):
    anchor, target, bs, _ = pair
    grid = BlockGrid.for_frame(Frame(anchor), bs)
    origin = block_origin(grid, data.draw(st.integers(0, grid.n_blocks - 1)))
    p = None if whole else data.draw(search_params(anchor))
    window = None if p is None else (-p, p, -p, p)  # None: the whole frame

    def make_cost(memo):
        counter = EvalCounter(memo)
        anc, tgt = (in_layout(a.astype(dtype), layout) for a in (anchor, target))
        anc = anchor_windows(anc, bs) if windowed else anc  # the plane or the view estimate hands over
        return BlockCost(anc, tgt, origin, bs, counter, window), counter

    memo = {}
    cost, counter = make_cost(memo)
    ref_cost, ref_counter = make_cost({})
    assert es_search(cost) == reference_es(ref_cost)

    dx_min, dx_max, dy_min, dy_max = cost.bounds
    area = (dx_max - dx_min + 1) * (dy_max - dy_min + 1)
    # scored eagerly: before counter.memo is read, the test's dict holds
    # (0, 0), then the whole box in raster order
    box = [(dx, dy) for dy in range(dy_min, dy_max + 1) for dx in range(dx_min, dx_max + 1)]
    assert list(memo) == [(0, 0), *(d for d in box if d != (0, 0))]
    assert counter.memo is memo
    assert counter.evals == len(counter.memo) == area == ref_counter.evals
    assert counter.memo == ref_counter.memo
    x, y = origin
    tgt = target[y : y + bs, x : x + bs]
    for (dx, dy), c in counter.memo.items():
        assert type(c) is int
        assert c == sad_sum(tgt, anchor[y + dy : y + dy + bs, x + dx : x + dx + bs])


@settings(max_examples=200, deadline=None)
@given(pair=frame_pairs(), p=st.integers(1, 8), seeded=st.booleans(), data=st.data())
def test_eval_counter_box_ledger_equals_eager_memo(pair, p, seeded, data):
    anchor, target, bs, _ = pair
    grid = BlockGrid.for_frame(Frame(anchor), bs)
    x, y = origin = block_origin(grid, data.draw(st.integers(0, grid.n_blocks - 1)))
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)

    def sad(d):
        dx, dy = d
        return sad_sum(tgt[y : y + bs, x : x + bs], anc[y + dy : y + dy + bs, x + dx : x + dx + bs])

    expected = {(0, 0): sad((0, 0))} if seeded else {}  # filled eagerly, in query order
    memo = dict(expected)
    counter = EvalCounter(memo)
    # one ledger, two oracles: queries through the whole frame box also land
    # outside the +-p box whose every displacement es_search scans
    whole = BlockCost(anc, tgt, origin, bs, counter)
    boxed = BlockCost(anc, tgt, origin, bs, counter, (-p, p, -p, p))
    dx_min, dx_max, dy_min, dy_max = whole.bounds
    query = st.tuples(st.integers(dx_min, dx_max), st.integers(dy_min, dy_max))
    for op in data.draw(st.lists(st.one_of(query, st.just("box"), st.just("evals")), max_size=24)):
        if op == "evals":
            assert counter.evals == len(expected)
            assert list(memo.items()) == list(expected.items())  # no entry waits to be scored
        elif op == "box":
            es_search(boxed)
            bx_min, bx_max, by_min, by_max = boxed.bounds
            expected.setdefault((0, 0), sad((0, 0)))
            for dy in range(by_min, by_max + 1):
                for dx in range(bx_min, bx_max + 1):
                    expected.setdefault((dx, dy), sad((dx, dy)))
        else:
            assert whole(op) == sad(op)
            expected.setdefault(op, sad(op))
    assert counter.evals == len(expected)
    assert counter.memo is memo  # the given dict, used in place
    assert list(memo.items()) == list(expected.items())  # same points, same order
    assert counter.evals == len(memo)


@settings(max_examples=200, deadline=None)
@given(
    pair=SHORT_OR_TALL,
    algorithm=st.sampled_from(["es", "ds", "arps"]),
    threshold=st.one_of(st.just(0.0), st.floats(0, 64)),
    arps_raw_threshold=st.booleans(),
    ds_zmp=st.booleans(),
    data=st.data(),
)
def test_pattern_searches_equal_scalar_references(
    pair, algorithm, threshold, arps_raw_threshold, ds_zmp, data
):
    anchor, target, bs, _ = pair
    p = data.draw(search_params(anchor))
    config = EstimatorConfig(
        block_size=bs,
        search_param=p,
        zmp_threshold=threshold,
        arps_raw_threshold=arps_raw_threshold,
        ds_zmp=ds_zmp,
    )
    prejudged = config.prejudges(algorithm)
    field = estimate(algorithm, Frame(anchor), Frame(target), config, keep_memos=True)
    grid = field.grid
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)
    for index, memo in enumerate(field.memos):
        row, col = divmod(index, grid.cols)
        if field.static_flags[row, col]:
            continue
        origin = block_origin(grid, index)
        x, y = origin
        # a prejudged block's search starts from the co-located sum, as in estimate
        seeded = {(0, 0): sad_sum(tgt[y : y + bs, x : x + bs], anc[y : y + bs, x : x + bs])}
        counter = EvalCounter(seeded if prejudged else {})
        cost = BlockCost(anc, tgt, origin, bs, counter, (-p, p, -p, p))
        if algorithm == "es":  # (0, 0) first, then the window in raster order
            dx_min, dx_max, dy_min, dy_max = cost.bounds
            window = ((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in range(dx_min, dx_max + 1))
            expected = reference_min(cost, [(0, 0), *window])
        elif algorithm == "ds":
            expected = reference_ds(cost)
        else:
            expected = reference_arps(cost, None if col == 0 else field.vector(row, col - 1))
        assert field.vector(row, col) == expected
        assert list(memo.items()) == list(counter.memo.items())  # same points, same order
        assert field.evals_per_block[row, col] == counter.evals


@settings(max_examples=60, deadline=None)
@given(pair=SHORT_OR_TALL, content=st.sampled_from(["flat", "two-level"]), same=st.booleans(), data=st.data())
def test_es_ties_at_windows_past_the_frame_equal_scalar_reference(pair, content, same, data):
    # Every candidate of a flat pair costs the same, and a two-level pair
    # repeats costs often, so the tie-break picks most vectors; a window past
    # the frame's larger side gives every block the whole frame box.
    _, _, bs, rng = pair
    h, w = pair[0].shape
    anchor = _luma(rng, h, w, content)
    target = anchor if same else _luma(rng, h, w, content)
    p = data.draw(st.integers(max(h, w), max(h, w) + 8))
    config = EstimatorConfig(block_size=bs, search_param=p)
    field = estimate("es", Frame(anchor), Frame(target), config, keep_memos=True)
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)
    for index, memo in enumerate(field.memos):
        row, col = divmod(index, field.grid.cols)
        counter = EvalCounter()
        cost = BlockCost(anc, tgt, block_origin(field.grid, index), bs, counter, (-p, p, -p, p))
        dx_min, dx_max, dy_min, dy_max = cost.bounds
        window = ((dx, dy) for dy in range(dy_min, dy_max + 1) for dx in range(dx_min, dx_max + 1))
        assert field.vector(row, col) == reference_min(cost, [(0, 0), *window])  # (0, 0) first, as in estimate
        assert list(memo.items()) == list(counter.memo.items())  # same points, same order
        assert field.evals_per_block[row, col] == counter.evals


@st.composite
def block_candidates(draw):
    """(width, height, block size, block corner, two (cost, displacement)
    candidates of that block): frame-legal displacements, frame edges, the
    highest cost and ties as often as anything else."""
    bs = draw(st.integers(2, 16))
    w = draw(st.integers(bs, 12 * bs))
    h = draw(st.integers(bs, 12 * bs))
    x = draw(st.one_of(st.sampled_from([0, w - bs]), st.integers(0, w - bs)))
    y = draw(st.one_of(st.sampled_from([0, h - bs]), st.integers(0, h - bs)))
    dx_min, dx_max, dy_min, dy_max = displacement_bounds(w, h, (x, y), bs)
    top = 255 * bs * bs

    def component(lo, hi):
        return st.one_of(st.sampled_from([lo, hi, 0]), st.integers(lo, hi))

    def candidate():
        cost = draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
        return cost, (draw(component(dx_min, dx_max)), draw(component(dy_min, dy_max)))

    a = candidate()
    tie = draw(st.sampled_from(["none", "cost", "cost and |dx|+|dy|", "all"]))
    if tie == "none":
        b = candidate()
    elif tie == "cost":
        b = (a[0], candidate()[1])
    elif tie == "cost and |dx|+|dy|" and dx_min <= -a[1][0] <= dx_max:
        b = (a[0], (-a[1][0], a[1][1]))
    else:
        b = a
    return w, h, bs, y * w + x, a, b


@settings(max_examples=300, deadline=None)
@given(case=block_candidates())
def test_candidate_keys_order_as_candidate_key(case):
    w, h, bs, corner, a, b = case
    keys = CandidateKeys(w, h, bs)

    def key(cost, d):
        d = np.array(d)
        return int(keys.encode(np.int64(cost), d, keys.at(corner, d)))

    ka, kb = key(*a), key(*b)
    want = candidate_key(*a), candidate_key(*b)
    assert (ka < kb, ka == kb) == (want[0] < want[1], want[0] == want[1])
    assert keys.cost(ka) == a[0] and keys.cost(kb) == b[0]
    # the frame's largest key (the highest cost, far corner to far corner) still fits
    reach = np.array([w - bs, h - bs])
    assert 0 <= int(keys.encode(np.int64(255 * bs * bs), reach, keys.at(0, reach))) < INT64_MAX


@pytest.mark.parametrize(
    "side,block",
    [
        (50_000, 16),  # cost times the displacement ranks overflows
        (100_000, 2),  # block times the anchor windows overflows
    ],
)
def test_candidate_keys_beyond_int64_are_refused(side, block):
    with pytest.raises(ValueError) as info:
        CandidateKeys(side, side, block)
    assert str(info.value) == f"candidate keys of a {side}x{side} frame with {block}x{block} blocks overflow int64"


@pytest.mark.parametrize(
    "fitting, passing, block",
    [
        ((2901, 3343), (2901, 3344), 2901),  # one pixel taller
        ((41343, 41343), (41344, 41344), 16),  # one pixel wider and taller
    ],
)
def test_candidate_keys_refuse_exactly_the_frames_whose_keys_pass_int64(fitting, passing, block):
    # From the definition, in Python ints, which do not wrap: a block's
    # largest key is the highest cost at the longest displacement reading the
    # last anchor window, and must rank before INT64_MAX; the largest memo
    # key is the last anchor window of the last block.
    def fits(width, height):
        l1_span = (width - block) + (height - block) + 1
        area, blocks = width * height, (width // block) * (height // block)
        key = (255 * block * block * l1_span + l1_span - 1) * area + area - 1
        return key < INT64_MAX and (blocks - 1) * area + area - 1 <= INT64_MAX

    assert fits(*fitting) and not fits(*passing)
    CandidateKeys(*fitting, block)
    with pytest.raises(ValueError) as info:
        CandidateKeys(*passing, block)
    width, height = passing
    assert str(info.value) == f"candidate keys of a {width}x{height} frame with {block}x{block} blocks overflow int64"


@settings(max_examples=40, deadline=None)
@given(
    bs=st.sampled_from([16, 40, 64]),
    rows=st.integers(0, 3),
    saturated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pair_cost_ranks_as_candidate_key_where_a_cost_times_l1_span_passes_int32(bs, rows, saturated, seed, data):
    # A frame one block row tall and just wide enough that 255 * bs**2 *
    # l1_span > 2**31: summed in int32 (sad_sums), a cost times the
    # displacement ranks would wrap if it reached CandidateKeys.encode in
    # int32. A saturated anchor gives every candidate of a block one cost,
    # so the tie-break decides; otherwise costs sit near the highest.
    width = 2**31 // (255 * bs * bs) + bs + 1
    height = bs + rows
    rng = np.random.default_rng(seed)
    anchor = np.full((height, width), 255, np.uint8)
    if not saturated:
        anchor -= rng.integers(0, 4, anchor.shape, dtype=np.uint8)
    target = rng.integers(0, 3, anchor.shape, dtype=np.uint8)
    grid = BlockGrid.for_frame(Frame(anchor), bs)
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)
    pair = PairCost(anc, tgt, grid)
    assert 255 * bs * bs * pair.keys.l1_span > 2**31
    block = data.draw(st.sampled_from([0, grid.n_blocks - 1, int(rng.integers(0, grid.n_blocks))]))
    lo, hi = pair.bounds(np.array([block]))
    d = rng.integers(lo, hi + 1, (8, 2))
    d[0], d[1] = lo[0], hi[0]  # the frame's far corners of the block's box
    got = pair.rank(np.full(len(d), block), d).tolist()
    x, y = block_origin(grid, block)
    want = [
        candidate_key(sad_sum(tgt[y : y + bs, x : x + bs], anc[y + dy : y + dy + bs, x + dx : x + dx + bs]), (dx, dy))
        for dx, dy in d.tolist()
    ]
    for i in range(len(d)):
        assert pair.keys.cost(got[i]) == want[i][0]
        for j in range(len(d)):
            assert (got[i] < got[j], got[i] == got[j]) == (want[i] < want[j], want[i] == want[j])


@settings(max_examples=100, deadline=None)
@given(pair=frame_pairs(), data=st.data())
def test_pair_cost_memo_equals_block_costs(pair, data):
    anchor, target, bs, rng = pair
    grid = BlockGrid.for_frame(Frame(anchor), bs)
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)
    costs = PairCost(anc, tgt, grid)
    singles = [BlockCost(anc, tgt, block_origin(grid, i), bs, EvalCounter()) for i in range(grid.n_blocks)]
    for _ in range(data.draw(st.integers(1, 4))):  # a few calls, repeats and duplicates included
        if data.draw(st.booleans()):  # DS's shape: blocks (k,), one displacement each
            blocks = rng.integers(0, grid.n_blocks, data.draw(st.integers(1, 12)))
            lo, hi = costs.bounds(blocks)
        else:  # the swarm's: blocks (k, 1), m displacements each, (k, m, 2)
            blocks = rng.integers(0, grid.n_blocks, (data.draw(st.integers(1, 6)), 1))
            m = data.draw(st.integers(1, 6))
            lo, hi = (np.repeat(b[:, None], m, 1) for b in costs.bounds(blocks[:, 0]))
        d = rng.integers(lo, hi + 1) if data.draw(st.booleans()) else np.clip(rng.integers(-2, 3, lo.shape), lo, hi)
        got = costs.rank(blocks, d)
        assert got.shape == d.shape[:-1]
        per_query = np.broadcast_to(blocks, got.shape).ravel().tolist()
        for b, (dx, dy), key in zip(per_query, d.reshape(-1, 2).tolist(), got.ravel().tolist()):
            corner = singles[b].y * anchor.shape[1] + singles[b].x
            at = costs.keys.at(corner, np.array([dx, dy]))
            assert key == costs.keys.encode(singles[b]((dx, dy)), np.array([dx, dy]), at)
    memos = [{} for _ in range(grid.n_blocks)]
    costs.fill(memos)
    assert [list(m.items()) for m in memos] == [list(c.counter.memo.items()) for c in singles]
    assert costs.evals().tolist() == [c.counter.evals for c in singles]


@settings(max_examples=150, deadline=None)
@given(bs=st.integers(2, 16), data=st.data())
def test_pair_cost_bounds_equal_the_per_block_boxes(bs, data):
    # frames with right and bottom remainders, and p from 1 to past the
    # frame's larger side: every block's box in the pair is its BlockCost's
    # box cut to the window, and without p the frame's
    h, w = (data.draw(st.integers(bs, 6 * bs - 1)) for _ in range(2))
    p = data.draw(st.integers(1, max(h, w) + bs))
    plane = np.zeros((h, w), np.int16)
    grid = BlockGrid(bs, w // bs, h // bs)
    pair = PairCost(plane, plane, grid)
    blocks = np.arange(grid.n_blocks)
    origins = [block_origin(grid, i) for i in blocks.tolist()]

    def boxes(lo, hi):  # as (dx_min, dx_max, dy_min, dy_max), one per block
        return [(a, c, b, d) for (a, b), (c, d) in zip(lo.tolist(), hi.tolist())]

    window = (-p, p, -p, p)
    costs = [BlockCost(plane, plane, origin, bs, EvalCounter(), window) for origin in origins]
    assert boxes(*pair.bounds(blocks, p)) == [cost.bounds for cost in costs]
    assert boxes(*pair.bounds(blocks)) == [displacement_bounds(w, h, origin, bs) for origin in origins]


@settings(max_examples=150, deadline=None)
@given(pair=frame_pairs(), n_illegal=st.integers(0, 2))
def test_compensate_equals_per_block_reference(pair, n_illegal):
    anchor_luma, _, bs, rng = pair
    anchor = Frame(anchor_luma)
    field = MotionField.empty(BlockGrid.for_frame(anchor, bs))
    for row in range(field.grid.rows):
        for col in range(field.grid.cols):
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(
                anchor.width, anchor.height, (col * bs, row * bs), bs
            )
            field.vectors[row, col] = (rng.integers(dx_min, dx_max + 1), rng.integers(dy_min, dy_max + 1))
    for _ in range(n_illegal):
        row, col = (int(rng.integers(0, n)) for n in (field.grid.rows, field.grid.cols))
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(
            anchor.width, anchor.height, (col * bs, row * bs), bs
        )
        field.vectors[row, col] = rng.choice(
            [(dx_min - 1, 0), (dx_max + 1, 0), (0, dy_min - 1), (0, dy_max + 1)]
        )

    try:
        expected = reference_compensate(anchor, field)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            compensate(anchor, field)
        assert str(got.value) == str(e)
    else:
        assert (compensate(anchor, field).frame.luma == expected).all()


@settings(max_examples=150, deadline=None)
@given(
    pair=frame_pairs(),
    margins=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    share=st.floats(0, 1),
    n_illegal=st.integers(0, 2),
)
def test_compensate_of_fields_partly_at_zero_equals_per_block_reference(pair, margins, share, n_illegal):
    # compensate reads and writes only the blocks that moved; a random share
    # of the blocks, from none to all, sits at (0, 0) here, on a frame whose
    # right and bottom margins (up to a block side less one) hold their own pixels
    tiled, _, bs, rng = pair
    rows, cols = tiled.shape[0] // bs, tiled.shape[1] // bs
    my, mx = (m % bs for m in margins)
    luma = rng.integers(0, 256, (rows * bs + my, cols * bs + mx), dtype=np.uint8)
    luma[: rows * bs, : cols * bs] = tiled[: rows * bs, : cols * bs]
    anchor = Frame(luma)
    field = MotionField.empty(BlockGrid.for_frame(anchor, bs))
    for row in range(rows):
        for col in range(cols):
            dx_min, dx_max, dy_min, dy_max = displacement_bounds(
                anchor.width, anchor.height, (col * bs, row * bs), bs
            )
            field.vectors[row, col] = (rng.integers(dx_min, dx_max + 1), rng.integers(dy_min, dy_max + 1))
    field.vectors[rng.random((rows, cols)) < share] = 0
    for _ in range(n_illegal):  # no illegal vector is (0, 0)
        row, col = int(rng.integers(0, rows)), int(rng.integers(0, cols))
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(
            anchor.width, anchor.height, (col * bs, row * bs), bs
        )
        field.vectors[row, col] = rng.choice(
            [(dx_min - 1, 0), (dx_max + 1, 0), (0, dy_min - 1), (0, dy_max + 1)]
        )

    try:
        expected = reference_compensate(anchor, field)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            compensate(anchor, field)
        assert str(got.value) == str(e)
    else:
        assert (compensate(anchor, field).frame.luma == expected).all()


@st.composite
def swarm_configs(draw):
    w_start = draw(st.floats(0, 1.5))
    return PsoConfig(
        particles=draw(st.integers(1, 12)),
        iterations=draw(st.integers(1, 6)),
        w_start=w_start,
        w_end=draw(st.floats(0, w_start)),
        c1=draw(st.floats(0, 8)),
        c2=draw(st.floats(0, 8)),
        v_max=draw(st.floats(0.1, 12)),
    )


@settings(max_examples=200, deadline=None)
@given(
    pair=frame_pairs(),
    config=swarm_configs(),
    p=st.one_of(st.none(), st.integers(1, 8)),
    data=st.data(),
)
def test_swarm_equals_scalar_reference(pair, config, p, data):
    anchor, target, bs, _ = pair
    h, w = anchor.shape
    # corners and edges of the frame as often as anywhere inside it
    x = data.draw(st.one_of(st.just(0), st.just(w - bs), st.integers(0, w - bs)))
    y = data.draw(st.one_of(st.just(0), st.just(h - bs), st.integers(0, h - bs)))
    window = None if p is None else (-p, p, -p, p)
    center = data.draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    pattern = init_pattern(data.draw(st.sampled_from("ABCD")), center)
    pattern = pattern[: data.draw(st.integers(1, len(pattern)))]
    seeds = data.draw(
        st.sampled_from([(), ((0, 0),), ((0, 0), center), (center, (0, 0))])
    )
    stream = data.draw(st.integers(0, 2**32 - 1))

    runs = []
    for match in (pso_match, reference_pso_match):
        counter = EvalCounter()
        cost = BlockCost(anchor.astype(np.int16), target.astype(np.int16), (x, y), bs, counter, window)
        rng = np.random.Generator(np.random.PCG64(stream))
        trace = []
        runs.append((match(cost, pattern, seeds, config, rng, trace), counter, rng, trace))
    (mv, counter, rng, trace), (ref_mv, ref_counter, ref_rng, ref_trace) = runs

    assert mv == ref_mv
    assert list(counter.memo.items()) == list(ref_counter.memo.items())  # same points, same order
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(trace) == len(ref_trace) == config.iterations
    for step, ref in zip(trace, ref_trace):
        for key in ("iteration", "w", "gbest", "gbest_cost"):
            assert step[key] == ref[key]
        for key in ("velocities", "positions"):
            assert step[key].dtype == ref[key].dtype and step[key].shape == ref[key].shape
            assert step[key].tobytes() == ref[key].tobytes()  # bit-equal, signed zeros included


def reference_start(row: int, col: int, rows: int, left):
    """The swarm's start on one block: pattern A recentred on the left
    neighbour's vector, or, down the leftmost column, B at the top, C at the
    bottom and D in between, all three at (0, 0)."""
    if col:
        return "A", left
    return ("B" if row == 0 else "C" if row == rows - 1 else "D"), (0, 0)


@settings(max_examples=150, deadline=None)
@given(
    pair=frame_pairs(max_blocks=3),
    particles=st.integers(1, 10),
    iterations=st.integers(1, 5),
    seed_predictor=st.booleans(),
    threshold=st.one_of(st.just(0.0), st.floats(0, 64)),
    seed=st.integers(0, 2**16),
)
def test_swarm_in_estimate_equals_scalar_reference(
    pair, particles, iterations, seed_predictor, threshold, seed
):
    anchor, target, bs, _ = pair
    config = EstimatorConfig(block_size=bs, zmp_threshold=threshold)
    swarm = PsoConfig(particles=particles, iterations=iterations, seed_predictor=seed_predictor)
    field = estimate(
        "pso-zmp", Frame(anchor), Frame(target), config, pso=swarm, seed=seed, keep_memos=True
    )
    grid = field.grid
    anc, tgt = anchor.astype(np.int16), target.astype(np.int16)
    rng = np.random.Generator(np.random.PCG64(seed))  # one stream, moving blocks in raster order
    vectors = {}
    for index, memo in enumerate(field.memos):
        row, col = divmod(index, grid.cols)
        if field.static_flags[row, col]:
            vectors[row, col] = (0, 0)
            continue
        x, y = block_origin(grid, index)
        counter = EvalCounter({(0, 0): sad_sum(tgt[y : y + bs, x : x + bs], anc[y : y + bs, x : x + bs])})
        cost = BlockCost(anc, tgt, (x, y), bs, counter)
        kind, center = reference_start(row, col, grid.rows, vectors.get((row, col - 1)))
        seeds = ((0, 0), center) if seed_predictor and center != (0, 0) else ((0, 0),)
        vectors[row, col] = reference_pso_match(cost, init_pattern(kind, center), seeds, swarm, rng, [])
        assert field.vector(row, col) == vectors[row, col]
        assert list(memo.items()) == list(counter.memo.items())  # same points, same order
        assert field.evals_per_block[row, col] == counter.evals


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=30, deadline=None)
@given(
    pair=frame_pairs(),
    layout=st.sampled_from(["F", "strided"]),
    threshold=st.one_of(st.just(0.0), st.floats(0, 64)),
    seed=st.integers(0, 2**16),
)
def test_estimate_is_independent_of_frame_layout(algorithm, pair, layout, threshold, seed):
    anchor, target, bs, _ = pair
    config = EstimatorConfig(block_size=bs, search_param=4, zmp_threshold=threshold)

    def run(order):
        frames = (Frame(in_layout(a, order)) for a in (anchor, target))
        return estimate(algorithm, *frames, config, seed=seed, keep_memos=True)

    c_order, other = run("C"), run(layout)
    assert (other.vectors == c_order.vectors).all()
    assert (other.evals_per_block == c_order.evals_per_block).all()
    assert (other.static_flags == c_order.static_flags).all()
    assert [list(m.items()) for m in other.memos] == [list(m.items()) for m in c_order.memos]


@settings(max_examples=100, deadline=None)
@given(
    pair=frame_pairs(),
    algorithm=st.sampled_from(ALGORITHMS),
    p=st.integers(1, 8),
    threshold=st.one_of(st.just(0.0), st.just(1e9), st.floats(0, 64)),
    arps_raw_threshold=st.booleans(),
    ds_zmp=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_estimate_invariants(pair, algorithm, p, threshold, arps_raw_threshold, ds_zmp, seed):
    anchor, target, bs, _ = pair
    config = EstimatorConfig(
        block_size=bs,
        search_param=p,
        zmp_threshold=threshold,
        arps_raw_threshold=arps_raw_threshold,
        ds_zmp=ds_zmp,
    )
    cut = config.static_cut(algorithm)
    field = estimate(algorithm, Frame(anchor), Frame(target), config, seed=seed, keep_memos=True)
    bare = estimate(algorithm, Frame(anchor), Frame(target), config, seed=seed)  # the CLI's path
    assert bare.memos is None
    for name in ("vectors", "evals_per_block", "static_flags"):
        assert np.array_equal(getattr(bare, name), getattr(field, name))
    grid = field.grid
    assert (grid.cols, grid.rows) == (anchor.shape[1] // bs, anchor.shape[0] // bs)
    for index, memo in enumerate(field.memos):
        row, col = divmod(index, grid.cols)
        x, y = block_origin(grid, index)
        dx, dy = field.vector(row, col)
        dx_min, dx_max, dy_min, dy_max = displacement_bounds(anchor.shape[1], anchor.shape[0], (x, y), bs)
        assert dx_min <= dx <= dx_max and dy_min <= dy <= dy_max
        if algorithm != "pso-zmp":  # the pattern searches also stay in the window
            assert max(abs(dx), abs(dy)) <= p
        for mx, my in memo:  # so does every displacement evaluated on the way
            assert dx_min <= mx <= dx_max and dy_min <= my <= dy_max
            assert algorithm == "pso-zmp" or max(abs(mx), abs(my)) <= p
        assert field.evals_per_block[row, col] == len(memo)
        assert (dx, dy) in memo
        colocated = sad_sum(target[y : y + bs, x : x + bs], anchor[y : y + bs, x : x + bs])
        static = cut is not None and colocated < cut
        assert bool(field.static_flags[row, col]) == static
        if static:
            assert (dx, dy) == (0, 0) and memo == {(0, 0): colocated}
        elif cut is not None:  # a moving block's search starts from the prejudged sum
            assert next(iter(memo.items())) == ((0, 0), colocated)
