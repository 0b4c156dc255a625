import math

import numpy as np
import pytest

from mebench import BlockGrid, EstimatorConfig, EvalCounter, Frame, Sequence, frame_psnr, psnr, sad_at, sad_sum
from mebench.blocks import MAX_BLOCK_SIZE
from mebench.metrics import BlockCost, PairCost, sad_sums

from conftest import noise_frame, shifted_pair


def reference_sad_sum(a, b):
    """Independent double-loop oracle."""
    total = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += abs(int(a[i, j]) - int(b[i, j]))
    return total


def test_sad_identical_blocks_zero():
    block = noise_frame(16, 16, 0).luma
    assert sad_sum(block, block) == 0


def test_sad_plus_one_everywhere():
    a = np.full((16, 16), 100, np.uint8)
    b = np.full((16, 16), 101, np.uint8)
    assert reference_sad_sum(a, b) == sad_sum(a, b) == 256


def test_sad_2x2_hand_case():
    a = np.zeros((2, 2), np.uint8)
    b = np.array([[10, 0], [0, 0]], np.uint8)
    assert sad_sum(a, b) == 10


def test_sad_matches_reference_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert sad_sum(a, b) == reference_sad_sum(a, b)


def test_sad_size_mismatch():
    with pytest.raises(ValueError):
        sad_sum(np.zeros((4, 4), np.uint8), np.zeros((4, 8), np.uint8))


def test_sad_symmetry_zero_triangle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        c = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert sad_sum(a, b) == sad_sum(b, a)
        assert sad_sum(a, a) == 0
        assert sad_sum(a, c) <= sad_sum(a, b) + sad_sum(b, c)


def _saturated(side):
    """A broadcast all-255 difference of side x side blocks: the largest raw sum."""
    return np.broadcast_to(np.int16(255), (side, side)), np.broadcast_to(np.int16(0), (side, side))


def test_sad_sums_is_exact_at_the_largest_block_side():
    # 255 * 2901**2 = 2,146,029,255 sits just under 2**31 in the int32 accumulator
    got = sad_sums(*_saturated(MAX_BLOCK_SIZE))
    assert MAX_BLOCK_SIZE == 2901
    assert got.dtype == np.int64 and int(got) == 255 * 2901 * 2901


@pytest.mark.parametrize(
    "refuse",
    [
        lambda side: sad_sums(*_saturated(side)),
        lambda side: EstimatorConfig(block_size=side),
        lambda side: BlockGrid(side, 1, 1),
    ],
    ids=["sad_sums", "EstimatorConfig", "BlockGrid"],
)
def test_a_block_side_whose_sum_could_pass_int32_is_refused(refuse):
    with pytest.raises(ValueError) as info:
        refuse(2902)
    assert str(info.value) == "block_size must be <= 2901, the largest side whose raw SAD sum fits int32, got 2902"


def test_no_candidates_score_to_an_empty_result():
    tiles = np.zeros((0, 4, 4), np.int16)
    got = sad_sums(tiles, tiles)
    assert got.shape == (0,) and got.dtype == np.int64
    assert sad_sums(np.zeros((3, 0, 4, 4), np.int16), np.zeros((4, 4), np.int16)).shape == (3, 0)
    luma = np.arange(16 * 24, dtype=np.int16).reshape(16, 24)
    pair = PairCost(luma, luma, BlockGrid.for_frame(Frame(luma.astype(np.uint8)), 8))
    assert pair.rank(np.zeros(0, np.int64), np.zeros((0, 2), np.int64)).shape == (0,)
    assert pair.memo == {}


def test_sad_at_memoizes():
    anchor, target = shifted_pair(48, 64, (3, 0), seed=11)
    counter = EvalCounter()
    first = sad_at(counter, anchor, target, (16, 16), (3, 0), 16)
    second = sad_at(counter, anchor, target, (16, 16), (3, 0), 16)
    assert first == second == 0  # interior block of an exact (3, 0) translation
    assert counter.evals == 1


def test_sad_at_counts_distinct_displacements():
    anchor, target = shifted_pair(48, 64, (1, 1), seed=12)
    counter = EvalCounter()
    queries = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (1, 1), (-1, -1)]
    for d in queries:
        sad_at(counter, anchor, target, (16, 16), d, 16)
    assert counter.evals == len(set(queries))


def test_sad_at_rejects_unclamped_displacement():
    anchor, target = shifted_pair(48, 64, (1, 1), seed=13)
    with pytest.raises(ValueError, match="leaves the frame"):
        sad_at(EvalCounter(), anchor, target, (0, 0), (-1, 0), 16)


def test_block_cost_refuses_a_frame_legal_query_outside_its_window():
    anchor, target = shifted_pair(48, 64, (1, 1), seed=14)
    counter = EvalCounter()
    anc, tgt = anchor.luma.astype(np.int16), target.luma.astype(np.int16)
    cost = BlockCost(anc, tgt, (16, 16), 16, counter, (-1, 1, -1, 1))
    with pytest.raises(ValueError) as info:
        cost((2, 0))  # inside the frame, outside the window
    assert str(info.value) == (
        "displacement (2, 0) leaves the frame or the window of block at (16,16), box (-1, 1, -1, 1)"
    )
    assert counter.evals == 0


def test_psnr_identical_capped():
    f = noise_frame(32, 32, 5)
    assert frame_psnr(f, f) == 100.0


def test_psnr_uniform_offset_closed_form():
    a = Frame(np.full((32, 32), 100, np.uint8))
    b = Frame(np.full((32, 32), 116, np.uint8))
    expected = 10 * math.log10(255**2 / 256)  # MSE = 16^2
    assert frame_psnr(a, b) == pytest.approx(expected, abs=1e-9)
    assert frame_psnr(a, b) == pytest.approx(24.05, abs=0.005)


def test_psnr_equals_float64_reference():
    # integer squared errors sum exactly in float64, so the int32 path is bit-equal
    rng = np.random.default_rng(5)
    cases = [(np.zeros((144, 176), np.uint8), np.full((144, 176), 255, np.uint8))]
    cases += [tuple(rng.integers(0, 256, (2, 144, 176), dtype=np.uint8)) for _ in range(3)]
    for a, b in cases:
        diff = a.astype(np.float64) - b.astype(np.float64)
        expected = min(float(10.0 * np.log10(255.0 * 255.0 / np.mean(diff * diff))), 100.0)
        assert frame_psnr(Frame(a), Frame(b)) == expected


def test_psnr_monotone_in_mse():
    base = np.full((16, 16), 100, np.uint8)
    last = float("inf")
    for offset in (1, 2, 4, 8, 16):
        value = frame_psnr(Frame(base), Frame(base + np.uint8(offset)))
        assert value < last
        last = value


def test_psnr_sequence_report():
    a = Sequence((noise_frame(16, 16, 1), noise_frame(16, 16, 2)))
    b = Sequence((noise_frame(16, 16, 1), noise_frame(16, 16, 3)))
    per_frame = psnr(a, b)
    assert len(per_frame) == 2
    assert per_frame[0] == 100.0
    assert per_frame[1] == frame_psnr(a[1], b[1]) < 100.0


def test_frame_psnr_shape_text():
    with pytest.raises(ValueError) as info:
        frame_psnr(Frame(np.zeros((16, 16), np.uint8)), Frame(np.zeros((16, 32), np.uint8)))
    assert str(info.value) == "frame shapes differ: (16, 16) vs (16, 32)"


def test_psnr_dimension_mismatch():
    a = Sequence((noise_frame(16, 16, 1),))
    b = Sequence((noise_frame(16, 32, 1),))
    with pytest.raises(ValueError):
        psnr(a, b)


def test_psnr_length_mismatch():
    a = Sequence((noise_frame(16, 16, 1), noise_frame(16, 16, 2)))
    with pytest.raises(ValueError, match="length: 2 vs 1"):
        psnr(a, Sequence(a.frames[:1]))
