import numpy as np
import pytest

from mebench import BlockGrid, Frame, block_origin, clamp_displacement

QCIF = Frame(np.zeros((144, 176), np.uint8))


def test_block_origin_examples(qcif_grid):
    assert block_origin(qcif_grid, 0) == (0, 0)
    assert block_origin(qcif_grid, 11) == (0, 16)
    assert block_origin(qcif_grid, 98) == (160, 128)


def test_block_origin_full_raster_enumeration(qcif_grid):
    # independent oracle: walk the raster order explicitly
    expected = []
    for y in range(0, 144, 16):
        for x in range(0, 176, 16):
            expected.append((x, y))
    assert [block_origin(qcif_grid, i) for i in range(99)] == expected


def test_block_origin_out_of_range(qcif_grid):
    with pytest.raises(ValueError):
        block_origin(qcif_grid, 99)
    with pytest.raises(ValueError):
        block_origin(qcif_grid, -1)


def test_clamp_examples(qcif_grid):
    assert clamp_displacement(qcif_grid, QCIF, (0, 0), (-3, -7)) == (0, 0)
    assert clamp_displacement(qcif_grid, QCIF, (0, 0), (5, -2)) == (5, 0)
    # bottom-right block: max legal dx = 176-16-160 = 0, max dy = 144-16-128 = 0
    assert clamp_displacement(qcif_grid, QCIF, (160, 128), (7, 9)) == (0, 0)


def test_clamp_idempotent(qcif_grid):
    rng = np.random.default_rng(7)
    for _ in range(200):
        idx = int(rng.integers(0, qcif_grid.n_blocks))
        origin = block_origin(qcif_grid, idx)
        d = (int(rng.integers(-200, 201)), int(rng.integers(-200, 201)))
        once = clamp_displacement(qcif_grid, QCIF, origin, d)
        assert clamp_displacement(qcif_grid, QCIF, origin, once) == once


def test_clamp_keeps_block_inside(qcif_grid):
    rng = np.random.default_rng(8)
    for _ in range(200):
        idx = int(rng.integers(0, qcif_grid.n_blocks))
        origin = block_origin(qcif_grid, idx)
        d = (int(rng.integers(-200, 201)), int(rng.integers(-200, 201)))
        dx, dy = clamp_displacement(qcif_grid, QCIF, origin, d)
        x, y = origin[0] + dx, origin[1] + dy
        assert 0 <= x <= 176 - 16 and 0 <= y <= 144 - 16


def test_partition_covers_tiled_region_once():
    grid = BlockGrid.for_frame(Frame(np.zeros((40, 56), np.uint8)), 16)
    assert (grid.cols, grid.rows) == (3, 2)
    hits = np.zeros((32, 48), dtype=int)
    for i in range(grid.n_blocks):
        x, y = block_origin(grid, i)
        hits[y : y + 16, x : x + 16] += 1
    assert (hits == 1).all()


def test_grid_validation():
    with pytest.raises(ValueError):
        BlockGrid(16, 0, 3)
    with pytest.raises(ValueError):
        BlockGrid(1, 2, 2)


def test_frame_smaller_than_block_names_both_sizes():
    with pytest.raises(ValueError, match="8x8 frame is smaller than one 16x16 block"):
        BlockGrid.for_frame(Frame(np.zeros((8, 8), np.uint8)), 16)
    with pytest.raises(ValueError, match="20x6 frame is smaller than one 8x8 block"):
        BlockGrid.for_frame(Frame(np.zeros((6, 20), np.uint8)), 8)


@pytest.mark.parametrize("block_size", [0, 1])
def test_for_frame_rejects_block_size_before_dividing(block_size):
    with pytest.raises(ValueError, match=f"block_size must be >= 2, got {block_size}"):
        BlockGrid.for_frame(QCIF, block_size)


def test_tiles_is_a_view_of_each_block_that_leaves_the_remainder_alone():
    # 60x44 with side 8: a 4-pixel remainder on the right and at the bottom
    plane = np.random.default_rng(3).integers(0, 256, (44, 60), dtype=np.uint8)
    grid = BlockGrid.for_frame(Frame(plane), 8)
    tiles = grid.tiles(plane)
    assert tiles.shape == (grid.rows, grid.cols, 8, 8) == (5, 7, 8, 8)
    for r in range(grid.rows):
        for c in range(grid.cols):
            x, y = block_origin(grid, r * grid.cols + c)
            assert (tiles[r, c] == plane[y : y + 8, x : x + 8]).all()
    before = plane.copy()
    tiles[2, 5] = 0
    tiles[4, 6] = 255
    expected = before.copy()
    expected[16:24, 40:48] = 0
    expected[32:40, 48:56] = 255
    assert (plane == expected).all()  # the writes landed, and only there
    assert (plane[40:, :] == before[40:, :]).all() and (plane[:, 56:] == before[:, 56:]).all()
