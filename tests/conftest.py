"""Shared synthetic-data helpers, make_cost (one block's cost oracle), and
load_script for the repo's scripts.

shifted_pair builds an exact global translation with no wrap-around: the
target block at (x, y) equals the anchor pixels at (x+dx, y+dy), so a correct
matcher returns exactly (dx, dy) wherever that displacement is legal.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mebench import EvalCounter, Frame
from mebench.metrics import BlockCost


def box_mean(a: np.ndarray, size: int) -> np.ndarray:
    """Mean over a size-wide window along each axis in turn, edges mirrored
    (d c b a | a b c d). Each axis keeps a running window sum, updated left
    to right and divided per output. The golden pins of tests/test_golden.py
    hash textures made in exactly this float order (that of ndimage's
    uniform_filter in reflect mode), so the order must not change."""
    lead = size // 2
    for axis in range(a.ndim):
        pad = [(0, 0)] * a.ndim
        pad[axis] = (lead, size - 1 - lead)
        padded = np.moveaxis(np.pad(a, pad, mode="symmetric"), axis, 0)
        out = np.empty((a.shape[axis], *padded.shape[1:]))
        total = padded[0].copy()
        for k in range(1, size):
            total += padded[k]
        out[0] = total / size
        for i in range(1, len(out)):
            total += padded[i + size - 1] - padded[i - 1]
            out[i] = total / size
        a = np.moveaxis(out, 0, axis)
    return a


def smooth_texture(h: int, w: int, seed: int, passes: int = 2, size: int = 5) -> np.ndarray:
    """Aperiodic smooth uint8 texture: box-filtered white noise, full contrast.

    Smoothness makes block-matching cost surfaces near-unimodal (pattern
    searches walk downhill to the true shift); the noise keeps them aperiodic
    (no equal-cost aliases).
    """
    rng = np.random.default_rng(seed)
    a = rng.random((h, w))
    for _ in range(passes):
        a = box_mean(a, size)
    a -= a.min()
    a /= a.max()
    return (a * 220 + 16).astype(np.uint8)


def shifted_pair(h: int, w: int, shift: tuple[int, int], seed: int, pad: int = 8):
    """(anchor, target) frames where target content sits at +shift in the anchor."""
    dx, dy = shift
    assert abs(dx) <= pad and abs(dy) <= pad
    base = smooth_texture(h + 2 * pad, w + 2 * pad, seed)
    anchor = base[pad : pad + h, pad : pad + w]
    target = base[pad + dy : pad + dy + h, pad + dx : pad + dx + w]
    return Frame(anchor.copy()), Frame(target.copy())


def noise_frame(h: int, w: int, seed: int) -> Frame:
    rng = np.random.default_rng(seed)
    return Frame(rng.integers(0, 256, (h, w), dtype=np.uint8))


def make_cost(anchor: Frame, target: Frame, origin: tuple[int, int], window=None):
    """A 16x16 block's BlockCost at origin, optionally cut to window
    (dx_min, dx_max, dy_min, dy_max), and the EvalCounter it fills."""
    counter = EvalCounter()
    cost = BlockCost(anchor.luma.astype(np.int32), target.luma.astype(np.int32), origin, 16, counter, window)
    return cost, counter


def write_y4m(path, lumas, chroma_value: int = 128, header: bytes | None = None) -> None:
    """Scripted YUV4MPEG2 writer, independent of the reader under test."""
    h, w = lumas[0].shape
    assert h % 2 == 0 and w % 2 == 0
    parts = [header if header is not None else f"YUV4MPEG2 W{w} H{h} F25:1 Ip A1:1 C420jpeg\n".encode()]
    chroma = bytes([chroma_value]) * ((w // 2) * (h // 2) * 2)
    for y in lumas:
        parts.append(b"FRAME\n")
        parts.append(np.asarray(y, dtype=np.uint8).tobytes())
        parts.append(chroma)
    path.write_bytes(b"".join(parts))


REPO = Path(__file__).resolve().parent.parent


def load_script(relative: str, name: str, monkeypatch):
    """Import the repo script at `relative` (e.g. "benchmarks/clips.py") as
    module `name`. The module sits in sys.modules while it runs, since a
    dataclass looks its module up there, and until monkeypatch undoes it; no
    bytecode is written next to the script."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, REPO / relative)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def qcif_grid():
    from mebench import BlockGrid

    return BlockGrid(16, 11, 9)
