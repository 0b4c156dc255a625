"""Seeded QCIF input generator for the benchmark workloads (numpy only).

Every clip is a pure function of its seed. File names never contain a
standard QCIF sequence name (akiyo, container, mother, news, silent): such a
name would make `mebench run` pick a static-block threshold from its table
and would make the acceptance gate score synthetic data as the real clips.
Every workload therefore passes `--zmp-threshold` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 176, 144
PAN_FRAMES, STATIC_FRAMES = 31, 301
CHROMA_420_BYTES = (WIDTH // 2) * (HEIGHT // 2) * 2
_FORBIDDEN = ("akiyo", "container", "mother", "news", "silent")


@dataclass(frozen=True)
class Clip:
    path: Path
    frames: np.ndarray  # (n, HEIGHT, WIDTH) uint8, the luma planes as written
    cli_args: tuple[str, ...]  # input-format flags for `mebench run`

    @property
    def pairs(self) -> int:
        return len(self.frames) - 1


def _box_filter(a: np.ndarray, size: int) -> np.ndarray:
    """Separable mean filter with mirrored edges."""
    r = size // 2
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r + 1, r)
        c = np.cumsum(np.pad(a, pad, mode="symmetric"), axis=axis)
        n = a.shape[axis]
        hi = np.take(c, np.arange(size, size + n), axis=axis)
        lo = np.take(c, np.arange(0, n), axis=axis)
        a = (hi - lo) / size
    return a


def smooth_texture(rng: np.random.Generator, h: int, w: int, passes: int = 2, size: int = 5) -> np.ndarray:
    """Box-filtered white noise stretched to 16..236: smooth enough for the
    pattern searches to walk downhill, aperiodic so costs have no aliases."""
    a = rng.random((h, w))
    for _ in range(passes):
        a = _box_filter(a, size)
    a -= a.min()
    a /= a.max()
    return (a * 220 + 16).astype(np.uint8)


def _add_noise(rng: np.random.Generator, frames: np.ndarray, amplitude: int) -> np.ndarray:
    noise = rng.integers(-amplitude, amplitude + 1, frames.shape, dtype=np.int16)
    return np.clip(frames.astype(np.int16) + noise, 0, 255).astype(np.uint8)


def pan_frames(seed: int) -> np.ndarray:
    """Random-walk global pan of up to +-3 px per frame and axis over a smooth
    texture, a 40x40 textured patch moving on its own, and +-3 noise."""
    rng = np.random.default_rng([seed, 1])
    margin = 24
    canvas = smooth_texture(rng, HEIGHT + 2 * margin, WIDTH + 2 * margin)
    patch = smooth_texture(rng, 40, 40, passes=1, size=3)
    frames = np.empty((PAN_FRAMES, HEIGHT, WIDTH), dtype=np.uint8)
    off = np.zeros(2, dtype=np.int64)  # pan offset (x, y) within the margin
    pos = np.array([WIDTH // 2 - 20, HEIGHT // 2 - 20], dtype=np.int64)  # patch (x, y)
    hi = np.array([WIDTH - 40, HEIGHT - 40])
    for k in range(PAN_FRAMES):
        if k:
            step = rng.integers(-3, 4, 2)
            off = np.where(np.abs(off + step) > margin, off - step, off + step)
            move = rng.integers(-2, 3, 2)
            pos = np.where((pos + move < 0) | (pos + move > hi), pos - move, pos + move)
        x0, y0 = margin + off
        f = canvas[y0 : y0 + HEIGHT, x0 : x0 + WIDTH].copy()
        f[pos[1] : pos[1] + 40, pos[0] : pos[0] + 40] = patch
        frames[k] = f
    return _add_noise(rng, frames, 3)


def static_frames(seed: int) -> np.ndarray:
    """Static smooth background, one 20x20 high-contrast patch that steps
    1 px on every other frame, and +-1 noise: nearly every block is static."""
    rng = np.random.default_rng([seed, 2])
    background = smooth_texture(rng, HEIGHT, WIDTH)
    patch = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    frames = np.broadcast_to(background, (STATIC_FRAMES, HEIGHT, WIDTH)).copy()
    lo = np.array([40, 40])
    hi = np.array([100, 80])
    pos = lo + rng.integers(0, 40, 2)
    for k in range(STATIC_FRAMES):
        if k % 2:
            move = rng.integers(-1, 2, 2)
            pos = np.clip(pos + move, lo, hi)
        frames[k, pos[1] : pos[1] + 20, pos[0] : pos[0] + 20] = patch
    return _add_noise(rng, frames, 1)


def write_y4m(path: Path, frames: np.ndarray) -> None:
    chroma = bytes([128]) * CHROMA_420_BYTES
    parts = [f"YUV4MPEG2 W{WIDTH} H{HEIGHT} F30:1 Ip A1:1 C420jpeg\n".encode()]
    for f in frames:
        parts += [b"FRAME\n", f.tobytes(), chroma]
    path.write_bytes(b"".join(parts))


def write_yuv(path: Path, frames: np.ndarray) -> None:
    chroma = bytes([128]) * CHROMA_420_BYTES
    path.write_bytes(b"".join(f.tobytes() + chroma for f in frames))


def make_clip(kind: str, seed: int, work: Path) -> Clip:
    """Generate the clip for workload input `kind` ("pan" or "static") into
    the directory `work`."""
    work.mkdir(parents=True, exist_ok=True)
    if kind == "pan":
        frames, path = pan_frames(seed), work / f"pan_s{seed}.y4m"
        write_y4m(path, frames)
        args: tuple[str, ...] = ("--input", path.name)
    elif kind == "static":
        frames, path = static_frames(seed), work / f"still_s{seed}.yuv"
        write_yuv(path, frames)
        args = ("--input", path.name, "--width", str(WIDTH), "--height", str(HEIGHT))
    else:
        raise ValueError(f"unknown clip kind {kind!r}")
    if any(name in path.name.lower() for name in _FORBIDDEN):
        raise ValueError(f"clip name {path.name!r} would match a standard sequence name")
    return Clip(path, frames, args)
