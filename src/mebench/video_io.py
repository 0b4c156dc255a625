"""Luma-only frame IO: YUV4MPEG2 and headerless planar YUV readers, PGM writer.

Chroma planes are parsed and discarded; all processing downstream is on the
luma plane only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class VideoFormatError(ValueError):
    """Malformed or unsupported video container data."""


@dataclass(frozen=True)
class Frame:
    """One 8-bit luma plane, stored as a (height, width) uint8 array."""

    luma: np.ndarray

    def __post_init__(self):
        if self.luma.ndim != 2 or self.luma.size == 0:
            raise ValueError(f"luma must be a non-empty 2-D array, got shape {self.luma.shape}")
        if self.luma.dtype != np.uint8:
            raise ValueError(f"luma must be uint8, got {self.luma.dtype}")

    @property
    def width(self) -> int:
        return self.luma.shape[1]

    @property
    def height(self) -> int:
        return self.luma.shape[0]


@dataclass(frozen=True)
class Sequence:
    """An ordered list of same-sized frames."""

    frames: tuple[Frame, ...]

    def __post_init__(self):
        if not self.frames:
            raise ValueError("sequence must contain at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for i, f in enumerate(self.frames):
            if f.width != w or f.height != h:
                raise ValueError(
                    f"frame {i} is {f.width}x{f.height}, expected {w}x{h}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i) -> Frame:
        return self.frames[i]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height


def _chroma_bytes(width: int, height: int, chroma: str) -> int:
    if chroma == "420":
        if width % 2 or height % 2:
            raise VideoFormatError(
                f"4:2:0 needs even dimensions, got {width}x{height}"
            )
        return (width // 2) * (height // 2) * 2
    if chroma == "400":
        return 0
    raise VideoFormatError(f"unsupported chroma format {chroma!r}")


def _check_max_frames(max_frames: int | None) -> None:
    if max_frames is not None and max_frames < 1:
        raise ValueError(f"--frames (max_frames) must be >= 1, got {max_frames}")


def load_y4m(path: str | Path, max_frames: int | None = None) -> Sequence:
    """Read a YUV4MPEG2 stream, keeping only the luma plane of each frame.

    Accepts 4:2:0 (C420 and its jpeg/mpeg2/paldv siting variants) and
    mono (Cmono) streams. Raises VideoFormatError on anything malformed,
    naming the offending header token or frame index.
    """
    _check_max_frames(max_frames)
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise VideoFormatError("no newline-terminated stream header found")
    header = data[:nl]
    tokens = header.split(b" ")
    if tokens[0] != b"YUV4MPEG2":
        raise VideoFormatError(f"bad signature token {tokens[0]!r}, expected 'YUV4MPEG2'")

    width = height = None
    chroma = "420"  # stream default when no C token is present
    for tok in tokens[1:]:
        if not tok:
            continue
        tag, val = chr(tok[0]), tok[1:]
        try:
            if tag == "W":
                width = int(val)
            elif tag == "H":
                height = int(val)
            elif tag == "C":
                cs = val.decode("ascii", "replace")
                if cs in ("420", "420jpeg", "420mpeg2", "420paldv"):
                    chroma = "420"
                elif cs == "mono":
                    chroma = "400"
                else:
                    raise VideoFormatError(f"unsupported chroma token {tok.decode('ascii', 'replace')!r}")
        except ValueError as exc:
            if isinstance(exc, VideoFormatError):
                raise
            raise VideoFormatError(f"unparseable header token {tok.decode('ascii', 'replace')!r}") from None
    if width is None:
        raise VideoFormatError("missing required header token 'W' (frame width)")
    if height is None:
        raise VideoFormatError("missing required header token 'H' (frame height)")
    if width <= 0 or height <= 0:
        raise VideoFormatError(f"non-positive dimensions {width}x{height} in header")

    luma_size = width * height
    frame_size = luma_size + _chroma_bytes(width, height, chroma)
    frames: list[Frame] = []
    pos = nl + 1
    while pos < len(data):
        if max_frames is not None and len(frames) >= max_frames:
            break
        fnl = data.find(b"\n", pos)
        if fnl < 0:
            raise VideoFormatError(f"frame {len(frames)}: unterminated FRAME marker")
        marker = data[pos:fnl]
        if not marker.startswith(b"FRAME"):
            raise VideoFormatError(
                f"frame {len(frames)}: expected FRAME marker, got {marker[:16]!r}"
            )
        payload = data[fnl + 1 : fnl + 1 + frame_size]
        if len(payload) < frame_size:
            raise VideoFormatError(
                f"frame {len(frames)}: truncated payload, "
                f"{len(payload)} of {frame_size} bytes present"
            )
        luma = np.frombuffer(payload[:luma_size], dtype=np.uint8).reshape(height, width)
        frames.append(Frame(luma.copy()))
        pos = fnl + 1 + frame_size
    if not frames:
        raise VideoFormatError("stream contains no frames")
    return Sequence(tuple(frames))


def load_raw_yuv(
    path: str | Path,
    width: int,
    height: int,
    max_frames: int | None = None,
    chroma: str = "420",
) -> Sequence:
    """Read headerless planar YUV, keeping luma only.

    chroma: "420" (default) or "400" (luma-only file). Reading stops at
    max_frames when given; otherwise any trailing partial frame is an error.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"dimensions must be positive, got {width}x{height}")
    _check_max_frames(max_frames)
    luma_size = width * height
    frame_size = luma_size + _chroma_bytes(width, height, chroma)
    data = Path(path).read_bytes()

    n_full = len(data) // frame_size
    if max_frames is not None:
        n = min(n_full, max_frames)
    else:
        n = n_full
    if n == 0:
        raise VideoFormatError(
            f"file holds no full {width}x{height} frame ({len(data)} bytes, "
            f"frame size {frame_size})"
        )
    if (max_frames is None or n_full < max_frames) and len(data) % frame_size:
        raise VideoFormatError(
            f"trailing partial frame: {len(data) % frame_size} bytes remain "
            f"after {n_full} full frames"
        )

    frames = []
    for i in range(n):
        start = i * frame_size
        luma = np.frombuffer(data[start : start + luma_size], dtype=np.uint8)
        frames.append(Frame(luma.reshape(height, width).copy()))
    return Sequence(tuple(frames))


def write_pgm(frame: Frame, path: str | Path) -> None:
    """Write a frame as binary PGM (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.luma.tobytes())


def read_pgm(path: str | Path) -> Frame:
    """Read a binary PGM (P5, maxval 255) written by write_pgm."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    # P5 header = magic, width, height, maxval separated by whitespace,
    # with optional '#' comment lines
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise VideoFormatError("unterminated comment in PGM header")
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise VideoFormatError("truncated PGM header")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise VideoFormatError(f"bad PGM magic {fields[0]!r}")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise VideoFormatError(f"non-numeric PGM header fields {fields[1:]!r}") from None
    if maxval != 255:
        raise VideoFormatError(f"unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) != width * height:
        raise VideoFormatError(
            f"PGM payload holds {len(payload)} bytes, expected {width * height}"
        )
    return Frame(np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy())
