"""Luma-only frame IO: YUV4MPEG2 and headerless planar YUV readers, PGM writer.

Chroma planes are parsed and discarded; all processing downstream is on the
luma plane only.
"""

from __future__ import annotations

import re
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


_Y4M_CHROMA = {b"420": "420", b"420jpeg": "420", b"420mpeg2": "420", b"420paldv": "420", b"mono": "400"}


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


# Largest single read. A header can claim any frame size, so a payload is
# read in pieces of at most this many bytes and grows only as the file
# delivers them; a short file then fails as truncated, not out of memory.
_READ_CHUNK = 1 << 24


def _read_payload(f, size: int) -> bytes:
    """Up to `size` bytes from f, fewer only at end of file; one piece comes back uncopied."""
    parts = []
    while size:
        part = f.read(min(size, _READ_CHUNK))
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _luma_frame(payload: bytes, width: int, height: int) -> Frame:
    """The luma plane that leads one frame's payload, as a Frame of its own."""
    return Frame(np.frombuffer(payload, np.uint8, width * height).reshape(height, width).copy())


def load_y4m(path: str | Path, max_frames: int | None = None) -> Sequence:
    """Read a YUV4MPEG2 stream frame by frame, keeping only the luma plane.

    Accepts 4:2:0 (C420 and its jpeg/mpeg2/paldv siting variants) and
    mono (Cmono) streams. Raises VideoFormatError on anything malformed,
    naming the offending header token or frame index.
    """
    _check_max_frames(max_frames)
    with open(path, "rb") as f:
        header = f.readline()
        if not header.endswith(b"\n"):
            raise VideoFormatError("no newline-terminated stream header found")
        tokens = header[:-1].split(b" ")
        if tokens[0] != b"YUV4MPEG2":
            raise VideoFormatError(f"bad signature token {tokens[0]!r}, expected 'YUV4MPEG2'")

        dims: dict[bytes, int] = {}
        chroma = "420"  # stream default when no C token is present
        for tok in filter(None, tokens[1:]):
            tag, text = tok[:1], tok.decode("ascii", "replace")
            if tag == b"C":
                if tok[1:] not in _Y4M_CHROMA:
                    raise VideoFormatError(f"unsupported chroma token {text!r}")
                chroma = _Y4M_CHROMA[tok[1:]]
            elif tag in (b"W", b"H"):
                try:
                    dims[tag] = int(tok[1:])
                except ValueError:
                    raise VideoFormatError(f"unparseable header token {text!r}") from None
        if b"W" not in dims:
            raise VideoFormatError("missing required header token 'W' (frame width)")
        if b"H" not in dims:
            raise VideoFormatError("missing required header token 'H' (frame height)")
        width, height = dims[b"W"], dims[b"H"]
        if width <= 0 or height <= 0:
            raise VideoFormatError(f"non-positive dimensions {width}x{height} in header")

        frame_size = width * height + _chroma_bytes(width, height, chroma)
        frames: list[Frame] = []
        while max_frames is None or len(frames) < max_frames:
            marker = f.readline()
            if not marker:
                break
            if not marker.endswith(b"\n"):
                raise VideoFormatError(f"frame {len(frames)}: unterminated FRAME marker")
            if marker[:6] not in (b"FRAME ", b"FRAME\n"):
                raise VideoFormatError(
                    f"frame {len(frames)}: expected FRAME marker, got {marker[:-1][:16]!r}"
                )
            payload = _read_payload(f, frame_size)
            if len(payload) < frame_size:
                raise VideoFormatError(
                    f"frame {len(frames)}: truncated payload, "
                    f"{len(payload)} of {frame_size} bytes present"
                )
            frames.append(_luma_frame(payload, width, height))
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
    """Read headerless planar YUV frame by frame, keeping luma only.

    chroma: "420" (default) or "400" (luma-only file). Reading stops at
    max_frames when given; otherwise any trailing partial frame is an error.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"dimensions must be positive, got {width}x{height}")
    _check_max_frames(max_frames)
    frame_size = width * height + _chroma_bytes(width, height, chroma)
    frames: list[Frame] = []
    with open(path, "rb") as f:
        while max_frames is None or len(frames) < max_frames:
            payload = _read_payload(f, frame_size)
            if len(payload) < frame_size:
                break
            frames.append(_luma_frame(payload, width, height))
    # unless max_frames stopped the loop, payload holds the bytes after the last full frame
    if not frames:
        raise VideoFormatError(
            f"file holds no full {width}x{height} frame ({len(payload)} bytes, "
            f"frame size {frame_size})"
        )
    if len(frames) != max_frames and payload:
        raise VideoFormatError(
            f"trailing partial frame: {len(payload)} bytes remain "
            f"after {len(frames)} full frames"
        )
    return Sequence(tuple(frames))


def write_pgm(frame: Frame, path: str | Path) -> None:
    """Write a frame as binary PGM (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.luma.tobytes())


# P5 header: magic, width, height and maxval, split by whitespace and '#'
# comment lines; one whitespace byte, absent at end of file, ends it. A field
# ends only at whitespace and a comment starts only where a field could, so
# each byte has one reading and a failed match gives up in linear time.
_PGM_SEP = rb"(?:\s|#[^\n]*\n)*"
_PGM_HEADER = re.compile(_PGM_SEP + (rb"\s" + _PGM_SEP).join([rb"([^\s#]\S*)"] * 4) + rb"\s?")


def read_pgm(path: str | Path) -> Frame:
    """Read a binary PGM (P5, maxval 255), header comments included."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise VideoFormatError("truncated PGM header")
    magic, *fields = header.groups()
    if magic != b"P5":
        raise VideoFormatError(f"bad PGM magic {magic!r}")
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise VideoFormatError(f"non-numeric PGM header fields {fields!r}") from None
    if width <= 0 or height <= 0:
        raise VideoFormatError(f"non-positive dimensions {width}x{height} in PGM header")
    if maxval != 255:
        raise VideoFormatError(f"unsupported PGM maxval {maxval}")
    payload = data[header.end() : header.end() + width * height]
    if len(payload) != width * height:
        raise VideoFormatError(
            f"PGM payload holds {len(payload)} bytes, expected {width * height}"
        )
    return Frame(np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy())
