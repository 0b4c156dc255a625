import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mebench import Frame, Sequence, VideoFormatError, load_raw_yuv, load_y4m, read_pgm, video_io, write_pgm
from mebench.cli import main

from conftest import noise_frame, write_y4m


def test_y4m_two_frame_qcif(tmp_path):
    lumas = [np.full((144, 176), 60, np.uint8), np.full((144, 176), 61, np.uint8)]
    path = tmp_path / "two.y4m"
    write_y4m(path, lumas)
    seq = load_y4m(path)
    assert len(seq) == 2
    assert (seq.width, seq.height) == (176, 144)


def test_y4m_missing_width_token(tmp_path):
    path = tmp_path / "bad.y4m"
    write_y4m(path, [np.zeros((16, 16), np.uint8)], header=b"YUV4MPEG2 H16 F25:1\n")
    with pytest.raises(VideoFormatError, match="W"):
        load_y4m(path)


def test_y4m_bad_signature(tmp_path):
    path = tmp_path / "bad.y4m"
    path.write_bytes(b"YUV4MPEG9 W16 H16\nFRAME\n" + bytes(16 * 16 * 3 // 2))
    with pytest.raises(VideoFormatError, match="YUV4MPEG"):
        load_y4m(path)


def test_y4m_unsupported_chroma(tmp_path):
    path = tmp_path / "c444.y4m"
    path.write_bytes(b"YUV4MPEG2 W16 H16 C444\n")
    with pytest.raises(VideoFormatError, match="C444"):
        load_y4m(path)


def test_y4m_payload_roundtrip_uniform_128(tmp_path):
    # written with the scripted generator, read back, compared byte for byte
    luma = np.full((32, 48), 128, np.uint8)
    path = tmp_path / "u.y4m"
    write_y4m(path, [luma], chroma_value=7)
    seq = load_y4m(path)
    assert (seq[0].luma == 128).all()
    assert seq[0].luma.tobytes() == luma.tobytes()


def test_y4m_chroma_discarded(tmp_path):
    luma = noise_frame(32, 48, 5).luma
    a = tmp_path / "a.y4m"
    b = tmp_path / "b.y4m"
    write_y4m(a, [luma], chroma_value=0)
    write_y4m(b, [luma], chroma_value=255)
    assert (load_y4m(a)[0].luma == load_y4m(b)[0].luma).all()


def test_y4m_mono(tmp_path):
    luma = noise_frame(16, 16, 1).luma
    path = tmp_path / "m.y4m"
    path.write_bytes(b"YUV4MPEG2 W16 H16 F25:1 Cmono\nFRAME\n" + luma.tobytes())
    seq = load_y4m(path)
    assert (seq[0].luma == luma).all()


@pytest.mark.parametrize("tag", [b"C420", b"C420jpeg", b"C420mpeg2", b"C420paldv"])
def test_y4m_420_siting_variants(tmp_path, tag):
    luma = noise_frame(16, 16, 2).luma
    path = tmp_path / "v.y4m"
    payload = luma.tobytes() + bytes(8 * 8 * 2)
    path.write_bytes(b"YUV4MPEG2 W16 H16 " + tag + b"\nFRAME\n" + payload)
    assert (load_y4m(path)[0].luma == luma).all()


def test_y4m_truncated_frame_names_index(tmp_path):
    luma = np.zeros((16, 16), np.uint8)
    path = tmp_path / "t.y4m"
    write_y4m(path, [luma, luma])
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(VideoFormatError, match="frame 1"):
        load_y4m(path)


def test_y4m_bad_frame_marker(tmp_path):
    path = tmp_path / "f.y4m"
    path.write_bytes(b"YUV4MPEG2 W16 H16 Cmono\nFRAMX\n" + bytes(256))
    with pytest.raises(VideoFormatError, match="FRAME"):
        load_y4m(path)


def test_y4m_frame_marker_takes_parameters(tmp_path):
    # FRAME ends at a newline or at the space before its parameter list
    path = tmp_path / "f.y4m"
    path.write_bytes(b"YUV4MPEG2 W16 H16 Cmono\nFRAME Ip XYZ\n" + bytes(256) + b"FRAME\n" + bytes(256))
    assert len(load_y4m(path)) == 2


def test_y4m_max_frames(tmp_path):
    luma = np.zeros((16, 16), np.uint8)
    path = tmp_path / "n.y4m"
    write_y4m(path, [luma] * 5)
    assert len(load_y4m(path, max_frames=3)) == 3


def test_y4m_header_without_frames(tmp_path):
    path = tmp_path / "empty.y4m"
    path.write_bytes(b"YUV4MPEG2 W16 H16 Cmono\n")
    with pytest.raises(VideoFormatError, match="no frames"):
        load_y4m(path)


# 176*144*3/2 per QCIF 4:2:0 frame
QCIF_FRAME_BYTES = 38016


def test_raw_yuv_full_file(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, QCIF_FRAME_BYTES * 100, dtype=np.uint8).tobytes()
    path = tmp_path / "clip.yuv"
    path.write_bytes(data)
    seq = load_raw_yuv(path, 176, 144)
    assert len(seq) == 100
    # each luma plane is exactly the leading w*h bytes of its frame slot
    for i in (0, 37, 99):
        start = i * QCIF_FRAME_BYTES
        assert seq[i].luma.tobytes() == data[start : start + 176 * 144]


def test_raw_yuv_max_frames(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(QCIF_FRAME_BYTES * 100))
    assert len(load_raw_yuv(path, 176, 144, max_frames=90)) == 90


def test_raw_yuv_partial_frame(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(QCIF_FRAME_BYTES + 1))
    with pytest.raises(VideoFormatError, match="1 bytes remain"):
        load_raw_yuv(path, 176, 144)


def test_raw_yuv_partial_frame_excused_by_max_frames(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(QCIF_FRAME_BYTES + 1))
    assert len(load_raw_yuv(path, 176, 144, max_frames=1)) == 1


def test_raw_yuv_no_full_frame(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(100))
    with pytest.raises(VideoFormatError, match="no full"):
        load_raw_yuv(path, 176, 144)


def test_raw_yuv_mono(tmp_path):
    luma = noise_frame(8, 8, 3).luma
    path = tmp_path / "m.yuv"
    path.write_bytes(luma.tobytes() * 2)
    seq = load_raw_yuv(path, 8, 8, chroma="400")
    assert len(seq) == 2
    assert (seq[1].luma == luma).all()


def test_pgm_payload_bytes(tmp_path):
    frame = Frame(np.array([[0, 255], [128, 64]], np.uint8))
    path = tmp_path / "f.pgm"
    write_pgm(frame, path)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])


def test_pgm_qcif_header(tmp_path):
    frame = noise_frame(144, 176, 9)
    path = tmp_path / "q.pgm"
    write_pgm(frame, path)
    # byte-compare against an independently assembled header
    assert path.read_bytes().startswith(b"P5\n176 144\n255\n")


def test_pgm_roundtrip(tmp_path):
    for seed in range(3):
        frame = noise_frame(24, 40, seed)
        path = tmp_path / f"r{seed}.pgm"
        write_pgm(frame, path)
        back = read_pgm(path)
        assert (back.luma == frame.luma).all()


def test_background_writer_writes_in_order_once_the_block_ends(tmp_path, monkeypatch):
    write = video_io.write_file
    gate, order = threading.Event(), []

    def held(path, data):
        assert gate.wait(timeout=60)
        order.append(path.name)
        write(path, data)

    monkeypatch.setattr(video_io, "write_file", held)
    names = [f"{i}.bin" for i in range(video_io.MAX_PENDING_WRITES + 1)]  # the thread holds the first
    with video_io.BackgroundWriter() as writer:
        for i, name in enumerate(names):
            writer.put(tmp_path / name, bytes([i]))
        gate.set()
    assert order == names
    assert [(tmp_path / name).read_bytes() for name in names] == [bytes([i]) for i in range(len(names))]


def test_a_failed_background_write_is_raised_by_the_next_put(tmp_path):
    puts = 0
    with pytest.raises(FileNotFoundError):
        with video_io.BackgroundWriter() as writer:
            writer.put(tmp_path / "absent" / "first.pgm", b"P5")
            for puts in range(1, 10_000):  # until the thread has failed
                time.sleep(0.001)
                writer.put(tmp_path / f"{puts}.pgm", b"P5")
    assert puts < 9_999  # raised by a put, not on exit
    assert list(tmp_path.iterdir()) == []  # nothing written after the failure


def test_background_writer_stops_at_its_first_failure_under_frequent_thread_switches(tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fail_at in (1, 37, 200):
            out = tmp_path / str(fail_at)
            out.mkdir()
            paths = [out / f"{i:03d}" for i in range(200)]
            paths[fail_at - 1] = out / "absent" / "x"
            with pytest.raises(FileNotFoundError, match="absent"):
                with video_io.BackgroundWriter() as writer:
                    for path in paths:
                        writer.put(path, b"x")
            assert sorted(out.iterdir()) == paths[: fail_at - 1]
    finally:
        sys.setswitchinterval(interval)


class ShortFile:
    """A file whose every write leaves out the last byte of its data."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        return self.file.write(data[:-1])


def short_writes(monkeypatch) -> list[threading.Thread]:
    """Make every file video_io opens for writing write one byte short; the
    list gets the thread of each such open."""
    threads = []

    def opened(path, mode="r", *args, **kwargs):
        file = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return file
        threads.append(threading.current_thread())
        return ShortFile(file)

    monkeypatch.setattr(video_io, "open", opened, raising=False)
    return threads


def test_a_short_write_raises(tmp_path, monkeypatch):
    short_writes(monkeypatch)
    path = tmp_path / "x.bin"
    with pytest.raises(OSError) as exc:
        video_io.write_file(path, b"abcd")
    assert str(exc.value) == f"wrote 3 of 4 bytes to {str(path)!r}"


def test_a_short_dump_write_exits_2_and_writes_no_csv(tmp_path, monkeypatch, capsys):
    clip, out = tmp_path / "clip.y4m", tmp_path / "o"
    write_y4m(clip, [noise_frame(32, 48, seed).luma for seed in range(3)])
    threads = short_writes(monkeypatch)
    assert main(["run", "--input", str(clip), "--algos", "ds", "--out", str(out), "--dump-recon"]) == 2
    size = len(b"P5\n48 32\n255\n") + 32 * 48
    first = str(out / "recon" / "ds_frame0001.pgm")
    assert capsys.readouterr().err == f"mebench: i/o error: wrote {size - 1} of {size} bytes to {first!r}\n"
    assert threads and threading.main_thread() not in threads  # written by the background writer
    assert not list(out.glob("*.csv"))


def test_pgm_header_comments_are_read(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 # width\n2\n#\n255\n" + bytes([0, 255, 128, 64]))
    assert read_pgm(path).luma.tolist() == [[0, 255], [128, 64]]


# The full text of every VideoFormatError read_pgm raises.
PGM_ERRORS = [
    (b"P5\n2 2\n", "truncated PGM header"),
    (b"P6\n2 2\n255\n" + bytes(12), "bad PGM magic b'P6'"),
    (b"P5\n2 x\n255\n" + bytes(4), "non-numeric PGM header fields [b'2', b'x', b'255']"),
    (b"P5\n2 2\n65535\n" + bytes(8), "unsupported PGM maxval 65535"),
    (b"P5\n2 2\n255\n" + bytes(3), "PGM payload holds 3 bytes, expected 4"),
    (b"P5\n2 2\n255", "PGM payload holds 0 bytes, expected 4"),
    (b"P5\n2 2 # no newline", "truncated PGM header"),
    (b"P5 -2 -2 255\n", "non-positive dimensions -2x-2 in PGM header"),
    (b"P5 0 0 255\n", "non-positive dimensions 0x0 in PGM header"),
]


@pytest.mark.parametrize(
    "data,message",
    PGM_ERRORS,
    ids=[
        "truncated",
        "p6",
        "non-numeric",
        "maxval",
        "short",
        "no-payload",
        "open-comment",
        "negative-size",
        "zero-size",
    ],
)
def test_pgm_error_text(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(VideoFormatError) as info:
        read_pgm(path)
    assert str(info.value) == message


@pytest.mark.parametrize("body", [b"a#" * 200_000, b"\n#" * 200_000, b" " * 400_000])
def test_pgm_malformed_header_fails_fast(tmp_path, body):
    # a header pattern that could split a field at '#' took 96 s on the first body
    path = tmp_path / "slow.pgm"
    path.write_bytes(b"P5 " + body)
    start = time.perf_counter()
    with pytest.raises(VideoFormatError, match="truncated PGM header"):
        read_pgm(path)
    assert time.perf_counter() - start < 2.0


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(np.zeros((4, 4), np.float64))
    with pytest.raises(ValueError):
        Frame(np.zeros(16, np.uint8))


def test_sequence_dimension_homogeneity():
    a = Frame(np.zeros((16, 16), np.uint8))
    b = Frame(np.zeros((16, 32), np.uint8))
    with pytest.raises(ValueError, match="frame 1"):
        Sequence((a, b))


def test_empty_sequence_text():
    with pytest.raises(ValueError) as info:
        Sequence(())
    assert str(info.value) == "sequence must contain at least one frame"


def test_raw_yuv_dimensions_text(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(QCIF_FRAME_BYTES))
    for width, height in ((0, 16), (16, 0)):
        with pytest.raises(ValueError) as info:
            load_raw_yuv(path, width, height)
        assert str(info.value) == f"dimensions must be positive, got {width}x{height}"


def _y4m_two_frames_cut_10() -> bytes:
    luma = bytes(16 * 16)
    frame = b"FRAME\n" + luma + bytes(8 * 8 * 2)
    return (b"YUV4MPEG2 W16 H16\n" + frame * 2)[:-10]


# The full text of every VideoFormatError the two decoders raise.
DECODER_ERRORS = [
    ("y4m", b"YUV4MPEG2 W16 H16", "no newline-terminated stream header found"),
    ("y4m", b"YUV4MPEG9 W16 H16\n", "bad signature token b'YUV4MPEG9', expected 'YUV4MPEG2'"),
    ("y4m", b"YUV4MPEG2 H16\n", "missing required header token 'W' (frame width)"),
    ("y4m", b"YUV4MPEG2 W16\n", "missing required header token 'H' (frame height)"),
    ("y4m", b"YUV4MPEG2 W16 H1x6\n", "unparseable header token 'H1x6'"),
    ("y4m", b"YUV4MPEG2 W0 H16\n", "non-positive dimensions 0x16 in header"),
    ("y4m", b"YUV4MPEG2 W16 H16 C444\n", "unsupported chroma token 'C444'"),
    ("y4m", b"YUV4MPEG2 W15 H16\n", "4:2:0 needs even dimensions, got 15x16"),
    ("y4m", b"YUV4MPEG2 W16 H16 Cmono\nFRAME", "frame 0: unterminated FRAME marker"),
    (
        "y4m",
        b"YUV4MPEG2 W16 H16 Cmono\nFRAMX\n" + bytes(256),
        "frame 0: expected FRAME marker, got b'FRAMX'",
    ),
    (
        "y4m",
        b"YUV4MPEG2 W16 H16 Cmono\nFRAMEX\n" + bytes(256),
        "frame 0: expected FRAME marker, got b'FRAMEX'",
    ),
    ("y4m", _y4m_two_frames_cut_10(), "frame 1: truncated payload, 374 of 384 bytes present"),
    ("y4m", b"YUV4MPEG2 W16 H16 Cmono\n", "stream contains no frames"),
    ("yuv", bytes(100), "file holds no full 176x144 frame (100 bytes, frame size 38016)"),
    ("yuv", b"", "file holds no full 176x144 frame (0 bytes, frame size 38016)"),
    (
        "yuv",
        bytes(2 * QCIF_FRAME_BYTES + 5),
        "trailing partial frame: 5 bytes remain after 2 full frames",
    ),
]


@pytest.mark.parametrize("container,data,message", DECODER_ERRORS)
def test_decoder_error_text(tmp_path, container, data, message):
    path = tmp_path / f"clip.{container}"
    path.write_bytes(data)
    with pytest.raises(VideoFormatError) as info:
        if container == "y4m":
            load_y4m(path)
        else:
            load_raw_yuv(path, 176, 144)
    assert str(info.value) == message


def test_raw_yuv_unsupported_chroma_text(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(QCIF_FRAME_BYTES))
    with pytest.raises(VideoFormatError) as info:
        load_raw_yuv(path, 176, 144, chroma="422")
    assert str(info.value) == "unsupported chroma format '422'"


@pytest.mark.parametrize("container", ["y4m", "yuv"])
def test_decode_memory_is_luma_plus_a_few_frames(tmp_path, container):
    n, h, w = 60, 144, 176
    lumas = np.random.default_rng(0).integers(0, 256, (n, h, w), dtype=np.uint8)
    path = tmp_path / f"clip.{container}"
    if container == "y4m":
        write_y4m(path, list(lumas))
    else:
        chroma = bytes(QCIF_FRAME_BYTES - h * w)
        path.write_bytes(b"".join(luma.tobytes() + chroma for luma in lumas))
    tracemalloc.start()
    try:
        seq = load_y4m(path) if container == "y4m" else load_raw_yuv(path, w, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == n and seq[n - 1].luma.tobytes() == lumas[n - 1].tobytes()
    assert peak < lumas.nbytes + 4 * QCIF_FRAME_BYTES, peak


# A header, or --width/--height, may claim frames far larger than the file.
# The decoders read only what the file holds and report the short read; they
# never size one read from the claim (a 10**16-byte read raised MemoryError).
OVERSIZED = [
    (
        "y4m",
        b"YUV4MPEG2 W100000000 H100000000 Cmono\nFRAME\nabc",
        [],
        "frame 0: truncated payload, 3 of 10000000000000000 bytes present",
    ),
    (
        "yuv",
        b"abc",
        ["--width", "100000000", "--height", "100000000", "--chroma", "400"],
        "file holds no full 100000000x100000000 frame (3 bytes, frame size 10000000000000000)",
    ),
]


@pytest.mark.parametrize("container,data,flags,message", OVERSIZED)
def test_oversized_frame_claim_is_a_short_read(tmp_path, capsys, container, data, flags, message):
    path = tmp_path / f"clip.{container}"
    path.write_bytes(data)
    with pytest.raises(VideoFormatError) as info:
        if container == "y4m":
            load_y4m(path)
        else:
            load_raw_yuv(path, 10**8, 10**8, chroma="400")
    assert str(info.value) == message
    assert main(["run", "--input", str(path), *flags, "--algos", "es", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"mebench: malformed input: {message}\n"


@pytest.mark.parametrize("container", ["y4m", "yuv"])
def test_frames_read_in_pieces_from_a_pipe(tmp_path, monkeypatch, container):
    monkeypatch.setattr(video_io, "_READ_CHUNK", 100)  # a 16x16 4:2:0 frame is 384 bytes
    lumas = np.random.default_rng(1).integers(0, 256, (3, 16, 16), dtype=np.uint8)
    clip = tmp_path / "clip"
    if container == "y4m":
        write_y4m(clip, list(lumas))
    else:
        clip.write_bytes(b"".join(luma.tobytes() + bytes(128) for luma in lumas))
    data = clip.read_bytes()
    for payload, cut in ((data, None), (data[:-10], "truncated")):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(payload))
        writer.start()
        try:
            if cut is None:
                seq = load_y4m(fifo) if container == "y4m" else load_raw_yuv(fifo, 16, 16)
                assert [f.luma.tobytes() for f in seq.frames] == [luma.tobytes() for luma in lumas]
            else:
                expected = (
                    "frame 2: truncated payload, 374 of 384 bytes present"
                    if container == "y4m"
                    else "trailing partial frame: 374 bytes remain after 2 full frames"
                )
                with pytest.raises(VideoFormatError) as info:
                    load_y4m(fifo) if container == "y4m" else load_raw_yuv(fifo, 16, 16)
                assert str(info.value) == expected
        finally:
            writer.join()
            fifo.unlink()
