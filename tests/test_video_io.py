import tracemalloc

import numpy as np
import pytest

from mebench import Frame, Sequence, VideoFormatError, load_raw_yuv, load_y4m, read_pgm, write_pgm

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
