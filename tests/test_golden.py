"""Golden-output lock: sha256 pins of every file and stdout the CLI writes.

Each case builds a small clip in code, runs `mebench` through `cli.main`
from inside the temporary directory with relative paths (so meta.json's
input echo does not depend on where the test runs), and compares the
digests of per_frame.csv, summary.csv, gains.csv, meta.json, the .mvf and
.pgm dumps and stdout against the pins below. A refactor that keeps these
hashes keeps the program's observable behaviour byte for byte.

The dumps of one run are pinned as one digest per directory, taken over
the sorted file names and their bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mebench.cli import main

from conftest import smooth_texture, write_y4m


def make_lumas(h: int, w: int, n: int, seed: int) -> list[np.ndarray]:
    """Static noisy left half; the right half pans so its vector is (-2, -1)."""
    base = smooth_texture(h + 16, w + 16, seed)
    rng = np.random.default_rng(seed)
    half = w // 2
    lumas = []
    for k in range(n):
        f = base[8 : 8 + h, 8 : 8 + w].astype(int)
        f[:, half:] = base[8 - k : 8 - k + h, 8 + half - 2 * k : 8 + w - 2 * k]
        f += rng.integers(-2, 3, f.shape)
        lumas.append(np.clip(f, 0, 255).astype(np.uint8))
    return lumas


def write_yuv(path: Path, lumas: list[np.ndarray]) -> None:
    """Headerless planar 4:2:0 with flat chroma."""
    h, w = lumas[0].shape
    chroma = bytes([128]) * ((w // 2) * (h // 2) * 2)
    path.write_bytes(b"".join(y.tobytes() + chroma for y in lumas))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: Path, stdout: str) -> dict[str, str]:
    """Digest of each report file, of each dump directory and of stdout."""
    got = {"stdout": digest(stdout.encode())}
    for p in sorted(out.iterdir()):
        if p.is_dir():
            h = hashlib.sha256()
            for f in sorted(p.iterdir()):
                h.update(f.name.encode() + b"\0" + f.read_bytes())
            got[p.name + "/"] = h.hexdigest()
        else:
            got[p.name] = digest(p.read_bytes())
    return got


@pytest.fixture
def clips(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lumas = make_lumas(48, 64, 4, seed=61)
    write_y4m(tmp_path / "clip.y4m", lumas)
    write_y4m(tmp_path / "odd.y4m", make_lumas(44, 60, 3, seed=62))
    write_yuv(tmp_path / "akiyo_small.yuv", lumas)
    other = make_lumas(48, 64, 4, seed=63)
    write_y4m(tmp_path / "other.y4m", other)
    write_yuv(tmp_path / "other.yuv", other)
    return tmp_path


RUN_CASES = {
    "all-matchers": [
        "--input", "clip.y4m", "--algos", "es,ds,arps,pso-zmp", "--zmp-threshold", "32",
        "--seed", "3", "--dump-mv", "--dump-recon",
    ],
    "zmp-modes": [
        "--input", "clip.y4m", "--algos", "ds,arps", "--zmp-threshold", "32",
        "--ds-zmp", "--arps-normalized-zmp",
    ],
    "swarm-flags": [
        "--input", "clip.y4m", "--algos", "pso-zmp", "--zmp-threshold", "8",
        "--particles", "5", "--iters", "3", "--vmax", "2.5", "--no-seed-predictor",
        "--seed", "9", "--dump-mv",
    ],
    "block-8-remainder": [
        "--input", "odd.y4m", "--algos", "es,ds,arps,pso-zmp", "--block", "8", "--p", "4",
        "--zmp-threshold", "32", "--dump-mv", "--dump-recon",
    ],
    "raw-yuv": [
        "--input", "akiyo_small.yuv", "--width", "64", "--height", "48",
        "--algos", "arps,pso-zmp", "--frames", "3", "--dump-mv",
    ],
}

GOLDEN = {
    "all-matchers": {
        "stdout": "b16129bedb559aac8d8365f4177af4b241f4c70a604b766b55dd0c14e364a325",
        "gains.csv": "6760d7571ab17539dfa105d7ab1893a0b61012b10e775b09d30d7db88e1e1c75",
        "meta.json": "5b3ad1a589c4d0e25ac702488e70e5431f91fa6e171e8178e6fcb70b501e0995",
        "mv/": "e2dd24b3aa13fa39972495bfc934970ab06885a2e1d4e1f2b88f9303a2c21ca6",
        "per_frame.csv": "eb6863ec33f501134f83984a96b9d7004ba924f0090a9947be8149e680c702e4",
        "recon/": "5e831fe9cae88f454e8a9aa4741ecd82bbcfb1f307b58c16192e82c9047a90af",
        "summary.csv": "0699902f0e7b7afe00adebe51378613a5870003573086f36ba90138bb1afe255"
    },
    "zmp-modes": {
        "stdout": "6dca2562c128e7547d770273e47be6988d392d7c3dfd66e8363abbe2bc313e14",
        "gains.csv": "66762805a90362aa9ed8b02f8646fde14e256ad51620b4d0ae09c350fc5749e4",
        "meta.json": "2db40712c04c575f2fdc84d221346daffa5a04c8cf82c8eac3543f45f599e737",
        "per_frame.csv": "7474434bfe86ab2b17d5ab7a3ce5fba12205dac4250322d50fee593fb94090b7",
        "summary.csv": "6981fc69804629cc13aa7fb191920ae5b364839b847b2ba1d8959d40ec27251d"
    },
    "swarm-flags": {
        "stdout": "3b5e72600bd56f3e73cc57f662cb5313f97c243f77f605797569569dbf6d8e45",
        "gains.csv": "4b122ca5e77df3888bee2243b692b490e639676bd1b0c302cde39504b2804641",
        "meta.json": "276b600b4589c7e81b6849c4247ce3ef20410927d0541480102c38cdc2dc46e0",
        "mv/": "732bb9b26c891d52e929e8ff5d573c723a8215cf4f33a8ed4f7ae7e229688d8a",
        "per_frame.csv": "46b5e8ca96a738226924704dccf9efc10b852f088a7b160d03cbbf84417821e9",
        "summary.csv": "2a701a96cbe91f73608b4f07f77cd71f0ea6b26ebb38a73a4cd995652a7faa19"
    },
    "block-8-remainder": {
        "stdout": "db3499c11a2fac45f52461eb428061bd922ba3ce6ead2b8e6652dd997aa9273f",
        "gains.csv": "7df40b4d25185380d902524918fc14c2a8b1dcf12ea15db239950413cfaaae6c",
        "meta.json": "2b89878ceed9b0e5e32eed4ddc81a042b985ffe2b51e2a502086d420a09fa6d8",
        "mv/": "f21b88f97a349bea7a4c645613cc4c32d9534e008d0b44833a9255a87d29490e",
        "per_frame.csv": "2e333555cfccbddb6115bf7efb6aacb6cf8cad8840e7601de57dd01e0d1831b4",
        "recon/": "8f7869463c6a8b0afd909299fc5db6ee6767ed81fad74294df3bb2cba1c5a787",
        "summary.csv": "0ed37c63acc26d4c6d552bd23e77ee5c2f28f91a8e248a4005fe990e8f32a8ff"
    },
    "raw-yuv": {
        "stdout": "c6aab3f57f2613759b5044c4cb231338fb93c4381ff682794735450e8cb4e443",
        "gains.csv": "43a28c8d8f28ac0c1f80adc935ecad2b4190e6633689451cf3f7f83527ccbee5",
        "meta.json": "5956dd7bc75261dbdb5389bb6c63cda05959a5f19c9c2b49589172c2fd40ce8a",
        "mv/": "9b8c010722a00afc0d5cbb97ef6d725fe9b9e92bbae4f5411faef8d0ef8343c0",
        "per_frame.csv": "8f82b30cd658956e41ea63faa5f03b5e1d174040db5d9f65d858961ae4872900",
        "summary.csv": "18c279db23ad22f1881bb425cdc39791087e59ac866630b6770bbed0e4adf310"
    }
}

PSNR_CASES = {
    "psnr-y4m": ["--a", "clip.y4m", "--b", "other.y4m"],
    "psnr-yuv": ["--a", "akiyo_small.yuv", "--b", "other.yuv", "--width", "64",
                 "--height", "48", "--frames", "2"],
}

PSNR_GOLDEN = {
    "psnr-y4m": "a6d3c740ced649bcc54fce6e6362da2faf6a5a586806896ca6442c9e555daa7c",
    "psnr-yuv": "e142528ffcfe47b63d0a13233a4ef0ae9ae55fb480379df40dfbd070799b07b3"
}


def test_run_outputs_are_pinned(clips, capsys):
    got = {}
    for name, argv in RUN_CASES.items():
        assert main(["run", *argv, "--out", name]) == 0
        got[name] = digests(clips / name, capsys.readouterr().out)
    assert got == GOLDEN


def test_psnr_stdout_is_pinned(clips, capsys):
    got = {}
    for name, argv in PSNR_CASES.items():
        assert main(["psnr", *argv]) == 0
        got[name] = digest(capsys.readouterr().out.encode())
    assert got == PSNR_GOLDEN
