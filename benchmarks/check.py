"""Output checks for one `mebench run`, written independently of mebench.

`problems` checks that a run's reports agree with each other, with the
motion-field and reconstruction dumps, and with the generated input frames.
`golden_digests` hashes the deterministic outputs that are pinned at the
default seed; meta.json is left out because it echoes the input path.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BLOCK = 16
REPORTS = ("per_frame.csv", "summary.csv", "gains.csv")
# Matchers that prejudge static blocks: a static block carries (0, 0) and
# cost exactly one evaluation.
PREJUDGING = ("arps", "pso-zmp")


def tree_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def golden_digests(out_dir: Path) -> dict[str, str]:
    """Per-file digests of the three reports plus one digest over all dumps."""
    tree = tree_digests(out_dir)
    out = {name: tree[name] for name in REPORTS}
    dumps = sorted((k, v) for k, v in tree.items() if k.startswith(("mv/", "recon/")))
    if dumps:
        out["dumps"] = hashlib.sha256("\n".join(f"{k} {v}" for k, v in dumps).encode()).hexdigest()
    return out


def _ratio_3dp(numer: int, denom: int) -> str:
    q, r = divmod(numer * 1000, denom)
    if 2 * r >= denom:
        q += 1
    return f"{q // 1000}.{q % 1000:03d}"


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return 100.0 if mse == 0.0 else min(float(10.0 * np.log10(255.0 * 255.0 / mse)), 100.0)


def _read_pgm(path: Path, shape: tuple[int, int]) -> np.ndarray:
    data = path.read_bytes()
    header = f"P5\n{shape[1]} {shape[0]}\n255\n".encode()
    if not data.startswith(header) or len(data) != len(header) + shape[0] * shape[1]:
        raise ValueError(f"{path.name}: not a {shape[1]}x{shape[0]} binary PGM")
    return np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(shape)


def _check_dumps(out: Path, frames: np.ndarray, algos: list[str], rows: dict) -> list[str]:
    h, w = frames.shape[1:]
    cols, nrows = w // BLOCK, h // BLOCK
    n_blocks = cols * nrows
    found = []
    for algo in algos:
        for k in range(1, len(frames)):
            name = f"{algo}_frame{k:04d}"
            lines = (out / "mv" / f"{name}.mvf").read_text().splitlines()
            if lines[0] != f"MVF v1 {cols} {nrows} {BLOCK}" or len(lines) != n_blocks + 1:
                found.append(f"{name}.mvf: bad header or block count")
                continue
            anchor = frames[k - 1]
            recon = anchor.copy()
            evals_total = static_total = 0
            for i, line in enumerate(lines[1:]):
                dx, dy, evals, static = (int(v) for v in line.split())
                x, y = BLOCK * (i % cols), BLOCK * (i // cols)
                if not (0 <= x + dx <= w - BLOCK and 0 <= y + dy <= h - BLOCK):
                    found.append(f"{name}.mvf block {i}: vector ({dx},{dy}) leaves the frame")
                    continue
                if evals < 1 or static not in (0, 1):
                    found.append(f"{name}.mvf block {i}: evals {evals}, static {static}")
                if static and (algo not in PREJUDGING or (dx, dy, evals) != (0, 0, 1)):
                    found.append(f"{name}.mvf block {i}: static block carries ({dx},{dy}) with {evals} evals")
                evals_total += evals
                static_total += static
                recon[y : y + BLOCK, x : x + BLOCK] = anchor[y + dy : y + dy + BLOCK, x + dx : x + dx + BLOCK]
            row = rows[(k, algo)]
            if (row[0], row[2]) != (_ratio_3dp(evals_total, n_blocks), _ratio_3dp(static_total, n_blocks)):
                found.append(f"{name}.mvf: evals/static totals disagree with per_frame.csv")
            pgm = _read_pgm(out / "recon" / f"{name}.pgm", (h, w))
            if not np.array_equal(pgm, recon):
                found.append(f"{name}.pgm differs from the anchor compensated by {name}.mvf")
            if f"{_psnr(frames[k], pgm):.2f}" != row[1]:
                found.append(f"{name}: PSNR of the dumped reconstruction is not {row[1]} dB")
    return found


def problems(out: Path, frames: np.ndarray, algos: list[str], dumps: bool) -> list[str]:
    """Every inconsistency found in the outputs of one run; empty when sound."""
    pairs = len(frames) - 1
    per_frame = (out / "per_frame.csv").read_text().splitlines()
    if per_frame[0] != "frame,algo,avg_evals,psnr_db,static_fraction":
        return [f"per_frame.csv: bad header {per_frame[0]!r}"]
    if len(per_frame) - 1 != pairs * len(algos):
        return [f"per_frame.csv holds {len(per_frame) - 1} rows, expected {pairs} pairs x {len(algos)} matchers"]
    rows = {}
    for line in per_frame[1:]:
        frame, algo, evals, psnr_db, static = line.split(",")
        rows[(int(frame), algo)] = (evals, psnr_db, static)
    expected_keys = {(k, a) for k in range(1, pairs + 1) for a in algos}
    if set(rows) != expected_keys:
        return ["per_frame.csv does not hold one row per (frame, matcher)"]

    found = []
    summary = (out / "summary.csv").read_text().splitlines()
    if summary[0] != "algo,mean_psnr_db,mean_evals" or [s.split(",")[0] for s in summary[1:]] != algos:
        return ["summary.csv: bad header or matcher list"]
    for line in summary[1:]:
        algo, psnr_db, evals = line.split(",")
        mine = [rows[(k, algo)] for k in range(1, pairs + 1)]
        # Each side is rounded to its printed precision: 0.005 dB, 0.0005 evals.
        if abs(float(psnr_db) - sum(float(r[1]) for r in mine) / pairs) > 0.01 + 1e-9:
            found.append(f"summary.csv: {algo} mean PSNR {psnr_db} disagrees with per_frame.csv")
        if abs(float(evals) - sum(float(r[0]) for r in mine) / pairs) > 0.001 + 1e-9:
            found.append(f"summary.csv: {algo} mean evals {evals} disagrees with per_frame.csv")

    gains = [line.split(",") for line in (out / "gains.csv").read_text().splitlines()]
    if gains[0] != ["algo", *algos] or [g[0] for g in gains[1:]] != algos:
        found.append("gains.csv: bad header or matcher list")
    elif any(gains[i + 1][i + 1] != "1.000" for i in range(len(algos))):
        found.append("gains.csv: diagonal does not read 1.000")

    if dumps:
        found += _check_dumps(out, frames, algos, rows)
    return found
