"""Benchmark harness: run selected matchers over a sequence, score each frame
pair by evaluation count and PSNR, and emit CSV reports.

Output files (in the run's output directory):
  per_frame.csv  frame,algo,avg_evals,psnr_db,static_fraction
  summary.csv    algo,mean_psnr_db,mean_evals
  gains.csv      pairwise speed matrix, gain(A over B) = mean_evals(B)/mean_evals(A)
  meta.json      config echo, seed, eval-counting policy, code version

Ratios (avg_evals, static_fraction, gains) are exact integer ratios rendered
half-up to three decimals, in the files and on stdout alike; reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import BlockGrid
from .estimators import ALGORITHMS, EstimatorConfig, MotionField, compensate, estimate
from .metrics import PSNR_CAP_DB, frame_psnr
from .pso import PsoConfig
from .video_io import Sequence, load_raw_yuv, load_y4m, write_pgm

# Static-block thresholds by sequence name, matched case-insensitively as a
# substring of the input filename. Always overridable with an explicit value.
ZMP_THRESHOLDS = {
    "akiyo": 384,
    "container": 512,
    "mother": 384,
    "news": 512,
    "silent": 384,
}


def resolve_zmp_threshold(input_name: str, explicit: float | None) -> float | None:
    """Explicit value if given, else the per-sequence table keyed on the
    filename; None when neither applies."""
    if explicit is not None:
        return explicit
    name = Path(input_name).name.lower()
    for key, value in ZMP_THRESHOLDS.items():
        if key in name:
            return value
    return None


@dataclass
class RunSpec:
    input: str
    algos: list[str]
    fmt: str | None = None  # y4m | yuv; None: by file extension
    width: int | None = None
    height: int | None = None
    chroma: str = "420"  # raw yuv plane layout; "400" = luma-only
    max_frames: int | None = None
    config: EstimatorConfig = dc_field(default_factory=EstimatorConfig)
    pso: PsoConfig = dc_field(default_factory=PsoConfig)
    seed: int = 0
    out_dir: str = "."
    dump_mv: bool = False
    dump_recon: bool = False

    def validate(self) -> None:
        if not self.algos:
            raise ValueError("at least one algorithm must be selected")
        for a in self.algos:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}, expected one of {ALGORITHMS}")
        if len(set(self.algos)) != len(self.algos):
            raise ValueError(f"duplicate algorithm in selection {self.algos}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        needs = [a for a in self.algos if self.config.prejudges(a)]
        if needs and self.config.zmp_threshold is None:
            raise ValueError(
                f"{'/'.join(needs)} need a static-block threshold and the input "
                f"name matches no known sequence; pass --zmp-threshold"
            )


@dataclass
class FrameRow:
    frame: int  # target frame index, 1-based
    algo: str
    evals_total: int
    static_blocks: int
    psnr_db: float


@dataclass
class SequenceReport:
    algos: list[str]
    rows: list[FrameRow]
    n_blocks: int
    n_pairs: int
    meta: dict

    def _algo_rows(self, algo: str) -> list[FrameRow]:
        return [r for r in self.rows if r.algo == algo]

    @property
    def block_count(self) -> int:
        """Blocks estimated per algorithm over the whole sequence."""
        return self.n_pairs * self.n_blocks

    def total_evals(self, algo: str) -> int:
        return sum(r.evals_total for r in self._algo_rows(algo))

    def static_blocks(self, algo: str) -> int:
        return sum(r.static_blocks for r in self._algo_rows(algo))

    def mean_psnr(self, algo: str) -> float:
        rows = self._algo_rows(algo)
        return sum(r.psnr_db for r in rows) / len(rows)

    def static_fraction(self, algo: str) -> float:
        return self.static_blocks(algo) / self.block_count

    def gain(self, algo: str, over: str) -> float:
        """How many times fewer evaluations `algo` spends than `over`."""
        return self.total_evals(over) / self.total_evals(algo)


def ratio_3dp(numer: int, denom: int) -> str:
    """Exact rendering of a nonnegative integer ratio to 3 decimals, half-up."""
    q, r = divmod(numer * 1000, denom)
    if 2 * r >= denom:
        q += 1
    return f"{q // 1000}.{q % 1000:03d}"


def summary_cells(report: SequenceReport) -> list[list[str]]:
    """Per algorithm: name, mean PSNR, mean evals, static fraction, then its
    gain over each of report.algos. Every summary renderer prints these cells."""
    totals = [report.total_evals(a) for a in report.algos]
    n = report.block_count
    return [
        [a, f"{report.mean_psnr(a):.2f}", ratio_3dp(t, n), ratio_3dp(report.static_blocks(a), n)]
        + [ratio_3dp(over, t) for over in totals]
        for a, t in zip(report.algos, totals)
    ]


def _input_format(path: str | Path, fmt: str | None = None) -> str:
    """fmt when given, else y4m for a .y4m extension and raw yuv otherwise."""
    if fmt is None:
        return "y4m" if Path(path).suffix.lower() == ".y4m" else "yuv"
    if fmt not in ("y4m", "yuv"):
        raise ValueError(f"format must be y4m or yuv, got {fmt!r}")
    return fmt


def load_input(
    path: str | Path,
    fmt: str | None = None,
    width: int | None = None,
    height: int | None = None,
    max_frames: int | None = None,
    chroma: str = "420",
) -> Sequence:
    """Read a y4m or raw planar yuv file (format as in _input_format)."""
    if _input_format(path, fmt) == "y4m":
        return load_y4m(path, max_frames=max_frames)
    if width is None or height is None:
        raise ValueError(f"raw yuv input {str(path)!r} needs --width and --height")
    return load_raw_yuv(path, width, height, max_frames=max_frames, chroma=chroma)


def run(spec: RunSpec) -> SequenceReport:
    """Estimate, compensate, and score every consecutive frame pair with every
    selected algorithm; write CSVs (and optional dumps) to spec.out_dir."""
    spec.validate()
    fmt = _input_format(spec.input, spec.fmt)
    seq = load_input(spec.input, fmt, spec.width, spec.height, spec.max_frames, spec.chroma)
    if len(seq) < 2:
        raise ValueError(f"need at least 2 frames to estimate motion, got {len(seq)}")
    grid = BlockGrid.for_frame(seq[0], spec.config.block_size)

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec.dump_mv:
        (out / "mv").mkdir(exist_ok=True)
    if spec.dump_recon:
        (out / "recon").mkdir(exist_ok=True)

    rows: list[FrameRow] = []
    for k in range(1, len(seq)):
        anchor, target = seq[k - 1], seq[k]
        for algo in spec.algos:
            field = estimate(
                algo, anchor, target, spec.config, spec.pso, seed=spec.seed ^ k
            )
            recon = compensate(anchor, field)
            rows.append(
                FrameRow(
                    frame=k,
                    algo=algo,
                    evals_total=field.total_evals,
                    static_blocks=field.static_count,
                    psnr_db=frame_psnr(target, recon.frame),
                )
            )
            if spec.dump_mv:
                dump_mv_field(field, out / "mv" / f"{algo}_frame{k:04d}.mvf")
            if spec.dump_recon:
                write_pgm(recon.frame, out / "recon" / f"{algo}_frame{k:04d}.pgm")

    report = SequenceReport(
        algos=list(spec.algos),
        rows=rows,
        n_blocks=grid.n_blocks,
        n_pairs=len(seq) - 1,
        meta={
            "input": str(spec.input),
            "format": fmt,
            "chroma": spec.chroma if fmt == "yuv" else None,
            "width": seq.width,
            "height": seq.height,
            "frames": len(seq),
            "algorithms": list(spec.algos),
            **asdict(spec.config),
            "pso": asdict(spec.pso),
            "seed": spec.seed,
            "per_pair_seed": "seed XOR target_frame_index",
            "eval_counting": "distinct displacements per block; memoized revisits uncounted",
            "psnr_cap_db": PSNR_CAP_DB,
            "version": __version__,
        },
    )
    write_csv(report, out)
    return report


def write_csv(report: SequenceReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["frame,algo,avg_evals,psnr_db,static_fraction"]
    for r in report.rows:
        lines.append(
            f"{r.frame},{r.algo},{ratio_3dp(r.evals_total, report.n_blocks)},"
            f"{r.psnr_db:.2f},{ratio_3dp(r.static_blocks, report.n_blocks)}"
        )
    (out / "per_frame.csv").write_text("\n".join(lines) + "\n")

    cells = summary_cells(report)
    lines = ["algo,mean_psnr_db,mean_evals", *(",".join(c[:3]) for c in cells)]
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    lines = ["algo," + ",".join(report.algos), *(",".join([c[0], *c[4:]]) for c in cells)]
    (out / "gains.csv").write_text("\n".join(lines) + "\n")

    (out / "meta.json").write_text(json.dumps(report.meta, indent=2) + "\n")


def dump_mv_field(field: MotionField, path: str | Path) -> None:
    """Text dump: header `MVF v1 <cols> <rows> <block_size>`, then one line
    `dx dy evals static` per block in raster order."""
    grid = field.grid
    lines = [f"MVF v1 {grid.cols} {grid.rows} {grid.block_size}"]
    table = np.column_stack(
        (field.vectors.reshape(-1, 2), field.evals_per_block.ravel(), field.static_flags.ravel())
    )
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_mv_field(path: str | Path) -> MotionField:
    """Parse a dump_mv_field file back into a MotionField."""
    lines = Path(path).read_text().splitlines() or [""]
    head = lines[0].split()
    if len(head) != 5 or head[:2] != ["MVF", "v1"] or not all(h.isdecimal() for h in head[2:]):
        raise ValueError(f"bad MVF header {lines[0]!r}")
    cols, rows, block_size = (int(h) for h in head[2:])
    grid = BlockGrid(block_size, cols, rows)
    if len(lines) - 1 != grid.n_blocks:  # before the header's size is allocated
        raise ValueError(f"MVF body holds {len(lines) - 1} lines, expected {grid.n_blocks}")
    field = MotionField.empty(grid)
    for i, line in enumerate(lines[1:]):
        where = f"MVF line {i + 2} {line!r}"
        fields = line.split()
        try:
            dx, dy, evals, _ = (int(f) for f in fields)
        except ValueError:
            raise ValueError(f"{where}: expected 4 integers 'dx dy evals static'") from None
        if evals < 0:
            raise ValueError(f"{where}: negative evaluation count")
        if not (-(2**31) <= min(dx, dy) and max(dx, dy) < 2**31 and evals < 2**63):
            raise ValueError(f"{where}: value out of range")  # of the int32 vectors, int64 counts
        if fields[3] not in ("0", "1"):
            raise ValueError(f"{where}: static flag must be 0 or 1")
        row, col = i // cols, i % cols
        field.vectors[row, col] = (dx, dy)
        field.evals_per_block[row, col] = evals
        field.static_flags[row, col] = fields[3] == "1"
    return field


def format_summary(report: SequenceReport) -> str:
    """Human-readable summary table for stdout."""
    cells = summary_cells(report)
    out = [f"{'algo':<10} {'mean_psnr_db':>12} {'mean_evals':>12} {'static_frac':>12}"]
    out += [f"{a:<10} {psnr:>12} {evals:>12} {static:>12}" for a, psnr, evals, static, *_ in cells]
    if len(report.algos) > 1:
        out.append("gains (row over column):")
        out.append(" " * 10 + "".join(f"{b:>12}" for b in report.algos))
        out += [f"{c[0]:<10}" + "".join(f"{g:>12}" for g in c[4:]) for c in cells]
    return "\n".join(out)
