"""Command-line front end.

  mebench run  --input clip.y4m --algos ds,arps,pso-zmp --out results/
  mebench psnr --a ref.y4m --b recon.y4m

Exit codes: 0 ok, 1 usage error (out of memory included), 2 I/O error, 3
malformed input data.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import RunSpec, format_summary, load_input, resolve_zmp_threshold, run
from .estimators import ALGORITHMS, EstimatorConfig
from .metrics import psnr
from .pso import PsoConfig
from .video_io import VideoFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mebench", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # how run and psnr read their inputs (see bench.load_input)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--format", choices=("y4m", "yuv"), help="default: by file extension")
    inputs.add_argument("--width", type=int, help="frame width (raw yuv only)")
    inputs.add_argument("--height", type=int, help="frame height (raw yuv only)")
    inputs.add_argument(
        "--chroma",
        choices=("420", "400"),
        default="420",
        help="chroma layout of raw yuv input (400 = luma-only)",
    )
    inputs.add_argument("--frames", type=int, help="cap on frames read (>= 1)")

    p_run = sub.add_parser("run", parents=[inputs], help="benchmark matchers over a sequence")
    p_run.add_argument("--input", required=True, help="video file (y4m or raw planar yuv)")
    p_run.add_argument(
        "--algos",
        default="es,ds,arps,pso-zmp",
        help=f"comma-separated subset of {','.join(ALGORITHMS)}",
    )
    p_run.add_argument("--block", type=int, default=16, help="macroblock size (default 16)")
    p_run.add_argument("--p", type=int, default=7, help="search window for es/ds/arps (default 7)")
    p_run.add_argument(
        "--zmp-threshold",
        type=float,
        help="static-block cost threshold; default: per-sequence table keyed on filename",
    )
    p_run.add_argument("--ds-zmp", action="store_true", help="prejudge static blocks in ds too")
    p_run.add_argument(
        "--arps-normalized-zmp",
        action="store_true",
        help="make arps compare the threshold against sum/side instead of the raw sum",
    )
    p_run.add_argument("--particles", type=int, default=8)
    p_run.add_argument("--iters", type=int, default=5)
    p_run.add_argument("--vmax", type=float, default=5.0)
    p_run.add_argument(
        "--no-seed-predictor",
        action="store_true",
        help="use the predicted vector only to recenter the pattern, not as a candidate",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=".", help="output directory for CSVs")
    p_run.add_argument("--dump-mv", action="store_true", help="write per-pair .mvf dumps")
    p_run.add_argument("--dump-recon", action="store_true", help="write reconstructed PGMs")

    p_psnr = sub.add_parser("psnr", parents=[inputs], help="per-frame PSNR between two sequences")
    p_psnr.add_argument("--a", required=True, help="reference sequence")
    p_psnr.add_argument("--b", required=True, help="sequence under test")
    return parser


def _cmd_run(args) -> int:
    spec = RunSpec(
        input=args.input,
        algos=[a.strip() for a in args.algos.split(",") if a.strip()],
        fmt=args.format,
        width=args.width,
        height=args.height,
        chroma=args.chroma,
        max_frames=args.frames,
        config=EstimatorConfig(
            block_size=args.block,
            search_param=args.p,
            zmp_threshold=resolve_zmp_threshold(args.input, args.zmp_threshold),
            ds_zmp=args.ds_zmp,
            arps_raw_threshold=not args.arps_normalized_zmp,
        ),
        pso=PsoConfig(
            particles=args.particles,
            iterations=args.iters,
            v_max=args.vmax,
            seed_predictor=not args.no_seed_predictor,
        ),
        seed=args.seed,
        out_dir=args.out,
        dump_mv=args.dump_mv,
        dump_recon=args.dump_recon,
    )
    report = run(spec)
    print(format_summary(report))
    print(f"wrote per_frame.csv, summary.csv, gains.csv, meta.json to {args.out}")
    return EXIT_OK


def _cmd_psnr(args) -> int:
    a = load_input(args.a, args.format, args.width, args.height, args.frames, args.chroma)
    b = load_input(args.b, args.format, args.width, args.height, args.frames, args.chroma)
    per_frame = psnr(a, b)
    print("frame,psnr_db")
    for i, value in enumerate(per_frame):
        print(f"{i},{value:.2f}")
    print(f"mean,{np.mean(per_frame):.2f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_psnr(args)
    except VideoFormatError as exc:
        print(f"mebench: malformed input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"mebench: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"mebench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # settings too large for this machine, e.g. --particles
        print(f"mebench: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
