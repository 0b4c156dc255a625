"""Block-matching motion estimation and benchmarking.

Estimation convention: a block at origin (x, y) in the target frame carries
vector (dx, dy) when its best match in the anchor frame sits at
(x + dx, y + dy); compensation copies that anchor block back to (x, y).

The package root exports the library the README documents and the helpers
the acceptance gate (tests/test_acceptance.py) imports; search internals
are imported from their modules.
"""

__version__ = "0.1.0"

from .blocks import BlockGrid, block_origin, clamp_displacement
from .estimators import ALGORITHMS, EstimatorConfig, MotionField, compensate, es_search, estimate
from .metrics import EvalCounter, frame_psnr, psnr, sad_at, sad_sum
from .pso import PsoConfig, inertia_weight, init_pattern, pso_match
from .video_io import Frame, Sequence, VideoFormatError, load_raw_yuv, load_y4m, read_pgm, write_pgm

__all__ = [
    "ALGORITHMS",
    "BlockGrid",
    "EstimatorConfig",
    "EvalCounter",
    "Frame",
    "MotionField",
    "PsoConfig",
    "Sequence",
    "VideoFormatError",
    "block_origin",
    "clamp_displacement",
    "compensate",
    "es_search",
    "estimate",
    "frame_psnr",
    "inertia_weight",
    "init_pattern",
    "load_raw_yuv",
    "load_y4m",
    "psnr",
    "pso_match",
    "read_pgm",
    "sad_at",
    "sad_sum",
    "write_pgm",
]
