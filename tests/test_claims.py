"""Proxies for the paper's claims on synthetic video. The QCIF clips the paper
measured are not shipped, so these tests run the benchmark's own seeded clips
(benchmarks/clips.py) and assert only a claim that holds there with a wide
margin. They do not stand in for acceptance criteria 5/6, which need the
real clips."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from mebench import EstimatorConfig, Frame, estimate

CLIPS = Path(__file__).resolve().parent.parent / "benchmarks" / "clips.py"
PAIRS = 30  # the first 31 frames


def _load_clips(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location("mebench_bench_clips", CLIPS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks the module up here
    spec.loader.exec_module(module)
    return module


def test_pso_zmp_needs_far_fewer_evaluations_than_ds_on_a_near_static_clip(monkeypatch):
    # Paper: over 10x fewer evaluations than DS. Proxy: at least 5x, on the
    # clip of the qcif-static-long workload with its threshold, seeded per
    # pair as `mebench run --seed 0` seeds it.
    frames = [Frame(luma) for luma in _load_clips(monkeypatch).static_frames(0)[: PAIRS + 1]]
    config = EstimatorConfig(zmp_threshold=384)
    total = {
        algorithm: sum(
            estimate(algorithm, frames[k - 1], frames[k], config, seed=k).total_evals
            for k in range(1, PAIRS + 1)
        )
        for algorithm in ("ds", "pso-zmp")
    }
    assert total["ds"] >= 5 * total["pso-zmp"], total
