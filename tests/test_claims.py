"""Proxies for the paper's claims on synthetic video. The QCIF clips the paper
measured are not shipped, so these tests run the benchmark's own seeded clips
(benchmarks/clips.py) and assert only a claim that holds there with a wide
margin. They do not stand in for acceptance criteria 5/6, which need the
real clips."""

from __future__ import annotations

import numpy as np

from mebench import EstimatorConfig, Frame, compensate, estimate, frame_psnr

from conftest import load_script

PAIRS = 30  # the first 31 frames


def _load_clips(monkeypatch):
    return load_script("benchmarks/clips.py", "mebench_bench_clips", monkeypatch)


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


def _psnr_and_evals(frames, algorithm, config):
    """Mean PSNR of the compensated targets and evaluations per block, over
    the pairs of `frames`, each pair seeded as `mebench run --seed 0` seeds it."""
    psnr, evals = [], 0
    for k in range(1, len(frames)):
        field = estimate(algorithm, frames[k - 1], frames[k], config, seed=k)
        psnr.append(frame_psnr(frames[k], compensate(frames[k - 1], field).frame))
        evals += field.total_evals
    return float(np.mean(psnr)), evals / ((len(frames) - 1) * field.grid.n_blocks)


def test_pso_zmp_loses_several_db_to_ds_on_a_pan_only_through_prejudgment(monkeypatch):
    # Paper: pso-zmp's PSNR is several dB lower than DS's on dense, complex
    # motion. Proxy, on the seed-0 pan clip of the qcif-pan-* workloads: with
    # no block static (threshold 8) the swarm stays within 1 dB of DS
    # (measured 30.39 against 30.78 dB); at threshold 384 prejudgment holds
    # 86.7% of the panning blocks at (0, 0), and pso-zmp falls at least 3 dB
    # below DS (measured 23.66 against 30.78 dB) while DS makes at least 3x
    # its evaluations (16.587 against 3.164 per block). No claim about
    # low-motion content is asserted: there the gap moves with the seed.
    frames = [Frame(luma) for luma in _load_clips(monkeypatch).pan_frames(0)[: PAIRS + 1]]
    ds_psnr, ds_evals = _psnr_and_evals(frames, "ds", EstimatorConfig())
    searched_psnr, _ = _psnr_and_evals(frames, "pso-zmp", EstimatorConfig(zmp_threshold=8))
    assert ds_psnr - searched_psnr <= 1.0, (ds_psnr, searched_psnr)
    prejudged_psnr, prejudged_evals = _psnr_and_evals(
        frames, "pso-zmp", EstimatorConfig(zmp_threshold=384)
    )
    assert ds_psnr - prejudged_psnr >= 3.0, (ds_psnr, prejudged_psnr)
    assert ds_evals >= 3 * prejudged_evals, (ds_evals, prejudged_evals)
