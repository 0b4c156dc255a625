import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mebench import BlockGrid, EstimatorConfig, MotionField, bench, estimators, video_io
from mebench.bench import (
    FrameRow,
    RunSpec,
    SequenceReport,
    ZMP_THRESHOLDS,
    dump_mv_field,
    format_summary,
    load_input,
    load_mv_field,
    ratio_3dp,
    resolve_zmp_threshold,
    run,
    write_csv,
)
from mebench.cli import main

from conftest import noise_frame, smooth_texture, write_y4m


def make_clip(tmp_path, n_frames=3, h=48, w=64, name="clip.y4m", identical=False):
    base = smooth_texture(h + 16, w + 16, seed=50)
    lumas = []
    for k in range(n_frames):
        off = 0 if identical else k
        lumas.append(base[4 + off : 4 + off + h, 4 : 4 + w].copy())
    path = tmp_path / name
    write_y4m(path, lumas)
    return path


def test_ratio_rendering_exact():
    assert ratio_3dp(1, 1) == "1.000"
    assert ratio_3dp(1, 3) == "0.333"
    assert ratio_3dp(2, 3) == "0.667"
    assert ratio_3dp(1, 2) == "0.500"
    assert ratio_3dp(0, 7) == "0.000"
    assert ratio_3dp(225, 1) == "225.000"


def test_threshold_table_resolution():
    assert resolve_zmp_threshold("Akiyo_qcif.yuv", None) == 384
    assert resolve_zmp_threshold("/data/news_cif.y4m", None) == 512
    assert resolve_zmp_threshold("mother_daughter.yuv", None) == 384
    assert resolve_zmp_threshold("unknown.yuv", None) is None
    assert resolve_zmp_threshold("akiyo.yuv", 100.0) == 100.0
    assert set(ZMP_THRESHOLDS.values()) == {384, 512}


def test_run_identical_sequence_single_row(tmp_path):
    path = make_clip(tmp_path, n_frames=2, identical=True)
    out = tmp_path / "out"
    spec = RunSpec(
        input=str(path),
        algos=["pso-zmp"],
        config=EstimatorConfig(zmp_threshold=384),
        out_dir=str(out),
    )
    report = run(spec)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.frame == 1
    assert row.evals_total == row.static_blocks == report.n_blocks
    assert row.psnr_db == 100.0
    lines = (out / "per_frame.csv").read_text().splitlines()
    assert lines[0] == "frame,algo,avg_evals,psnr_db,static_fraction"
    assert lines[1] == "1,pso-zmp,1.000,100.00,1.000"


def test_run_row_count_two_algorithms(tmp_path):
    path = make_clip(tmp_path, n_frames=4)
    spec = RunSpec(input=str(path), algos=["es", "ds"], out_dir=str(tmp_path / "o"))
    report = run(spec)
    assert len(report.rows) == 2 * 3
    per_frame = (tmp_path / "o" / "per_frame.csv").read_text().splitlines()
    assert len(per_frame) == 1 + 6


def test_gains_matrix(tmp_path):
    path = make_clip(tmp_path, n_frames=3)
    out = tmp_path / "o"
    spec = RunSpec(
        input=str(path),
        algos=["es", "ds", "pso-zmp"],
        config=EstimatorConfig(zmp_threshold=64),
        out_dir=str(out),
    )
    report = run(spec)
    lines = (out / "gains.csv").read_text().splitlines()
    assert lines[0] == "algo,es,ds,pso-zmp"
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    for i, algo in enumerate(report.algos):
        assert float(table[algo][i]) == 1.0
    # es is the most expensive matcher here, so every gain over es is >= 1
    assert report.gain("ds", "es") > 1.0
    assert report.gain("pso-zmp", "es") > 1.0
    assert report.gain("ds", "es") == pytest.approx(
        report.total_evals("es") / report.total_evals("ds")
    )
    assert stdout_gains(report) == [row.split(",") for row in lines[1:]]


def stdout_gains(report) -> list[list[str]]:
    """format_summary's gains table as rows of cells, row label first."""
    lines = format_summary(report).splitlines()
    start = lines.index("gains (row over column):") + 2  # skip the column labels
    return [line.split() for line in lines[start:]]


def test_stdout_gains_round_as_gains_csv(tmp_path):
    # 1/16 = 0.0625 exactly: half-up gives 0.063, float formatting 0.062
    rows = [FrameRow(1, "es", 16, 0, 30.0), FrameRow(1, "ds", 1, 0, 30.0)]
    report = SequenceReport(["es", "ds"], rows, n_blocks=1, n_pairs=1, meta={})
    write_csv(report, tmp_path)
    lines = (tmp_path / "gains.csv").read_text().splitlines()
    assert lines[1:] == ["es,1.000,0.063", "ds,16.000,1.000"]
    assert stdout_gains(report) == [row.split(",") for row in lines[1:]]


def test_summary_csv_shape(tmp_path):
    path = make_clip(tmp_path, n_frames=3)
    out = tmp_path / "o"
    run(RunSpec(input=str(path), algos=["es"], out_dir=str(out)))
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "algo,mean_psnr_db,mean_evals"
    assert lines[1].startswith("es,")


def test_meta_records_config(tmp_path):
    path = make_clip(tmp_path, n_frames=2)
    out = tmp_path / "o"
    run(
        RunSpec(
            input=str(path),
            algos=["arps"],
            config=EstimatorConfig(zmp_threshold=384),
            seed=9,
            out_dir=str(out),
        )
    )
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 9
    assert meta["zmp_threshold"] == 384
    assert meta["block_size"] == 16
    assert "memoized" in meta["eval_counting"]
    assert meta["pso"]["iterations"] == 5
    assert meta["version"]


def test_missing_threshold_is_instructive(tmp_path):
    path = make_clip(tmp_path, n_frames=2, name="mystery.y4m")
    spec = RunSpec(input=str(path), algos=["arps", "pso-zmp"], out_dir=str(tmp_path / "o"))
    with pytest.raises(ValueError, match="--zmp-threshold"):
        run(spec)
    # the algorithms that prejudge, named in --algos order
    spec = RunSpec(
        input=str(path),
        algos=["es", "ds", "arps"],
        config=EstimatorConfig(ds_zmp=True),
        out_dir=str(tmp_path / "o"),
    )
    with pytest.raises(ValueError, match="^ds/arps need a static-block threshold"):
        run(spec)
    assert not (tmp_path / "o").exists()


def test_run_requires_two_frames(tmp_path):
    path = make_clip(tmp_path, n_frames=1)
    with pytest.raises(ValueError, match="2 frames"):
        run(RunSpec(input=str(path), algos=["es"], out_dir=str(tmp_path / "o")))


def test_seeded_runs_are_byte_identical(tmp_path):
    path = make_clip(tmp_path, n_frames=3)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        run(
            RunSpec(
                input=str(path),
                algos=["ds", "pso-zmp"],
                config=EstimatorConfig(zmp_threshold=128),
                seed=5,
                out_dir=str(out),
            )
        )
        outs.append(out)
    for fname in ("per_frame.csv", "summary.csv", "gains.csv", "meta.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_mvf_single_block_line(tmp_path):
    field = MotionField.empty(BlockGrid(16, 1, 1))
    field.vectors[0, 0] = (3, -2)
    field.evals_per_block[0, 0] = 17
    path = tmp_path / "f.mvf"
    dump_mv_field(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "MVF v1 1 1 16"
    assert lines[1] == "3 -2 17 0"


def test_mvf_qcif_header(tmp_path, qcif_grid):
    field = MotionField.empty(qcif_grid)
    path = tmp_path / "q.mvf"
    dump_mv_field(field, path)
    assert path.read_text().splitlines()[0] == "MVF v1 11 9 16"


def test_mvf_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    grid = BlockGrid(16, 4, 3)
    field = MotionField.empty(grid)
    field.vectors[:] = rng.integers(-7, 8, field.vectors.shape)
    field.evals_per_block[:] = rng.integers(1, 200, field.evals_per_block.shape)
    field.static_flags[:] = rng.integers(0, 2, field.static_flags.shape).astype(bool)
    path = tmp_path / "rt.mvf"
    dump_mv_field(field, path)
    back = load_mv_field(path)
    assert back.grid == field.grid
    assert (back.vectors == field.vectors).all()
    assert (back.evals_per_block == field.evals_per_block).all()
    assert (back.static_flags == field.static_flags).all()


def rowwise_mvf_text(field: MotionField) -> str:
    """The reference rendering of a .mvf file: the header, then one
    `" ".join` of each block's row (dx, dy, evals, static)."""
    grid = field.grid
    lines = [f"MVF v1 {grid.cols} {grid.rows} {grid.block_size}"]
    table = np.column_stack(
        (field.vectors.reshape(-1, 2), field.evals_per_block.ravel(), field.static_flags.ravel())
    )
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _mvf_fields(rng, grid: BlockGrid):
    """Fields on `grid`: small and full-range int32 vectors, negative ones
    included, evals from 0 to the int64 maximum, both static flags, and one
    field each at the vectors' and counts' extremes."""
    for lo, hi in ((-8, 8), (-(2**31), 2**31 - 1)):
        field = MotionField.empty(grid)
        field.vectors[:] = rng.integers(lo, hi, field.vectors.shape, endpoint=True)
        field.evals_per_block[:] = rng.integers(0, 2**63 - 1, field.evals_per_block.shape, endpoint=True)
        field.evals_per_block[rng.random(field.evals_per_block.shape) < 0.5] //= 2**40
        field.static_flags[:] = rng.random(field.static_flags.shape) < 0.5
        yield field
    for vector, evals, static in (((-(2**31), -(2**31)), 0, False), ((2**31 - 1, 2**31 - 1), 2**63 - 1, True)):
        field = MotionField.empty(grid)
        field.vectors[:] = vector
        field.evals_per_block[:] = evals
        field.static_flags[:] = static
        yield field


@pytest.mark.parametrize("shape", [(1, 1), (11, 9), (5, 3)], ids=["1x1", "qcif", "5x3"])
@pytest.mark.parametrize("seed", range(3))
def test_mvf_file_equals_the_row_by_row_text(tmp_path, shape, seed):
    # golden.json pins only the CSVs, and the benchmark's checks compare dumps
    # run against run, so this holds every byte of the .mvf format
    rng = np.random.default_rng([seed, *shape])
    for i, field in enumerate(_mvf_fields(rng, BlockGrid(16, *shape))):
        got, want = tmp_path / f"got{i}.mvf", tmp_path / f"want{i}.mvf"
        dump_mv_field(field, got)
        want.write_text(rowwise_mvf_text(field))
        assert got.read_bytes() == want.read_bytes()


def test_mvf_empty_file_names_the_header(tmp_path):
    path = tmp_path / "empty.mvf"
    path.write_text("")
    with pytest.raises(ValueError, match="bad MVF header ''"):
        load_mv_field(path)


def test_mvf_static_flag_must_be_0_or_1(tmp_path):
    path = tmp_path / "flag.mvf"
    path.write_text("MVF v1 1 1 16\n0 0 1 7\n")
    with pytest.raises(ValueError, match="MVF line 2 '0 0 1 7': static flag must be 0 or 1"):
        load_mv_field(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("MVF v1 1 one 16\n0 0 1 0\n", "bad MVF header 'MVF v1 1 one 16'"),
        ("MVF v1 2 1 16\n0 0 1 0\n", "MVF body holds 1 lines, expected 2"),
        # checked before a field of the header's size is allocated
        ("MVF v1 10000000 10000000 16\n0 0 1 0\n", f"MVF body holds 1 lines, expected {10**14}"),
        ("MVF v1 1 1 16\n0 0 -5 0\n", "MVF line 2 '0 0 -5 0': negative evaluation count"),
        ("MVF v1 1 1 16\n0 0 1\n", "MVF line 2 '0 0 1': expected 4 integers 'dx dy evals static'"),
        ("MVF v1 1 1 16\n0 x 1 0\n", "MVF line 2 '0 x 1 0': expected 4 integers 'dx dy evals static'"),
        ("MVF v1 2 1 16\n0 0 1 0\n0 0 1 0 9\n", "MVF line 3 '0 0 1 0 9': expected 4 integers 'dx dy evals static'"),
        ("MVF v1 1 1 16\n99999999999 0 1 0\n", "MVF line 2 '99999999999 0 1 0': value out of range"),
        ("MVF v1 1 1 16\n0 -2147483649 1 0\n", "MVF line 2 '0 -2147483649 1 0': value out of range"),
        (
            "MVF v1 1 1 16\n0 0 99999999999999999999 0\n",
            "MVF line 2 '0 0 99999999999999999999 0': value out of range",
        ),
    ],
    ids=[
        "header-field",
        "short-body",
        "huge-header",
        "negative-evals",
        "three-fields",
        "non-integer",
        "five-fields",
        "vector-too-large",
        "vector-too-small",
        "evals-too-large",
    ],
)
def test_mvf_malformed_input_is_named(tmp_path, text, message):
    path = tmp_path / "bad.mvf"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_mv_field(path)
    assert str(info.value) == message


def test_mvf_loads_the_integer_extremes(tmp_path):
    path = tmp_path / "extremes.mvf"
    path.write_text("MVF v1 1 1 16\n2147483647 -2147483648 9223372036854775807 0\n")
    field = load_mv_field(path)
    assert field.vector(0, 0) == (2**31 - 1, -(2**31))
    assert int(field.evals_per_block[0, 0]) == 2**63 - 1


@pytest.mark.parametrize(
    "algos,message",
    [
        ([], "at least one algorithm must be selected"),
        (["es", "es"], "duplicate algorithm in selection ['es', 'es']"),
    ],
)
def test_run_spec_selection_text(algos, message):
    with pytest.raises(ValueError) as info:
        RunSpec(input="clip.y4m", algos=algos).validate()
    assert str(info.value) == message


def test_unknown_format_text(tmp_path):
    with pytest.raises(ValueError) as info:
        load_input(make_clip(tmp_path, n_frames=2), fmt="avi")
    assert str(info.value) == "format must be y4m or yuv, got 'avi'"


def test_cli_search_param_below_one_text(tmp_path, capsys):
    path = make_clip(tmp_path, n_frames=2)
    assert main(["run", "--input", str(path), "--algos", "es", "--p", "0", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "mebench: search_param must be >= 1, got 0\n"


def test_cli_search_param_beyond_the_frame_runs(tmp_path, capsys):
    # a reach past the frame's larger side (64 here) moves no box: the same
    # outputs as at 64, and meta.json still echoes the configured value
    path = make_clip(tmp_path, n_frames=2)
    huge = 100000000000000000000
    for p in (huge, 64):
        argv = ["run", "--input", str(path), "--algos", "es,ds,arps", "--zmp-threshold", "8"]
        assert main(argv + ["--p", str(p), "--out", str(tmp_path / str(p))]) == 0
    assert capsys.readouterr().err == ""
    for fname in ("per_frame.csv", "summary.csv", "gains.csv"):
        assert (tmp_path / str(huge) / fname).read_bytes() == (tmp_path / "64" / fname).read_bytes()
    assert json.loads((tmp_path / str(huge) / "meta.json").read_text())["search_param"] == huge


def test_cli_run_end_to_end(tmp_path, capsys):
    path = make_clip(tmp_path, n_frames=3)
    out = tmp_path / "cli_out"
    code = main(
        [
            "run",
            "--input", str(path),
            "--algos", "ds,pso-zmp",
            "--zmp-threshold", "128",
            "--out", str(out),
            "--dump-mv",
            "--dump-recon",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "mean_psnr_db" in captured.out
    for fname in ("per_frame.csv", "summary.csv", "gains.csv", "meta.json"):
        assert (out / fname).exists()
    assert sorted(p.name for p in (out / "mv").iterdir()) == [
        "ds_frame0001.mvf",
        "ds_frame0002.mvf",
        "pso-zmp_frame0001.mvf",
        "pso-zmp_frame0002.mvf",
    ]
    assert len(list((out / "recon").iterdir())) == 4


def test_cli_usage_error_exit_1(tmp_path, capsys):
    path = make_clip(tmp_path, n_frames=2)
    assert main(["run", "--input", str(path), "--algos", "bogus"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --input
    assert exc.value.code == 1


def test_cli_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.44 TiB")

    monkeypatch.setattr(bench, "estimate", refuse)
    path = make_clip(tmp_path, n_frames=2)
    assert main(["run", "--input", str(path), "--algos", "es", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "mebench: out of memory: Unable to allocate 1.44 TiB\n"


def test_cli_raw_needs_dimensions(tmp_path):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(48 * 64 * 3 // 2))
    assert main(["run", "--input", str(raw), "--algos", "es"]) == 1


def test_cli_io_error_exit_2(tmp_path):
    assert main(["run", "--input", str(tmp_path / "absent.y4m"), "--algos", "es"]) == 2


DUMP_ALGOS = ("ds", "arps")
CSVS = ("per_frame.csv", "summary.csv", "gains.csv", "meta.json")


def dump_run_argv(clip: Path, out: Path) -> list[str]:
    return [
        "run",
        "--input", str(clip),
        "--algos", ",".join(DUMP_ALGOS),
        "--zmp-threshold", "128",
        "--out", str(out),
        "--dump-mv",
        "--dump-recon",
    ]


def dump_paths(out: Path, n_pairs: int) -> list[Path]:
    """Every dump of a dump_run_argv run, in the order the run makes them."""
    return [
        out / kind / f"{algo}_frame{k:04d}.{ext}"
        for k in range(1, n_pairs + 1)
        for algo in DUMP_ALGOS
        for kind, ext in (("mv", "mvf"), ("recon", "pgm"))
    ]


def held_writes(monkeypatch, fail_at: int | None = None, gate: threading.Event | None = None) -> list[Path]:
    """Route the dump writer's write_file through a recorder that writes
    nothing until `gate` is set and raises ENOSPC on write number `fail_at`."""
    write = video_io.write_file
    calls = []

    def recorded(path, data):
        calls.append(Path(path))
        if gate is not None:
            assert gate.wait(timeout=60)
        if len(calls) == fail_at:
            raise OSError(28, "No space left on device", str(path))
        write(path, data)

    monkeypatch.setattr(video_io, "write_file", recorded)
    return calls


def failing_estimate(monkeypatch, fail_at: int, gate: threading.Event) -> None:
    """Make bench's call number `fail_at` to estimate raise, after setting `gate`."""
    estimate = bench.estimate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == fail_at:
            gate.set()
            raise ValueError("matcher failed")
        return estimate(*args, **kwargs)

    monkeypatch.setattr(bench, "estimate", counted)


@pytest.mark.parametrize("fail_at", [1, 6, 16])
def test_failed_dump_write_exits_2_and_writes_nothing_after_it(tmp_path, capsys, monkeypatch, fail_at):
    clip, out = make_clip(tmp_path, n_frames=5), tmp_path / "o"
    order = dump_paths(out, 4)  # 16 dumps
    calls = held_writes(monkeypatch, fail_at=fail_at)
    threads = threading.active_count()
    assert main(dump_run_argv(clip, out)) == 2
    failed = OSError(28, "No space left on device", str(order[fail_at - 1]))
    assert capsys.readouterr().err == f"mebench: i/o error: {failed}\n"
    assert calls == order[:fail_at]  # nothing was tried after the failure
    assert [p.exists() for p in order] == [True] * (fail_at - 1) + [False] * (len(order) - fail_at + 1)
    assert not any((out / name).exists() for name in CSVS)
    assert threading.active_count() == threads


def test_matcher_error_leaves_every_dump_handed_off_before_it(tmp_path, monkeypatch):
    # the writer holds its first write until the matcher fails, so all eight
    # dumps of pairs 1 and 2 are still pending when the error is raised
    clip, out = make_clip(tmp_path, n_frames=4), tmp_path / "o"
    gate = threading.Event()
    held_writes(monkeypatch, gate=gate)
    failing_estimate(monkeypatch, fail_at=2 * len(DUMP_ALGOS) + 1, gate=gate)
    threads = threading.active_count()
    spec = RunSpec(
        input=str(clip),
        algos=list(DUMP_ALGOS),
        config=EstimatorConfig(zmp_threshold=128),
        out_dir=str(out),
        dump_mv=True,
        dump_recon=True,
    )
    with pytest.raises(ValueError, match="matcher failed"):
        run(spec)
    assert threading.active_count() == threads
    order = dump_paths(out, 3)
    assert [p.exists() for p in order] == [True] * 8 + [False] * 4
    assert not any((out / name).exists() for name in CSVS)
    # the same bytes as the dump functions write when called directly
    ref, seq = tmp_path / "ref", load_input(clip)
    ref.mkdir()
    for path in order[:8]:
        algo, k = path.stem.split("_frame")
        anchor, target = seq[int(k) - 1], seq[int(k)]
        field = estimators.estimate(algo, anchor, target, spec.config, spec.pso, seed=spec.seed ^ int(k))
        if path.suffix == ".mvf":
            dump_mv_field(field, ref / path.name)
        else:
            video_io.write_pgm(estimators.compensate(anchor, field).frame, ref / path.name)
        assert path.read_bytes() == (ref / path.name).read_bytes()


def test_failed_dump_write_wins_over_a_later_matcher_error(tmp_path, capsys, monkeypatch):
    clip, out = make_clip(tmp_path, n_frames=4), tmp_path / "o"
    gate = threading.Event()
    calls = held_writes(monkeypatch, fail_at=1, gate=gate)
    failing_estimate(monkeypatch, fail_at=3, gate=gate)
    threads = threading.active_count()
    assert main(dump_run_argv(clip, out)) == 2
    first = dump_paths(out, 1)[0]
    failed = OSError(28, "No space left on device", str(first))
    assert capsys.readouterr().err == f"mebench: i/o error: {failed}\n"
    assert calls == [first]
    assert not any(p.is_file() for p in out.rglob("*"))
    assert threading.active_count() == threads


def test_cli_data_error_exit_3(tmp_path):
    bad = tmp_path / "bad.y4m"
    bad.write_bytes(b"NOTAY4M\n")
    assert main(["run", "--input", str(bad), "--algos", "es"]) == 3


def test_synthetic_low_motion_gain_ordering(tmp_path):
    # talking-head-like clip: static textured background, one drifting
    # textured patch, mild sensor noise
    h, w, n = 96, 128, 11
    rng = np.random.default_rng(99)
    background = smooth_texture(h, w, seed=1)
    patch = smooth_texture(24, 24, seed=5)
    lumas = []
    for k in range(n):
        f = background.copy()
        f[32 + k // 2 : 56 + k // 2, 40 + 2 * k : 64 + 2 * k] = patch
        noise = rng.integers(-2, 3, f.shape)
        lumas.append(np.clip(f.astype(int) + noise, 0, 255).astype(np.uint8))
    clip = tmp_path / "head.y4m"
    write_y4m(clip, lumas)

    out = tmp_path / "o"
    report = run(
        RunSpec(
            input=str(clip),
            algos=["ds", "arps", "pso-zmp"],
            config=EstimatorConfig(zmp_threshold=384),
            seed=0,
            out_dir=str(out),
        )
    )
    # the headline trade: swarm cheapest, rood next, diamond dearest
    assert report.total_evals("pso-zmp") < report.total_evals("arps") < report.total_evals("ds")
    assert report.gain("pso-zmp", "ds") > 4.0
    assert report.static_fraction("pso-zmp") >= 0.5
    for algo in ("ds", "arps", "pso-zmp"):
        assert report.mean_psnr(algo) > 30.0


def test_cli_psnr_subcommand(tmp_path, capsys):
    a = make_clip(tmp_path, n_frames=2, name="a.y4m", identical=True)
    b = make_clip(tmp_path, n_frames=2, name="b.y4m", identical=True)
    assert main(["psnr", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "frame,psnr_db"
    assert out[-1] == "mean,100.00"


def test_module_entry(tmp_path):
    clip = make_clip(tmp_path, n_frames=2)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mebench", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    done = entry("psnr", "--a", str(clip), "--b", str(clip))
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "mean,100.00"
    done = entry("psnr", "--a", str(clip))  # --b missing
    assert done.returncode == 1
    assert "the following arguments are required: --b" in done.stderr


def test_cli_negative_seed_is_usage_error(tmp_path, capsys):
    path = make_clip(tmp_path, n_frames=2)
    argv = ["run", "--input", str(path), "--algos", "pso-zmp", "--zmp-threshold", "64"]
    assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--zmp-threshold", "nan", "zmp_threshold must be finite"),
        ("--zmp-threshold", "inf", "zmp_threshold must be finite"),
        ("--vmax", "nan", "v_max must be finite"),
        ("--vmax", "inf", "v_max must be finite"),
    ],
)
def test_cli_non_finite_value_is_usage_error(tmp_path, capsys, flag, value, message):
    path = make_clip(tmp_path, n_frames=2)
    argv = ["run", "--input", str(path), "--algos", "pso-zmp", "--zmp-threshold", "64"]
    assert main([*argv, flag, value, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # no meta.json with a bare NaN


@pytest.mark.parametrize("frames", ["0", "-2"])
def test_cli_frames_below_one_is_usage_error(tmp_path, capsys, frames):
    path = make_clip(tmp_path, n_frames=2)
    assert main(["run", "--input", str(path), "--algos", "es", "--frames", frames]) == 1
    assert f"--frames (max_frames) must be >= 1, got {frames}" in capsys.readouterr().err
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(48 * 64 * 3 // 2))
    argv = ["psnr", "--a", str(raw), "--b", str(raw), "--width", "64", "--height", "48"]
    assert main([*argv, "--frames", frames]) == 1
    assert "--frames" in capsys.readouterr().err


def test_cli_psnr_infers_raw_yuv_and_needs_dimensions(tmp_path, capsys):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(48 * 64 * 3 // 2))
    assert main(["psnr", "--a", str(raw), "--b", str(raw)]) == 1
    assert "needs --width and --height" in capsys.readouterr().err
    assert main(["psnr", "--a", str(raw), "--b", str(raw), "--width", "64", "--height", "48"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "mean,100.00"
