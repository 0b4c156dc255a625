"""mebench benchmark: three generated QCIF workloads run through the real CLI.

    python3 benchmarks/run.py --workload qcif-pan-es --seed 0 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table each

--trace 0 runs `mebench run` repeatedly, each time in a fresh interpreter and
one at a time, for --seconds, and reports the end-to-end metrics. --trace 1
runs the CLI once in a child for reference outputs, then alternates untraced
and traced `cli.main` calls in this process for --seconds, with every
module's entry points wrapped in spans (see tracing.py), and reports the
per-layer metrics. Every run's outputs are checked (see check.py). The last
stdout line is one JSON object: correct, attempted, failed, metrics.
METRICS.md defines every workload and metric.

Inputs are generated from --seed into benchmarks/.work/ and nothing else is
written. The package is imported from src/ next to this directory; without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import check  # noqa: E402
import clips  # noqa: E402
import tracing  # noqa: E402
from probe import HostSpeed  # noqa: E402

DEFAULT_SEED = 0
SETUP_RUNS = 5  # import-only interpreters per run, on top of one per timed run
CHILD_TIMEOUT_S = 150

# name -> (clip kind, fixed `mebench run` flags). Why each one exists is in
# BENCHMARK.json and METRICS.md.
WORKLOADS = {
    "qcif-pan-es": ("pan", ("--algos", "es", "--p", "7")),
    "qcif-pan-fast": ("pan", ("--algos", "ds,arps,pso-zmp", "--zmp-threshold", "8")),
    "qcif-static-long": (
        "static",
        ("--algos", "arps,pso-zmp", "--zmp-threshold", "384", "--dump-mv", "--dump-recon"),
    ),
}

# Bytecode is cached as after an install, so setup_s does not include
# compiling mebench; the warm-up child writes the cache.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _child(work: Path, mebench_argv: list[str] | None = None) -> dict | None:
    """Run child.py once; its JSON result, or None when it failed."""
    tail = [] if mebench_argv is None else ["--", *mebench_argv]
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), *tail]
    try:
        proc = subprocess.run(cmd, cwd=work, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd[4:])}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        kind, flags = WORKLOADS[name]
        self.work = HERE / ".work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.clip = clips.make_clip(kind, seed, self.work)
        self.algos = flags[flags.index("--algos") + 1].split(",")
        self.dumps = "--dump-mv" in flags
        self.argv = ["run", *self.clip.cli_args, *flags, "--out"]
        self._reference: tuple[dict, bool] | None = None

    def verify(self, out: Path) -> bool:
        """Full check of the first output; every later one must be identical."""
        digests = check.tree_digests(out)
        if self._reference is None:
            try:
                found = check.problems(out, self.clip.frames, self.algos, self.dumps)
                if self.seed == DEFAULT_SEED:
                    pinned = json.loads((HERE / "golden.json").read_text())[self.name]
                    if check.golden_digests(out) != pinned:
                        found.append(f"outputs differ from the sha256 pinned in golden.json for seed {DEFAULT_SEED}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [f"unreadable outputs: {exc!r}"]
            for p in found:
                print(f"{self.name}: {p}", file=sys.stderr)
            self._reference = (digests, not found)
        elif digests != self._reference[0]:
            print(f"{self.name}: outputs differ from the first run's", file=sys.stderr)
            return False
        return self._reference[1]

    def timed_runs(self, seconds: float) -> tuple[list[dict], int]:
        """Untraced CLI runs until the next one would overrun `seconds`;
        returns the samples of runs that passed and the number attempted."""
        samples, attempted, last = [], 0, 0.0
        deadline = time.monotonic() + seconds
        while attempted == 0 or time.monotonic() + last <= deadline:
            out = self.work / "out"
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.monotonic()
            res = _child(self.work, self.argv + ["out"])
            attempted += 1
            if res is not None and res["rc"] == 0 and self.verify(out):
                samples.append(res)
            last = time.monotonic() - t0
        return samples, attempted


def _median(values):
    """Median, or None (unmeasured) when no run passed."""
    return statistics.median(values) if values else None


def end_to_end(w: Workload, seconds: float) -> tuple[dict, int, int]:
    _child(w.work)  # warm-up: writes the bytecode cache
    setup_only = [r for r in (_child(w.work) for _ in range(SETUP_RUNS)) if r]
    samples, attempted = w.timed_runs(seconds)
    # Times are in reference-host seconds: wall time x the mean host speed
    # sampled during it (see probe.py), which cancels other tenants' load.
    rates = [w.clip.pairs / (s["main_s"] * s["main_speed"]) for s in samples]
    setups = [r["setup_s"] * r["setup_speed"] for r in setup_only + samples]
    if samples:
        speeds = [s["main_speed"] for s in samples]
        print(
            f"{w.name}: {len(rates)} runs; wall pairs_per_s median "
            f"{_median([w.clip.pairs / s['main_s'] for s in samples]):.4g}, "
            f"host speed median {_median(speeds):.3g} (min {min(speeds):.3g})"
        )
    metrics = {
        "pairs_per_s": (_median(rates), "pairs/s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([s["peak_rss_mib"] for s in samples]), "MiB"),
        "ok_frac": (len(samples) / attempted, "ratio"),
    }
    return metrics, attempted, attempted - len(samples)


def _in_process(w: Workload, out: str, tracer=None) -> tuple[float, float] | None:
    """Run `cli.main` in this process; its (wall seconds, host speed), or None
    when it failed or wrote other bytes than the untraced child run."""
    import mebench.cli

    shutil.rmtree(w.work / out, ignore_errors=True)
    host = HostSpeed()
    cwd = os.getcwd()
    os.chdir(w.work)  # same relative paths as the child runs, so meta.json matches too
    if tracer is not None:
        tracer.install()
    host.start()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mebench.cli.main(w.argv + [out])
        t1 = time.perf_counter()
        speed = host.speed(t0, host.sampled_now())
    except Exception:  # a crash is a failed run, like a child's non-zero exit
        traceback.print_exc()
        rc = None
    finally:
        host.stop()
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    if rc != 0 or check.tree_digests(w.work / out) != check.tree_digests(w.work / "out"):
        print(f"{w.name}: in-process run ({'traced' if tracer else 'untraced'}) wrote other bytes", file=sys.stderr)
        return None
    if tracer is not None:
        tracer.host_speed = speed
    return t1 - t0, speed


def per_layer(w: Workload, seconds: float) -> tuple[dict, int, int]:
    sys.path.insert(0, str(SRC))
    _child(w.work)
    samples, attempted = w.timed_runs(0)  # one CLI run: the reference bytes, fully checked
    failed = attempted - len(samples)
    # Untraced and traced runs alternate in this process; the fastest of
    # each, in reference-host seconds (wall x host speed), are compared.
    plain, traced, best, deadline, last = [], [], None, time.monotonic() + seconds, 0.0
    while not traced or time.monotonic() + last <= deadline:
        t0 = time.monotonic()
        plain.append(_in_process(w, "out_plain"))
        tracer = tracing.Tracer()
        traced.append(_in_process(w, "out_traced", tracer))
        if traced[-1] is not None and (best is None or math.prod(traced[-1]) < best[0]):
            best = (math.prod(traced[-1]), tracer)
        last = time.monotonic() - t0
    attempted += len(plain) + len(traced)
    failed += sum(t is None for t in plain + traced)
    if best is None:
        return {}, attempted, failed
    tracer = best[1]
    tracer.save(w.work / "spans.npz")

    metrics = tracing.layer_metrics(tracer, w.algos, w.clip.pairs, (clips.WIDTH // 16) * (clips.HEIGHT // 16))
    metrics["video_io.input_mb"] = (w.clip.path.stat().st_size / 2**20, "MiB")
    out = w.work / "out_traced"
    dumped = sum(p.stat().st_size for d in ("mv", "recon") for p in (out / d).glob("*"))
    metrics["bench.dump_mb"] = (dumped / 2**20 if w.dumps else tracing.NA, "MiB")
    ok_plain = [t for t in plain if t is not None]
    metrics["trace.overhead_frac"] = (best[0] / min(map(math.prod, ok_plain)) - 1 if ok_plain else None, "ratio")
    # Raw wall time, not normalised by host speed, of the untraced calls
    metrics["wall.pairs_per_s"] = (_median([w.clip.pairs / s for s, _ in ok_plain]), "pairs/s")
    print(f"{w.name}: host speed {tracer.host_speed:.3g} during the reported traced call")
    for name in tracer.missing:
        print(f"unmeasured: {name} no longer exists in mebench", file=sys.stderr)
    return metrics, attempted, failed


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = Workload(name, seed)
    metrics, attempted, failed = (per_layer if traced else end_to_end)(w, seconds)
    print(f"{name} (seed {seed}, {w.clip.pairs} pairs, {attempted} runs, {failed} failed)")
    for key, (value, unit) in metrics.items():
        if value is None or value is tracing.NA:
            shown = "unmeasured" if value is None else "n/a"
            print(f"  {key:<34} {shown:>12} {unit}")
        else:
            print(f"  {key:<34} {value:>12.6g} {unit}")
    # An unmeasured metric of the result line reads null: the run then lacks
    # a number, and the wrap in tracing.py must follow the renamed code.
    keys = tracing.RESULT if traced and metrics else metrics
    result = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "mebench" / "cli.py").is_file():
        print(f"benchmark: no mebench package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
