"""Interleaved parent/change runs of the benchmark, saved as BENCH_<label>.json.

    python3 tools/pairs.py --parent HEAD~1 --change HEAD --pairs 10 --seed 7 --label wavefront
    python3 tools/pairs.py --parent HEAD --change HEAD --pairs 1 --seconds 1 --label smoke

--parent and --change each name a directory holding a checkout of the repo,
or a git revision, which is exported with `git archive` into a temporary
directory for the length of the run. For every workload (BENCHMARK.json's,
unless --workloads names some) and every pair, both sides run

    python3 benchmarks/run.py --workload W --seed S --seconds X --trace 0

one after the other in their own checkout, the side that runs first
alternating from pair to pair, so a drift in host load falls on both sides
alike. --pairs is 1 (a smoke run) or even, so each side runs first equally
often. The output holds every run's result line, and its wall-clock
pairs_per_s and host-speed medians from the summary line run.py prints
before it: the result line's pairs_per_s is normalised by the host speed,
so the two tell a slower program from a faster-reading probe. Per workload
and end-to-end metric it holds each side's median and quartiles, the
change's wins over the parent pair by pair (in the metric's better
direction), the wins of the side that ran first (the order effect), and
whether the gap of the medians exceeds the parent's interquartile range.
The exit status is 1 when any run failed or reported incorrect outputs.

tools/inproc.py shares this module's A/B driver: the argument checks, the
export, the round order, the child reader, first_wins and the writer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# benchmarks/run.py's summary line, e.g. "qcif-pan-es: 12 runs; wall
# pairs_per_s median 62.6, host speed median 0.73 (min 0.7)"
WALL = re.compile(r"wall pairs_per_s median (\S+), host speed median (\S+) ")


def check(p: argparse.ArgumentParser, args: argparse.Namespace, count: str) -> None:
    """Exit with a usage error when a side or the label is missing, or the
    round count --<count> is below 1, or odd but 1."""
    missing = [f"--{name}" for name in ("parent", "change", "label") if getattr(args, name) is None]
    if missing:
        p.error(f"the following arguments are required: {', '.join(missing)}")
    n = getattr(args, count)
    if n < 1:
        p.error(f"--{count} must be >= 1")
    if n > 1 and n % 2:
        # each side must run first equally often: the first run reads high
        p.error(f"--{count} must be 1 or even, got {n}")


def checkout(ref: str, scratch: Path) -> Path:
    """The directory of `ref`: itself when it is one, else `scratch`, a new
    directory that an export of the git revision fills."""
    if Path(ref).is_dir():
        return Path(ref).resolve()
    git = ["git", "archive", ref]
    archive = subprocess.run(git, cwd=ROOT, capture_output=True, check=True).stdout
    scratch.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch


@contextlib.contextmanager
def exported(args: argparse.Namespace):
    """Both sides' trees (side -> tree) for the length of the with block:
    checkout() of --parent into <tmp>/parent first, then of --change."""
    scratch = Path(tempfile.mkdtemp(prefix="mebench-ab-"))
    try:
        yield {side: checkout(getattr(args, side), scratch / side) for side in SIDES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def rounds(count: int) -> list[tuple[int, tuple[str, ...]]]:
    """Each round's index and its sides in run order; the side that runs
    first alternates, so a drift in host load falls on both alike."""
    return [(i, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(count)]


def read(proc: subprocess.CompletedProcess, holds) -> dict | None:
    """The last stdout line of the finished child `proc`, a JSON object that
    holds() accepts; else None, once the tail of its stderr is printed."""
    lines = proc.stdout.strip().splitlines()
    with contextlib.suppress(json.JSONDecodeError):
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if isinstance(result, dict) and holds(result):
            return result
    print(proc.stderr[-2000:], file=sys.stderr)
    return None


def end_to_end() -> dict[str, str]:
    """BENCHMARK.json's end-to-end metrics, each with its better direction."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run in `tree`: the benchmark's result line (None when the run
    failed, or its last line is no JSON object holding a value for every
    end-to-end metric), and the wall-clock pairs_per_s and host-speed
    medians of the summary line printed before it (None when it printed
    none)."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    names = end_to_end()
    result = read(proc, lambda r: isinstance(r.get("metrics"), dict) and all(
        isinstance(r["metrics"].get(name), dict) and "value" in r["metrics"][name] for name in names
    ))
    medians = WALL.search(proc.stdout)
    wall, speed = map(float, medians.groups()) if medians else (None, None)
    return {"result": result, "wall_pairs_per_s": wall, "host_speed": speed}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(both: list[tuple[float, float]], better: str) -> dict | None:
    """Both sides' spread over (parent, change) values of one metric, and
    the change's wins over the parent pair by pair."""
    if not both:
        return None
    sign = 1 if better == "higher" else -1
    parent = spread([a for a, _ in both])
    change = spread([b for _, b in both])
    gap = (change["median"] - parent["median"]) * sign
    return {
        "better": better,
        "pairs": len(both),
        "parent": parent,
        "change": change,
        "change_wins": sum((b - a) * sign > 0 for a, b in both),
        "gap_exceeds_parent_iqr": gap > parent["q3"] - parent["q1"],
    }


def compare_rounds(runs: list[dict], key: str, value, better: str) -> dict | None:
    """compare() over (parent, change) value(result) in each round run[key]
    in which both sides ran and measured it, plus first_wins: the rounds in
    which the side that ran first read better (a tie counts for neither)."""
    done: dict[int, dict] = {}
    for run in runs:
        if run["result"] is not None:
            done.setdefault(run[key], {})[run["side"]] = (value(run["result"]), run["first"])
    # each round's (parent, change) values, and whether the change ran first
    both = [((r["parent"][0], r["change"][0]), r["change"][1]) for r in done.values() if len(r) == 2]
    both = [(v, change_first) for v, change_first in both if None not in v]
    result = compare([v for v, _ in both], better)
    if result is not None:
        sign = 1 if better == "higher" else -1
        result["first_wins"] = sum(((b - a) if first else (a - b)) * sign > 0 for (a, b), first in both)
    return result


def write(args: argparse.Namespace, prefix: str, fields: dict, summary: dict, runs: list[dict]) -> None:
    """Write <prefix>_<label>.json into --out (default: the repo root): the
    label, both sides, the tool's own `fields`, the host, the summary and every run."""
    host = {"cpus": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()}
    report = {"label": args.label, "parent": args.parent, "change": args.change, **fields, "host": host}
    report.update(summary=summary, runs=runs)
    out = (args.out or ROOT) / f"{prefix}_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload and end-to-end metric, compare_rounds() over its pairs."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        summary[workload] = {
            metric: compare_rounds(mine, "pair", lambda result: result["metrics"][metric]["value"], better)
            for metric, better in directions.items()
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--parent", help="checkout directory or git revision")
    p.add_argument("--change", help="checkout directory or git revision")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    p.add_argument("--label", help="the output is BENCH_<label>.json")
    p.add_argument("--out", type=Path, help="output directory (default: the repo root)")
    args = p.parse_args(argv)
    check(p, args, "pairs")

    known = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        p.error(f"--workloads: unknown {', '.join(unknown)}; BENCHMARK.json names {', '.join(known)}")
    runs = []
    with exported(args) as trees:
        for workload in workloads:
            for pair, order in rounds(args.pairs):
                for side in order:
                    run = {"workload": workload, "pair": pair, "side": side, "first": side == order[0]}
                    run.update(run_once(trees[side], workload, args.seed, args.seconds))
                    runs.append(run)
                    result = run["result"]
                    value = None if result is None else result["metrics"]["pairs_per_s"]["value"]
                    print(f"{workload} pair {pair} {side}: pairs_per_s {value}", file=sys.stderr)

    command = f"python3 benchmarks/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0"
    write(args, "BENCH", {"command": command, "pairs": args.pairs}, summarize(runs, end_to_end()), runs)
    bad = [r for r in runs if r["result"] is None or r["result"].get("correct") is not True]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
