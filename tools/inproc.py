"""Interleaved in-process timings of `estimate` at two revisions, saved as INPROC_<label>.json.

    python3 tools/inproc.py --parent HEAD~1 --change HEAD --reps 8 --label sea
    python3 tools/inproc.py --parent HEAD --change HEAD --reps 1 --label smoke

--parent and --change each name a directory holding a checkout of the repo,
or a git revision, exported by the A/B driver of tools/pairs.py, which this
tool shares. Each rep runs one child process, which imports both sides'
`src/mebench`, each under its own package name (the package uses only
relative imports), and times `estimate` for every matcher on two inputs
that this checkout's benchmarks/clips.py generates, the same for both sides:

    pan     the 30 pairs of the seed-0 pan clip, zmp_threshold 8, p = 7
    static  the 300 pairs of the seed-0 static clip, zmp_threshold 384, p = 7

each pair seeded by its target frame's index, as `mebench run --seed 0`
seeds it. Per input and matcher the child runs 5 passes, each pass timing
both sides one after the other, and keeps each side's best pass; the side
that runs first in every pass alternates from rep to rep. So host
contention that lasts a pass or more falls on both sides alike. The output
holds every rep's ms per pair and a digest of the fields each side
estimated, as one run per side, and, per input and matcher, each side's
median and quartiles, the change's wins over the parent rep by rep, the
wins of the side that ran first, whether the gap of the medians exceeds the
parent's interquartile range, and whether both sides estimated the same
fields. The exit status is 1 when a child failed or printed no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pairs  # noqa: E402
from pairs import ROOT, SIDES  # noqa: E402

PASSES = 5
INPUTS = {
    "pan": "the 30 pairs of benchmarks/clips.py pan_frames(0), zmp_threshold 8, search_param 7",
    "static": "the 300 pairs of benchmarks/clips.py static_frames(0), zmp_threshold 384, search_param 7",
}


def load(src: str, name: str):
    """The package `mebench` under `src`, imported as `name`."""
    package = Path(src) / "mebench"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def child(srcs: dict[str, str]) -> dict:
    """Time every matcher of each side's `mebench` (side -> src, in run
    order) on both inputs: per side, input and matcher, the best of PASSES
    passes in ms per pair, and a digest of the fields estimated."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import clips

    packages = {side: load(src, f"mebench_{side}") for side, src in srcs.items()}
    inputs = {
        "pan": (clips.pan_frames(0), {"search_param": 7, "zmp_threshold": 8}),
        "static": (clips.static_frames(0), {"search_param": 7, "zmp_threshold": 384}),
    }
    results = {side: {"ms_per_pair": {}, "digest": {}} for side in srcs}
    for name, (lumas, settings) in inputs.items():
        frames = {side: [mb.Frame(luma) for luma in lumas] for side, mb in packages.items()}
        configs = {side: mb.EstimatorConfig(**settings) for side, mb in packages.items()}
        for side in srcs:
            results[side]["ms_per_pair"][name], results[side]["digest"][name] = {}, {}
        for algorithm in next(iter(packages.values())).ALGORITHMS:
            best, fields = dict.fromkeys(srcs, float("inf")), {}
            for _ in range(PASSES):
                for side, mb in packages.items():
                    f, config = frames[side], configs[side]
                    start = time.perf_counter()
                    fields[side] = [mb.estimate(algorithm, f[k - 1], f[k], config, seed=k) for k in range(1, len(f))]
                    best[side] = min(best[side], time.perf_counter() - start)
            for side in srcs:
                digest = hashlib.sha256()
                for field in fields[side]:
                    digest.update(field.vectors.tobytes() + field.evals_per_block.tobytes())
                results[side]["ms_per_pair"][name][algorithm] = best[side] / len(fields[side]) * 1e3
                results[side]["digest"][name][algorithm] = digest.hexdigest()[:16]
    return results


def run_child(trees: dict[str, Path]) -> dict | None:
    """One child on the checkouts `trees` (side -> tree, in run order); its
    result per side, or None when it failed or printed no result for both."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child"]
    cmd += [f"{side}={tree / 'src'}" for side, tree in trees.items()]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return pairs.read(proc, lambda result: set(result) == set(SIDES))


def summarize(runs: list[dict]) -> dict:
    """Per input and matcher, pairs.compare_rounds over the reps (lower ms
    per pair is better), plus same_fields, whether every digest agrees: one
    child times both sides of a rep, so a rep with a result has both."""
    results = [run["result"] for run in runs if run["result"] is not None]
    summary: dict[str, dict] = {}
    for name in INPUTS:
        summary[name] = {}
        for matcher in dict.fromkeys(m for r in results for m in r["ms_per_pair"][name]):
            result = pairs.compare_rounds(runs, "rep", lambda r: r["ms_per_pair"][name][matcher], "lower")
            digests = {r["digest"][name][matcher] for r in results}
            result["same_fields"] = len(digests) == 1
            summary[name][matcher] = result
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--parent", help="checkout directory or git revision")
    p.add_argument("--change", help="checkout directory or git revision")
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--label", help="the output is INPROC_<label>.json")
    p.add_argument("--out", type=Path, help="output directory (default: the repo root)")
    p.add_argument("--child", nargs=2, metavar="SIDE=SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(dict(arg.split("=", 1) for arg in args.child))))
        return 0
    pairs.check(p, args, "reps")

    runs = []
    with pairs.exported(args) as trees:
        for rep, order in pairs.rounds(args.reps):
            results = run_child({side: trees[side] for side in order})
            for side in order:
                result = None if results is None else results[side]
                runs.append({"rep": rep, "side": side, "first": side == order[0], "result": result})
                pan = "failed" if result is None else " ".join(
                    f"{matcher} {ms:.3f}" for matcher, ms in result["ms_per_pair"]["pan"].items()
                )
                print(f"rep {rep} {side}: pan ms/pair {pan}", file=sys.stderr)

    pairs.write(args, "INPROC", {"reps": args.reps, "passes": PASSES, "inputs": INPUTS}, summarize(runs), runs)
    return 1 if any(run["result"] is None for run in runs) else 0


if __name__ == "__main__":
    raise SystemExit(main())
