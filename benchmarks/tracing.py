"""Traced in-process run: spans around the calls into each mebench module.

The tracer replaces module attributes (and `BlockCost.__call__`) with timing
wrappers for the length of one `cli.main` call, so nothing in the package
changes. Each call becomes a span (name, start, end, parent) kept in typed
arrays in memory and saved when the run ends. A span's self time is its
duration minus the durations of its direct children.

A wrapped name that no longer exists in the package is reported as
unmeasured (value None), never as 0. A metric of a matcher or dump the
workload does not select is NA, not 0. The result line holds only RESULT:
metrics that every workload measures, so each is a number on every run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, attribute replaced). A span is named after the module that does
# the work; the attribute is where bench/cli look the callee up.
WRAPS = (
    ("bench.run", "cli.run"),
    ("video_io.load", "bench.load_input"),
    ("estimators.estimate", "bench.estimate"),
    ("pso.pso_match", "pso.pso_match"),
    ("metrics.BlockCost.__call__", "metrics.BlockCost.__call__"),
    ("metrics.frame_psnr", "bench.frame_psnr"),
    ("compensate.compensate", "bench.compensate"),
    ("bench.write_csv", "bench.write_csv"),
    ("bench.dump_mv_field", "bench.dump_mv_field"),
    ("video_io.write_pgm", "bench.write_pgm"),
)
WRITES = ("bench.write_csv", "bench.dump_mv_field", "video_io.write_pgm")
NA = "n/a"  # metric value: the workload does not run what the metric measures
MATCHERS = (("es", "estimators.es"), ("ds", "estimators.ds"), ("arps", "estimators.arps"), ("pso-zmp", "pso"))
# Per-layer metrics of the result line, as listed in BENCHMARK.json. The
# per-matcher, swarm and file-size metrics are printed in the table only,
# because some workload does not run what they measure.
RESULT = (
    "video_io.load_ms",
    "estimators.ms_per_pair",
    "estimators.evals_per_block",
    "estimators.us_per_eval",
    "estimators.search_us_per_block",
    "metrics.cost_calls_per_pair",
    "metrics.sad_us_per_eval",
    "metrics.cost_hit_frac",
    "metrics.frame_psnr_ms",
    "compensate.ms_per_call",
    "bench.write_ms_per_pair",
    "bench.self_ms_per_pair",
    "trace.overhead_frac",
    "wall.pairs_per_s",
)


def _memo_hit(args) -> int:
    """1 when BlockCost(d) is answered from the block's memo, -1 if the memo
    can no longer be seen."""
    try:
        return int(args[1] in args[0].counter.memo)
    except AttributeError:
        return -1


def _field_counts(args, field) -> tuple:
    """(algorithm, evaluations, static blocks) of one estimate() call."""
    return (args[0], field.total_evals, field.static_count)


HOOKS = {"metrics.BlockCost.__call__": (_memo_hit, None), "estimators.estimate": (None, _field_counts)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.attrs: dict[int, tuple] = {}
        self.host_speed: float | None = None  # probe.py speed during the run
        self._stack = [-1]
        self._restore: list[tuple] = []

    def install(self) -> None:
        for span_name, target in WRAPS:
            module, *path = target.split(".")
            owner = importlib.import_module(f"mebench.{module}")
            for part in path[:-1]:
                owner = owner.__dict__.get(part)
            fn = owner.__dict__.get(path[-1]) if owner is not None else None
            if fn is None:
                self.missing.append(span_name)
                continue
            self._restore.append((owner, path[-1], fn))
            setattr(owner, path[-1], self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        before, after = HOOKS.get(span_name, (None, None))
        name, parent, start, end, flag = self.name, self.parent, self.start, self.end, self.flag
        stack, attrs, clock = self._stack, self.attrs, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            flag.append(before(args) if before else 0)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i], end[i] = t0, t1
            if after:
                attrs[i] = after(args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            flag=np.frombuffer(self.flag, dtype=np.int8),
        )


def _ratio(num, den):
    return None if num is None or den == 0 else num / den


def layer_metrics(tr: Tracer, algos: list[str], pairs: int, n_blocks: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Times are scaled by the run's host speed (probe.py) to reference-host
    units. Metrics of a matcher the workload does not select read NA. A
    metric whose span is missing from the package, or is never entered, reads
    None.
    """
    name = np.frombuffer(tr.name, dtype=np.int64)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    # span times in reference-host units, like the end-to-end times
    dur = (np.frombuffer(tr.end, dtype=np.int64) - np.frombuffer(tr.start, dtype=np.int64)) * tr.host_speed
    flag = np.frombuffer(tr.flag, dtype=np.int8)
    has_parent = parent >= 0
    self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))

    def mask(span_name):
        if span_name in tr.names:
            return name == tr.names.index(span_name)
        return None

    def mean(span_name, scale, of=dur):
        """Mean span time per call, None when the span is missing or unused."""
        m = mask(span_name)
        return None if m is None else _ratio(of[m].sum() / scale, int(m.sum()))

    def total(span_name, scale, of=dur):
        m = mask(span_name)
        return None if m is None or not m.any() else of[m].sum() / scale

    blocks = pairs * n_blocks
    m = {"video_io.load_ms": (total("video_io.load", 1e6), "ms")}
    est, match, cost = mask("estimators.estimate"), mask("pso.pso_match"), mask("metrics.BlockCost.__call__")
    # The whole matcher set of the workload, pso-zmp included, per matcher-block
    est_ms = evals = us = search = None
    if est is not None:
        n_evals = sum(a[1] for a in tr.attrs.values())
        est_ms = dur[est].sum() / 1e6 / pairs
        evals = n_evals / (blocks * len(algos))
        us = _ratio(dur[est].sum() / 1e3, n_evals)
        if cost is not None:
            # estimate and pso_match minus the cost calls inside them
            search_ns = self_ns[est].sum() + (self_ns[match].sum() if match is not None else 0.0)
            search = search_ns / 1e3 / (blocks * len(algos))
    m["estimators.ms_per_pair"] = (est_ms, "ms/pair")
    m["estimators.evals_per_block"] = (evals, "evals/block")
    m["estimators.us_per_eval"] = (us, "us/eval")
    m["estimators.search_us_per_block"] = (search, "us/block")
    for algo, prefix in MATCHERS:
        if algo not in algos:
            ms = evals = us = static = NA
        elif mask("estimators.estimate") is None:
            ms = evals = us = static = None
        else:
            idx = [i for i, a in tr.attrs.items() if a[0] == algo]
            n_evals = sum(tr.attrs[i][1] for i in idx)
            ms = dur[idx].sum() / 1e6 / pairs
            evals = n_evals / blocks
            us = _ratio(dur[idx].sum() / 1e3, n_evals)
            static = sum(tr.attrs[i][2] for i in idx) / blocks
        m[f"{prefix}.ms_per_pair"] = (ms, "ms/pair")
        m[f"{prefix}.evals_per_block"] = (evals, "evals/block")
        if algo != "pso-zmp":
            m[f"{prefix}.us_per_eval"] = (us, "us/eval")
        if algo in ("arps", "pso-zmp"):
            m[f"{prefix}.static_frac"] = (static, "ratio")

    hits_known = cost is not None and not (flag[cost] < 0).any()
    if "pso-zmp" not in algos:
        match_us = self_us = hit_frac = NA
    else:
        match_us = mean("pso.pso_match", 1e3)
        # pso_match minus the cost calls inside it, which must be spans too
        self_us = mean("pso.pso_match", 1e3, self_ns) if cost is not None else None
        hit_frac = None
        if match is not None and hits_known:
            in_match = cost & has_parent & match[np.where(has_parent, parent, 0)]
            hit_frac = _ratio(float(flag[in_match].sum()), int(in_match.sum()))
    m["pso.match_us_per_block"] = (match_us, "us/block")
    m["pso.self_us_per_block"] = (self_us, "us/block")
    m["pso.memo_hit_frac"] = (hit_frac, "ratio")

    n_cost = 0 if cost is None else int(cost.sum())
    misses = cost & (flag == 0) if hits_known else None
    m["metrics.cost_calls_per_pair"] = (_ratio(n_cost or None, pairs), "calls/pair")
    m["metrics.sad_us_per_eval"] = (
        None if misses is None else _ratio(dur[misses].sum() / 1e3, int(misses.sum())),
        "us/eval",
    )
    m["metrics.cost_hit_frac"] = (
        _ratio(float(flag[cost].sum()), n_cost) if hits_known else None,
        "ratio",
    )
    m["metrics.frame_psnr_ms"] = (mean("metrics.frame_psnr", 1e6), "ms/call")
    m["compensate.ms_per_call"] = (mean("compensate.compensate", 1e6), "ms/call")
    writes = None
    if not any(w in tr.missing for w in WRITES):
        writes = sum(total(w, 1e6) or 0.0 for w in WRITES) / pairs
    m["bench.write_ms_per_pair"] = (writes, "ms/pair")
    m["bench.self_ms_per_pair"] = (_ratio(total("bench.run", 1e6, self_ns), pairs), "ms/pair")
    return m
