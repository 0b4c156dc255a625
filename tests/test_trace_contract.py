"""The benchmark's tracer (benchmarks/tracing.py) wraps mebench names and reads
memo hits off BlockCost.__call__. A renamed target, or ES no longer calling
__call__, turns its per-layer metrics into null; these tests catch both."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from mebench import estimate
from mebench.metrics import BlockCost

from conftest import shifted_pair

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("mebench_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    # resolved as Tracer.install does: through each owner's own __dict__
    missing = []
    for span_name, target in _load_tracing().WRAPS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"mebench.{module}")
        for part in path:
            owner = owner.__dict__.get(part) if owner is not None else None
        if owner is None:
            missing.append((span_name, target))
    assert not missing


def test_es_makes_memo_miss_calls(monkeypatch):
    call = BlockCost.__call__
    misses = []

    def counted(self, d):
        misses.append(d not in self.counter.memo)
        return call(self, d)

    monkeypatch.setattr(BlockCost, "__call__", counted)
    anchor, target = shifted_pair(48, 64, (2, 1), seed=0)
    field = estimate("es", anchor, target)
    assert sum(misses) >= field.grid.n_blocks  # at least one per block
