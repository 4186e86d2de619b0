"""The computed per-layer counts repeat exactly when a traced pass is run twice.

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counts(workload, ds):
    tracer = tracing.Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        fits = workload.run(ds, lambda name: None)
    finally:
        tracer.uninstall()
    assert [f.error for f in fits] == [None] * len(fits)
    layers = tracer.layer_metrics(mark)
    return {name: layers[name] for name in tracing.COMPUTED_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_computed_counts_repeat(name):
    workload = workloads.WORKLOADS[name]
    ds = workloads.Dataset(1, ROOT / ".bench_build" / "perfbench" / "test" / name)
    workloads.generate(ROOT / "scripts" / "make_synthetic_data.py", ds.dir, ds.seed, workload.data_args)
    workload.prepare(ds)
    first = traced_counts(workload, ds)
    second = traced_counts(workload, ds)
    assert first == second
    assert first["engine.sweeps"] > 0 and first["natparam.factor_flops"] > 0
    assert (first["fragments_glm.rows"] > 0) == (name != "groups-wide")
