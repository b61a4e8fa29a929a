"""The benchmark's layer tracer looks functions up by name: each one it
lists must still exist, or `perfbench/run.py --trace 1` fails."""
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from holomem import measure, qstate, tomo

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _spans().LAYERS


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in _layers().items()
                                  for fn in fns])
def test_traced_function_resolves(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"holomem.{layer}"), fn))


def test_traced_property_resolves():
    measure = importlib.import_module("holomem.measure")
    assert isinstance(measure.AnalyzerSetting.__dict__["joint_projector"], property)


def test_mle_counters_are_json_numbers():
    # The tracer adds each one-set solve's iterations and converged flag into
    # counters that the trace run writes as JSON.
    ts = tomo.make_settings(36)
    counts = measure.sample_counts(qstate.werner(0.85), list(ts.settings), 5000, 0.5, seed=9)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        tomo.mle_reconstruct(counts, np.ones(36), ts)
    finally:
        tracer.uninstall()
    kept = {key: tracer.counts[key] for key in ("tomo.mle.iterations", "tomo.mle.converged")}
    assert all(type(value) is int for value in kept.values())
    assert kept["tomo.mle.iterations"] > 0 and kept["tomo.mle.converged"] == 1
    assert json.loads(json.dumps(kept)) == kept
