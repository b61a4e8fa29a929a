"""The benchmark's layer tracer looks functions up by name: each one it
lists must still exist, or `perfbench/run.py --trace 1` fails."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in _layers().items()
                                  for fn in fns])
def test_traced_function_resolves(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"holomem.{layer}"), fn))


def test_traced_property_resolves():
    measure = importlib.import_module("holomem.measure")
    assert isinstance(measure.AnalyzerSetting.__dict__["joint_projector"], property)
