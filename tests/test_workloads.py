"""The benchmark's cli-tools ops, run once in-process: every output must pass
its op's check, and every damaged copy of it must fail that check, or the
benchmark would read the run as incorrect."""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from holomem import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cycle(tmp_path_factory):
    # The warm-up list of cli-tools is one cycle of its op kinds.
    warm, _ = _workloads().build("cli-tools", 12, tmp_path_factory.mktemp("cli-tools"))
    return warm


def test_one_cycle_covers_every_kind(cycle):
    assert len({op.kind for op in cycle}) == len(cycle) == 9


@pytest.mark.parametrize("index", range(9))
def test_op_output_passes_check_and_corruptions_fail(cycle, index):
    op = cycle[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(op.argv)) == cli.EXIT_OK
    text = out.getvalue()
    assert op.check(text) is None, f"{op.kind}: {op.check(text)}"
    for bad in op.corruptions(text):
        assert op.check(bad) is not None, f"{op.kind}: a corrupted output passed its check"
