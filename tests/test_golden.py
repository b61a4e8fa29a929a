"""The default-scenario report, checked key by key against a committed copy.

Regenerate after an intended change with
    PYTHONPATH=src python -m holomem.cli simulate --out tests/golden/default_report.json
and state the changed keys and their largest deviations with the change.
"""
import copy
import json
import math
from pathlib import Path

import pytest

from holomem import cli

GOLDEN = Path(__file__).parent / "golden" / "default_report.json"

# Relative tolerances for floats.  Analytic keys (closed forms, the EIT
# window and delay, the embedded config) are deterministic up to BLAS and
# libm rounding: 1e-9.  Keys under "statistical" come from the MLE and
# Monte Carlo solves, which stop at a gradient tolerance: 1e-6.  Integer
# counts (total counts, iterations, seeds, n_sets) and strings must match
# exactly.
REL_ANALYTIC = 1e-9
REL_STATISTICAL = 1e-6


def _compare(golden, actual, path: str, rel: float, problems: list) -> None:
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or set(golden) != set(actual):
            problems.append(f"{path}: keys differ from {sorted(golden)}")
            return
        for key in golden:
            sub = f"{path}.{key}" if path else key
            _compare(golden[key], actual[key], sub,
                     REL_STATISTICAL if sub == "statistical" else rel, problems)
    elif isinstance(golden, list):
        if not isinstance(actual, list) or len(golden) != len(actual):
            problems.append(f"{path}: {actual!r} != {golden!r}")
            return
        for i, (g, a) in enumerate(zip(golden, actual)):
            _compare(g, a, f"{path}[{i}]", rel, problems)
    elif isinstance(golden, float):
        if not (isinstance(actual, float)
                and math.isclose(actual, golden, rel_tol=rel, abs_tol=0.0)):
            problems.append(f"{path}: {actual!r} != {golden!r} (rel {rel:g})")
    elif type(actual) is not type(golden) or actual != golden:
        problems.append(f"{path}: {actual!r} != {golden!r} (exact)")


def test_default_report_matches_golden():
    report = json.loads(cli.report_to_json(cli.run_simulate(cli.load_scenario(
        cli.default_config()))))
    problems = []
    _compare(json.loads(GOLDEN.read_text()), report, "", REL_ANALYTIC, problems)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("path,change,caught", [
    (("analytic", "eit_fwhm_hz"), lambda v: v * (1.0 + 10 * REL_ANALYTIC), True),
    (("analytic", "eit_group_delay_s"), lambda v: v * (1.0 + 10 * REL_ANALYTIC), True),
    (("statistical", "input", "mc", "std"), lambda v: v * (1.0 + 10 * REL_STATISTICAL), True),
    (("statistical", "input", "mc", "std"), lambda v: v * (1.0 + 0.1 * REL_STATISTICAL), False),
    (("statistical", "input", "mle_iterations"), lambda v: v + 1, True),
])
def test_comparator_tolerances(path, change, caught):
    golden = json.loads(GOLDEN.read_text())
    drifted = copy.deepcopy(golden)
    *parents, key = path
    node = drifted
    for part in parents:
        node = node[part]
    node[key] = change(node[key])
    problems = []
    _compare(golden, drifted, "", REL_ANALYTIC, problems)
    assert [p.split(":")[0] for p in problems] == ([".".join(path)] if caught else [])
