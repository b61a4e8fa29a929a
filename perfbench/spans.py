"""Outside-in layer tracing for the holomem benchmark.

`Tracer.install()` replaces the module attributes of the public functions
listed in LAYERS with wrappers that record one span per call: name, start,
end, parent span and op id.  Calls between holomem functions go through
module globals (for example `monte_carlo_fidelity` calling
`mle_reconstruct`), so the wrappers see them and spans nest.  The
`AnalyzerSetting.joint_projector` property is counted, not timed: its cost
stays in the caller's self time.

Counters come from public results only: `TomographyResult.iterations` and
`.converged` for every MLE solve, and `FitResult.converged` for every fit.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# Layer -> wrapped public functions.  Names are "<layer>.<function>".
LAYERS = {
    "tomo": ("make_settings", "linear_inversion", "mle_reconstruct", "monte_carlo_fidelity"),
    "measure": ("sample_counts", "coincidence_prob", "correlation", "chsh_s", "visibility"),
    "qstate": ("fidelity", "check_density_matrix"),
    "channel": ("input_state", "store_retrieve", "calibrated_channel_params"),
    "eitline": ("transparency_fwhm", "transmission", "phase"),
    "registers": ("crosstalk", "expected_crosstalk"),
    "fitkit": ("fit_exponential", "fit_visibility"),
    "cli": ("default_config", "load_scenario", "run_simulate", "report_to_json", "main"),
}


class Tracer:
    """Keeps spans and counters in memory until `write`."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result) -> None:
        if name == "tomo.mle_reconstruct":
            self.counts["tomo.mle.iterations"] += result.iterations
            self.counts["tomo.mle.converged"] += bool(result.converged)
        elif name.startswith("fitkit.fit_"):
            self.counts["fitkit.converged"] += bool(result.converged)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            self._observe(name, result)
            return result

        return traced

    def install(self) -> None:
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"holomem.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._restore.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{layer}.{fn_name}", original))

        measure = importlib.import_module("holomem.measure")
        prop = measure.AnalyzerSetting.__dict__["joint_projector"]
        counts = self.counts

        def joint_projector(setting):
            counts["measure.joint_projector.calls"] += 1
            return prop.fget(setting)

        self._restore.append((measure.AnalyzerSetting, "joint_projector", prop))
        measure.AnalyzerSetting.joint_projector = property(joint_projector)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: op, span index, parent, name, start, end."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([op, index, parent, name, start, end]) + "\n")


def span_stats(spans):
    """Per-name call count, inclusive time and self time, and per-op sums
    of self time.  Self time is a span's duration minus its children's."""
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    op_self = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(spans):
        own = (end - start) - child_time[index]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += own
        op_self[op] += own
    return calls, total, self_time, op_self


def nesting_errors(spans) -> list[str]:
    """Spans that leave their parent's interval or the parent's op."""
    errors = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            errors.append(f"span {index} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            if start < p_start or end > p_end or op != p_op:
                errors.append(f"span {index} {name} escapes parent {parent} {p_name}")
    return errors
