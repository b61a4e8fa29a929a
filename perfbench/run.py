#!/usr/bin/env python3
"""holomem benchmark: one command per workload, every op checked.

    python3 perfbench/run.py --workload simulate-mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; holomem is imported from `src/`
(nothing is installed or built).  Each op is one in-process
`holomem.cli.main(argv)` call with `--workers` at its default of 1.  With
`--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of one traced
round (which ignores `--seconds`).
The lines above it, and the record under `perfbench/out/`, add the
metrics that are not gated (fail_ratio, op_tail_s), per-kind latencies,
report SHA-256s and machine facts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# numpy's OpenBLAS pool would otherwise spin a second thread on holomem's
# 4x4 problems.  On a 2-CPU machine that doubled the CPU time of a simulate
# op with no gain in wall time, and next to one other busy process an op
# took 40 s instead of 4.  Set before numpy loads; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Percentiles tried for op_tail_s, highest first; one counts only when at
# least TAIL_BEYOND ops lie above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
# Floor on how far traced self times may fall short of op wall time.
SPAN_GAP_FLOOR_S = 1e-3
# In a traced run, every TWIN_EVERY-th op also runs untraced.
TWIN_EVERY = 4

# Runs in a fresh interpreter: import the CLI with numpy, scipy and
# PyYAML, load and validate the bundled scenario, build the 36-setting
# scheme.  Prints the elapsed seconds.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from holomem import cli, tomo
tomo.make_settings(cli.load_scenario(cli.default_config()).tomo_scheme)
print(repr(time.perf_counter() - t0))
"""

PER_LAYER_UNITS = {"calls": "count/op", "self_s": "s/op", "total_s": "s/op",
                   "share": "ratio"}
# The per-layer metrics of BENCHMARK.json, in order.  Names ending in
# .calls/.self_s/.total_s are span statistics per traced op; .share is a
# layer's summed self time over traced op time.
PER_LAYER = (
    "tomo.mle_reconstruct.calls", "tomo.mle_reconstruct.self_s",
    "tomo.mle.iterations", "tomo.mle.nonconverged", "tomo.mle.converged_ratio",
    "tomo.linear_inversion.calls", "tomo.linear_inversion.self_s",
    "tomo.make_settings.calls", "tomo.make_settings.self_s",
    "tomo.monte_carlo_fidelity.calls", "tomo.monte_carlo_fidelity.self_s",
    "measure.joint_projector.calls",
    "measure.sample_counts.calls", "measure.sample_counts.self_s",
    "measure.coincidence_prob.calls", "measure.coincidence_prob.self_s",
    "measure.correlation.calls", "measure.correlation.self_s",
    "measure.chsh_s.total_s",
    "measure.visibility.calls", "measure.visibility.self_s",
    "qstate.fidelity.calls", "qstate.fidelity.self_s",
    "qstate.check_density_matrix.calls", "qstate.check_density_matrix.self_s",
    "channel.input_state.calls", "channel.input_state.self_s",
    "channel.store_retrieve.calls", "channel.store_retrieve.self_s",
    "channel.calibrated_channel_params.calls", "channel.calibrated_channel_params.self_s",
    "eitline.transparency_fwhm.calls", "eitline.transparency_fwhm.total_s",
    "eitline.transmission.calls", "eitline.transmission.self_s",
    "eitline.phase.calls", "eitline.phase.self_s",
    "registers.crosstalk.calls", "registers.crosstalk.self_s",
    "registers.expected_crosstalk.calls", "registers.expected_crosstalk.self_s",
    "fitkit.fit_exponential.calls", "fitkit.fit_exponential.self_s",
    "fitkit.fit_visibility.calls", "fitkit.fit_visibility.self_s",
    "fitkit.converged_ratio",
    "cli.default_config.calls", "cli.default_config.self_s",
    "cli.load_scenario.calls", "cli.load_scenario.self_s",
    "cli.report_to_json.calls", "cli.report_to_json.self_s",
    "cli.run_simulate.self_s", "cli.main.self_s",
    *(f"{layer}.share" for layer in spans.LAYERS),
    "trace.overhead",
)


def import_cli():
    """Import holomem.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "holomem" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'holomem'} not found; run from a holomem checkout")
    sys.path.insert(0, str(SRC))
    from holomem import cli
    if Path(cli.__file__).resolve().parent != (SRC / "holomem").resolve():
        raise SystemExit(f"error: holomem imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


@dataclass(slots=True)
class Record:
    """One op run.  rc is None when the op raised."""

    index: int
    round: int
    traced: bool
    wall: float
    rc: int | None
    error: str | None
    digest: str


def run_op(cli, op: workloads.Op) -> tuple[float, int | None, str | None, str]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if rc not in (0, None):
        lines = err.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit {rc}"
    return wall, rc, error, out.getvalue()


class Runner:
    """Runs the round of ops.  Untraced, it repeats whole rounds while
    another one fits in the time.  Traced, it runs one round traced and
    every TWIN_EVERY-th op a second time untraced, right before or after
    its traced run, so that tracing overhead compares the same ops at
    nearly the same time."""

    def __init__(self, cli, ops, tracer=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.records: list[Record] = []
        self.outputs: dict[str, str] = {}
        self.rounds = 0
        self.elapsed = 0.0

    def run(self, seconds: float) -> None:
        if self.tracer is not None:
            self._traced_round()
            return
        start = time.perf_counter()
        while True:
            for index, op in enumerate(self.ops):
                self._run(index, op, traced=False)
            self.rounds += 1
            self.elapsed = time.perf_counter() - start
            if self.elapsed + self.elapsed / self.rounds > seconds:
                return

    def _traced_round(self) -> None:
        for index, op in enumerate(self.ops):
            twin, order = divmod(index, TWIN_EVERY)
            twin_first = order == 0 and twin % 2 == 1
            if twin_first:
                self._run(index, op, traced=False)
            self.tracer.install()
            try:
                self.tracer.op = len(self.records)
                self._run(index, op, traced=True)
            finally:
                self.tracer.uninstall()
            if order == 0 and not twin_first:
                self._run(index, op, traced=False)
        self.rounds = 1

    def _run(self, index: int, op: workloads.Op, traced: bool) -> None:
        wall, rc, error, text = run_op(self.cli, op)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.outputs.setdefault(digest, text)
        self.records.append(Record(index, self.rounds, traced, wall, rc, error, digest))


def judge(runner: Runner) -> tuple[dict[str, int], list[str]]:
    """Check every op.  Returns (failed ops by class, problems that make
    the run incorrect)."""
    verdicts: dict[tuple[int, str], str | None] = {}
    classes, problems = Counter(), []
    for rec in runner.records:
        op = runner.ops[rec.index]
        if rec.rc == 0:
            key = (rec.index, rec.digest)
            if key not in verdicts:
                verdicts[key] = op.check(runner.outputs[rec.digest])
            if verdicts[key]:
                classes["check"] += 1
                problems.append(f"op {rec.index} {op.kind}: {verdicts[key]}")
        elif rec.rc == 2:
            # Exit 2 is NonConvergenceError: a failed op, not a wrong output.
            classes["exit-2"] += 1
        else:
            label = "exception" if rec.rc is None else f"exit-{rec.rc}"
            classes[label] += 1
            problems.append(f"op {rec.index} {op.kind}: {label}: {rec.error}")

    # The same argv must give the same exit code and output in every round.
    seen: dict[int, set] = defaultdict(set)
    for rec in runner.records:
        seen[rec.index].add((rec.rc, rec.digest if rec.rc == 0 else None))
    for index, outcomes in seen.items():
        if len(outcomes) > 1:
            problems.append(f"op {index} {runner.ops[index].kind}: "
                            f"{len(outcomes)} different outcomes across rounds")
    return dict(classes), sorted(set(problems))


def corruption_self_check(runner: Runner) -> list[str]:
    """The checks must reject damaged copies of a good output of each kind."""
    problems, done = [], set()
    for rec in runner.records:
        op = runner.ops[rec.index]
        if rec.rc != 0 or op.kind in done:
            continue
        text = runner.outputs[rec.digest]
        if op.check(text) is not None:
            continue
        done.add(op.kind)
        for n, bad in enumerate(op.corruptions(text)):
            if op.check(bad) is None:
                problems.append(f"self-check: corrupted {op.kind} output #{n} passed its check")
    return problems


def tail_latency(walls: list[float]):
    """Highest listed percentile with at least TAIL_BEYOND ops above it
    (nearest rank), as (percentile, value); None if the run is too short."""
    ordered = sorted(walls)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(runner: Runner, tracer: spans.Tracer) -> tuple[dict, list[str], dict]:
    traced = [r for r in runner.records if r.traced]
    untraced = [r for r in runner.records if not r.traced]
    n_ops = len(traced)
    # Tracing overhead over the ops that ran both ways.
    traced_wall = sum(traced[r.index].wall for r in untraced)
    untraced_wall = sum(r.wall for r in untraced)
    overhead_per_op = (traced_wall - untraced_wall) / len(untraced)

    calls, total, self_time, op_self = spans.span_stats(tracer.spans)
    solves = calls["tomo.mle_reconstruct"]
    fits = calls["fitkit.fit_exponential"] + calls["fitkit.fit_visibility"]
    op_time = sum(r.wall for r in traced)
    values = {
        "tomo.mle.iterations": (tracer.counts["tomo.mle.iterations"] / solves
                                if solves else 0.0, "count/solve"),
        "tomo.mle.nonconverged": ((solves - tracer.counts["tomo.mle.converged"]) / n_ops,
                                  "count/op"),
        # A layer that made no attempt wasted none: the ratio reads 1.
        "tomo.mle.converged_ratio": (tracer.counts["tomo.mle.converged"] / solves
                                     if solves else 1.0, "ratio"),
        "fitkit.converged_ratio": (tracer.counts["fitkit.converged"] / fits
                                   if fits else 1.0, "ratio"),
        "measure.joint_projector.calls": (tracer.counts["measure.joint_projector.calls"]
                                          / n_ops, "count/op"),
        "trace.overhead": (1.0 - untraced_wall / traced_wall, "ratio"),
    }
    for layer, functions in spans.LAYERS.items():
        layer_self = sum(self_time[f"{layer}.{fn}"] for fn in functions)
        values[f"{layer}.share"] = (layer_self / op_time, "ratio")
    out = {}
    for name in PER_LAYER:
        if name in values:
            value, unit = values[name]
        else:
            fn, stat = name.rsplit(".", 1)
            table = {"calls": calls, "self_s": self_time, "total_s": total}[stat]
            value, unit = table[fn] / n_ops, PER_LAYER_UNITS[stat]
        out[name] = metric(value, unit)

    # Self times of an op's spans cover the op's wall time, short only by
    # the harness's own timing code outside the cli.main span.
    problems = [f"self-check: {e}" for e in spans.nesting_errors(tracer.spans)[:5]]
    tolerance = max(overhead_per_op, SPAN_GAP_FLOOR_S)
    worst_gap = 0.0
    for op_id, rec in ((i, r) for i, r in enumerate(runner.records) if r.traced):
        gap = rec.wall - op_self.get(op_id, 0.0)
        worst_gap = max(worst_gap, abs(gap))
        if not -1e-6 <= gap <= tolerance:
            problems.append(f"self-check: op {op_id} self times sum to "
                            f"{op_self.get(op_id, 0.0):.6f} s of {rec.wall:.6f} s")
    info = {
        "traced_ops": n_ops, "untraced_ops": len(untraced),
        "traced_ops_per_s": len(untraced) / traced_wall,
        "untraced_ops_per_s": len(untraced) / untraced_wall,
        "overhead_s_per_op": overhead_per_op, "spans": len(tracer.spans),
        "worst_span_gap_s": worst_gap, "span_gap_tolerance_s": tolerance,
        "layer_share_other": 1.0 - sum(values[f"{l}.share"][0] for l in spans.LAYERS),
    }
    return out, problems[:20], info


def machine_facts() -> dict:
    import numpy
    import scipy
    import yaml
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pyyaml": yaml.__version__, "platform": platform.platform()}


def per_kind_p50(runner: Runner) -> dict:
    walls = defaultdict(list)
    for rec in runner.records:
        walls[runner.ops[rec.index].kind].append(rec.wall)
    return {kind: statistics.median(w) for kind, w in sorted(walls.items())}


def report_hashes(runner: Runner) -> list[dict]:
    rows = {}
    for rec in runner.records:
        op = runner.ops[rec.index]
        if op.kind == "simulate" and rec.index not in rows:
            rows[rec.index] = {"op": rec.index, "argv": list(op.argv), "exit": rec.rc,
                               "sha256": rec.digest if rec.rc == 0 else None}
    return [rows[i] for i in sorted(rows)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    setup = [] if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        warm, ops = workloads.build(args.workload, args.seed, workdir)
        for op in warm:  # first-call costs, not timed or checked
            run_op(cli, op)
        tracer = spans.Tracer() if args.trace else None
        runner = Runner(cli, ops, tracer)
        runner.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    classes, problems = judge(runner)
    problems += corruption_self_check(runner)
    attempted = len(runner.records)
    failed = sum(classes.values())
    walls = [r.wall for r in runner.records]
    tail = tail_latency(walls)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": runner.rounds,
        "ops_per_round": len(ops), "fail_ratio": failed / attempted,
        "failures_by_class": classes,
        "op_tail": ({"percentile": tail[0], "value_s": tail[1], "ops": attempted}
                    if tail else None),
        "op_p50_by_kind_s": per_kind_p50(runner),
        "machine": machine_facts(),
        "reports": report_hashes(runner),
        "ops": [[r.index, r.round, int(r.traced), r.wall, r.rc] for r in runner.records],
    }

    if args.trace:
        metrics, trace_problems, trace_info = layer_metrics(runner, tracer)
        problems += trace_problems
        info["trace"] = trace_info
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(span_file)
        info["trace"]["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(attempted / runner.elapsed, "1/s"),
            "op_p50_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info["setup_samples_s"] = setup
    info["problems"] = problems

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{info['rounds']} rounds of {len(ops)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {info['fail_ratio']:.6g} ({failed}/{attempted}; {classes})")
    if tail:
        print(f"  op_tail_s = {tail[1]:.6g} s (p{tail[0]:g} of {attempted} ops)")
    else:
        print(f"  op_tail_s: omitted, {attempted} ops leave fewer than "
              f"{TAIL_BEYOND} beyond any listed percentile")
    for kind, p50 in info["op_p50_by_kind_s"].items():
        print(f"  op_p50_s[{kind}] = {p50:.6g} s")
    for row in info["reports"]:
        print(f"  report op {row['op']} exit {row['exit']} sha256 {row['sha256']}: "
              f"{' '.join(row['argv'][:1] + row['argv'][-2:])}")
    if args.trace:
        t = info["trace"]
        print(f"  trace: {t['traced_ops_per_s']:.6g} ops/s traced vs "
              f"{t['untraced_ops_per_s']:.6g} untraced; spans in {t['span_file']}")
    print(f"  machine: {info['machine']}")
    for problem in problems:
        print(f"  PROBLEM {problem}")

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"metrics": metrics, **info}, fh, indent=2, sort_keys=True)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
