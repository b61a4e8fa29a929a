"""Workload generation and output checks for the holomem benchmark.

Every operation ("op") is one `holomem.cli.main(argv)` call.  A workload is
built from its seed into a warm-up list and one *round* of ops; the runner
repeats whole rounds, so every count taken over a run is the count of one
round times the number of rounds.  Input files are written here, before any
timing starts.

Each op carries a `check(text)` that returns None for a good output or a
one-line reason, and a `corruptions(text)` that damages a good output in
ways the check must catch (the runner's self-check).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

WORKLOADS = ("simulate-mc", "decay-scan", "cli-tools")

# Ops per round.  Op cost varies from op to op by several percent, so a
# round holds many distinct ops: a round of simulate-mc or decay-scan takes
# about 28 s on a 2-CPU machine, one of cli-tools about 7 s.  A cli-tools
# cycle has 9 op kinds, an odd number, so that the median op falls inside
# one kind's latency cluster rather than on the edge between two.
SIMULATE_MC_ROUND = 8
DECAY_SCAN_ROUND = 52
CLI_TOOLS_CYCLES = 50

# Acceptance tolerances of the bundled scenario (tests/test_acceptance.py).
CAPACITY = (240.6, 0.5)
EIT_FWHM_HZ = 2.2e6
EIT_DELAY_S = 160e-9
EIT_REL_TOL = 0.25
FIDELITY_1US = (0.79, 0.83)
MC_STD = (0.005, 0.02)
CHSH_INPUT = (2.54, 0.10)
TSIRELSON = 2.0 * math.sqrt(2.0)
# chsh prints S with 6 decimals, so "to 1e-9" holds after that rounding.
CHSH_PRINT_TOL = 0.5e-6 + 1e-9
CROSSTALK_SIGMAS = 5.0
FIT_SIGMAS = 5.0

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Check
    # Damaged copies of a good output; the check must reject each one.
    corruptions: Callable[[str], list[str]]


class CheckFailed(Exception):
    pass


def _checked(fn: Callable[[str], None]) -> Check:
    """Turn a function that raises on a bad output into a Check."""
    def check(text: str) -> str | None:
        try:
            fn(text)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None
    return check


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity literals json.loads allows."""
    def reject(const):
        raise CheckFailed(f"non-finite JSON constant {const}")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _check_report(text: str, n_times: int, mc: bool) -> None:
    report = strict_json(text)
    a = report["analytic"]
    cap, cap_tol = CAPACITY
    _expect(abs(a["mode_capacity"] - cap) <= cap_tol,
            f"mode_capacity {a['mode_capacity']} not {cap} +/- {cap_tol}")
    _expect(abs(a["eit_fwhm_hz"] - EIT_FWHM_HZ) <= EIT_REL_TOL * EIT_FWHM_HZ,
            f"eit_fwhm_hz {a['eit_fwhm_hz']} not within 25% of {EIT_FWHM_HZ}")
    _expect(abs(a["eit_group_delay_s"] - EIT_DELAY_S) <= EIT_REL_TOL * EIT_DELAY_S,
            f"eit_group_delay_s {a['eit_group_delay_s']} not within 25% of {EIT_DELAY_S}")
    storage = a["storage"]
    _expect(len(storage) == n_times, f"{len(storage)} analytic storage entries, want {n_times}")
    at_1us = [s for s in storage if s["t_s"] == 1e-6]
    _expect(len(at_1us) == 1, "no analytic entry at t = 1 us")
    lo, hi = FIDELITY_1US
    f1 = at_1us[0]["fidelity_vs_bell"]
    _expect(lo <= f1 <= hi, f"fidelity at 1 us {f1} not in [{lo}, {hi}]")

    stat = report["statistical"]
    tracks = stat["storage"]
    _expect([s["t_s"] for s in tracks] == [s["t_s"] for s in storage],
            "statistical storage times differ from the analytic ones")
    for track in [stat["input"], *tracks]:
        for key in ("mle_fidelity_vs_bell", "mle_fidelity_vs_true"):
            _expect(0.0 <= track[key] <= 1.0, f"{key} {track[key]} outside [0, 1]")
        _expect(("mc" in track) == mc, "mc block presence differs from n_mc_sets")
    if mc:
        # The acceptance suite asserts the MC spread on the 1 us state only.
        std = [s for s in tracks if s["t_s"] == 1e-6][0]["mc"]["std"]
        lo, hi = MC_STD
        _expect(lo <= std <= hi, f"MC fidelity std at 1 us {std} not in [{lo}, {hi}]")


def _corrupt_report(text: str) -> list[str]:
    report = json.loads(text)
    report["analytic"]["mode_capacity"] += 10.0
    altered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    key = '"mode_capacity": '
    start = text.index(key) + len(key)
    end = text.index(",", start)
    return [altered, text[:start] + "NaN" + text[end:]]


def _simulate_op(argv: list[str], n_times: int, mc: bool) -> Op:
    return Op(kind="simulate", argv=tuple(argv),
              check=_checked(lambda text: _check_report(text, n_times, mc)),
              corruptions=_corrupt_report)


def _scenario(**overrides) -> dict:
    from holomem import cli
    cfg = cli.default_config()
    cfg.update(overrides)
    return cfg


def _write_yaml(path: Path, cfg: dict) -> str:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return str(path)


def _decay_times() -> list[float]:
    # Decimal strings, so that 1 us is exactly 1e-6.
    return [float(f"{i * 0.2:.1f}e-6") for i in range(41)]


def _warm_simulate(workdir: Path, rng: random.Random) -> Op:
    cfg = _scenario(n_mc_sets=2)
    path = _write_yaml(workdir / "warm.yaml", cfg)
    return _simulate_op(["simulate", "--config", path, "--seed", str(_seed(rng))],
                        n_times=len(cfg["storage_times_s"]), mc=True)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _simulate_mc(rng: random.Random, workdir: Path):
    n_times = len(_scenario()["storage_times_s"])
    ops = [_simulate_op(["simulate", "--seed", str(_seed(rng))], n_times, mc=True)
           for _ in range(SIMULATE_MC_ROUND)]
    return [_warm_simulate(workdir, rng)], ops


def _decay_scan(rng: random.Random, workdir: Path):
    times = _decay_times()
    path = _write_yaml(workdir / "scan.yaml", _scenario(n_mc_sets=0, storage_times_s=times))
    ops = [_simulate_op(["simulate", "--config", path, "--seed", str(_seed(rng))],
                        len(times), mc=False)
           for _ in range(DECAY_SCAN_ROUND)]
    return [_warm_simulate(workdir, rng)], ops


# ---------------------------------------------------------------------------
# cli-tools
# ---------------------------------------------------------------------------

def _scalar(text: str) -> float:
    return float(text.strip())


def _shift_scalar(text: str) -> list[str]:
    return [f"{_scalar(text) + 1.0:.6f}\n"]


def _capacity_op() -> Op:
    def check(text):
        cap, tol = CAPACITY
        value = _scalar(text)
        _expect(abs(value - cap) <= tol, f"capacity {value} not {cap} +/- {tol}")
    return Op("capacity", ("capacity",), _checked(check), _shift_scalar)


def _eit_op(rng: random.Random) -> Op:
    od = rng.uniform(5.0, 20.0)
    rabi_hz = rng.uniform(4e6, 10e6)
    points = rng.randrange(101, 802)

    def check(text):
        lines = text.splitlines()
        _expect(lines[0] == "delta_hz,transmission,phase_rad", f"bad header {lines[0]!r}")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        _expect(len(rows) == points, f"{len(rows)} rows, want {points}")
        for delta, trans, ph in rows:
            _expect(0.0 <= trans <= 1.0, f"transmission {trans} outside [0, 1]")
            _expect(math.isfinite(delta) and math.isfinite(ph), "non-finite row")

    def corrupt(text):
        lines = text.splitlines()
        return ["\n".join(lines[:-1]) + "\n",
                "\n".join(lines[:-1] + [lines[-1].replace(",", ",1", 1)]) + "\n"]

    argv = ("eit", "--od", repr(od), "--rabi-hz", repr(rabi_hz), "--points", str(points))
    return Op("eit", argv, _checked(check), corrupt)


def _chsh_input_op() -> Op:
    def check(text):
        s, tol = CHSH_INPUT
        value = _scalar(text)
        _expect(abs(value - s) <= tol, f"input-state S {value} not {s} +/- {tol}")
    return Op("chsh-input", ("chsh", "--state", "input"), _checked(check), _shift_scalar)


def _chsh_bell_op() -> Op:
    def check(text):
        value = _scalar(text)
        _expect(abs(value - TSIRELSON) <= CHSH_PRINT_TOL, f"bell S {value}, want {TSIRELSON:.9f}")
    return Op("chsh-bell", ("chsh", "--state", "bell"), _checked(check), _shift_scalar)


def _chsh_werner_op(rng: random.Random, convention: str) -> Op:
    p = rng.random()
    # Mirrored analyzers see 2*sqrt(2)*p; textbook ones see 0 for |phi+>.
    expected = TSIRELSON * p if convention == "mirrored" else 0.0

    def check(text):
        value = _scalar(text)
        _expect(abs(value - expected) <= CHSH_PRINT_TOL,
                f"werner:{p!r} {convention} S {value}, want {expected:.9f}")

    argv = ("chsh", "--state", f"werner:{p!r}", "--convention", convention)
    return Op(f"chsh-werner-{convention}", argv, _checked(check), _shift_scalar)


def _crosstalk_op(rng: random.Random) -> Op:
    def check(text):
        lines = text.splitlines()
        _expect(lines[0] == "i,j,overlap_re,overlap_im,expected,stderr",
                f"bad header {lines[0]!r}")
        rows = lines[1:]
        _expect(len(rows) == 6, f"{len(rows)} register pairs, want 6")
        for row in rows:
            i, j, re_, im_, expected, stderr = row.split(",")
            dev = abs(complex(float(re_), float(im_)) - float(expected))
            _expect(dev <= CROSSTALK_SIGMAS * float(stderr),
                    f"pair ({i},{j}) overlap {dev:.3e} from expected, "
                    f"over {CROSSTALK_SIGMAS} x stderr {stderr}")

    def corrupt(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[2] = f"{float(cells[2]) + 10 * CROSSTALK_SIGMAS * float(cells[5]):.6e}"
        lines[1] = ",".join(cells)
        return ["\n".join(lines) + "\n"]

    return Op("crosstalk", ("crosstalk", "--seed", str(_seed(rng))), _checked(check), corrupt)


def _check_fit(text: str, truth: dict[str, float]) -> None:
    payload = strict_json(text)
    _expect(payload["converged"] is True, "fit reports converged=false")
    for name, value in truth.items():
        got, sigma = payload["params"][name], payload["uncertainties"][name]
        _expect(abs(got - value) <= FIT_SIGMAS * sigma,
                f"{name} {got} is {abs(got - value) / sigma:.1f} sigma from {value}")


def _shift_first_param(text: str) -> list[str]:
    payload = json.loads(text)
    name = sorted(payload["params"])[0]
    payload["params"][name] += 100.0 * FIT_SIGMAS * payload["uncertainties"][name]
    return [json.dumps(payload, sort_keys=True, indent=2) + "\n"]


def _write_csv(path: Path, rows: list[tuple[float, float, float]]) -> str:
    lines = ["t_s,y,sigma"] + [f"{t!r},{y!r},{s!r}" for t, y, s in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _fit_exp_op(rng: random.Random, path: Path) -> Op:
    eta0, tau = rng.uniform(0.1, 0.2), rng.uniform(2e-6, 4e-6)
    rows = []
    for i in range(12):
        t = 8e-6 * i / 11
        y = eta0 * math.exp(-t / tau)
        sigma = 0.05 * y
        rows.append((t, y + sigma * rng.gauss(0.0, 1.0), sigma))
    argv = ("fit", "--kind", "exp", "--data", _write_csv(path, rows))
    truth = {"eta0": eta0, "tau": tau}
    return Op("fit-exp", argv, _checked(lambda text: _check_fit(text, truth)),
              _shift_first_param)


def _fit_vis_op(rng: random.Random, path: Path) -> Op:
    a, b, tau = rng.uniform(1.05, 1.3), rng.uniform(0.01, 0.05), rng.uniform(2e-6, 4e-6)
    rows = []
    for i in range(15):
        t = 3e-6 * i / 14
        v = 1.0 / (a + b * math.exp(2.0 * t / tau))
        rows.append((t, v + 0.01 * rng.gauss(0.0, 1.0), 0.01))
    argv = ("fit", "--kind", "vis", "--tau-s", repr(tau), "--data", _write_csv(path, rows))
    truth = {"a": a, "b": b}
    return Op("fit-vis", argv, _checked(lambda text: _check_fit(text, truth)),
              _shift_first_param)


def _cli_cycle(rng: random.Random, workdir: Path, tag: str) -> list[Op]:
    return [
        _capacity_op(),
        _eit_op(rng),
        _chsh_input_op(),
        _chsh_bell_op(),
        _chsh_werner_op(rng, "mirrored"),
        _chsh_werner_op(rng, "textbook"),
        _crosstalk_op(rng),
        _fit_exp_op(rng, workdir / f"exp-{tag}.csv"),
        _fit_vis_op(rng, workdir / f"vis-{tag}.csv"),
    ]


def _cli_tools(rng: random.Random, workdir: Path):
    warm = _cli_cycle(rng, workdir, "warm")
    ops = [op for c in range(CLI_TOOLS_CYCLES) for op in _cli_cycle(rng, workdir, str(c))]
    return warm, ops


def build(name: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """Return (warm-up ops, one round of ops) for a workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    builders = {"simulate-mc": _simulate_mc, "decay-scan": _decay_scan,
                "cli-tools": _cli_tools}
    return builders[name](rng, workdir)
