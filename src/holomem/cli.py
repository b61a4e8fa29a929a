"""Scenario runner and command-line interface.

Configs are YAML with explicit unit suffixes in key names (_s, _m, _hz, _k)
to rule out microsecond/second and Hz/rad-s mixups.  One table, SCHEMA,
defines the format: load_scenario walks it to build the model objects and
the validated config tree (config units, defaults filled in), and rejects
unknown keys and bad values with their field path.  Reports are JSON with
top-level keys config, analytic, statistical, seeds, version, provenance.
The report embeds the validated tree itself, so regenerating a report from
its own embedded config is byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import copy
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__, channel, eitline, fitkit, measure, qstate, registers, tomo
from .seeding import child_seed

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2

# Provenance tags used in reports: values anchored to the reference
# experiment's reported numbers vs values derived from this model.
PROV_MEASURED = "measured-reference"
PROV_DERIVED = "model-derived"


class ConfigError(ValueError):
    """Configuration validation failure, with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NonConvergenceError(RuntimeError):
    """A numerical routine failed to converge."""


# ---------------------------------------------------------------------------
# Scenario config
# ---------------------------------------------------------------------------

REQUIRED = object()
CALIBRATED = "calibrated"


def _float(val, path: str) -> float:
    # Numeric strings count: YAML 1.1 reads 1e-6 and 7.0e6 as strings.
    if isinstance(val, (int, str)) and not isinstance(val, bool):
        try:
            val = float(val)
        except (ValueError, OverflowError):
            pass
    if not isinstance(val, float) or not math.isfinite(val):
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    return val


def _int(val, path: str) -> int:
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    num = _float(val, path)
    if not num.is_integer():
        raise ConfigError(path, f"expected an integer, got {val!r}")
    return int(num)


def _floats(length: int | None = None):
    """Kind of a nonempty list of floats, of the given length if any."""
    def kind(val, path: str) -> list[float]:
        if not isinstance(val, (list, tuple)) or not val or length not in (None, len(val)):
            want = "a nonempty list" if length is None else f"{length} values"
            raise ConfigError(path, f"expected {want}, got {val!r}")
        return [_float(v, f"{path}[{i}]") for i, v in enumerate(val)]
    return kind


def _or_calibrated(val, path: str):
    return val if val == CALIBRATED else _float(val, path)


def _rad_per_s(hz: float) -> float:
    return 2.0 * math.pi * hz


def _channel_params(source, eta0, tau_s, bg_coinc) -> channel.ChannelParams:
    if bg_coinc == CALIBRATED:
        return channel.calibrated_channel_params(source=source, eta0=eta0, tau_s=tau_s)
    return channel.ChannelParams(eta0=eta0, tau_s=tau_s, bg_coinc=bg_coinc)


def _check(rule, value, path: str) -> None:
    if rule is not None and not rule[0](value):
        raise ConfigError(path, f"{rule[1]}, got {value!r}")


MC_SETS_RULE = (lambda n: n == 0 or n >= 2, "must be 0 or at least 2")


class Field(NamedTuple):
    """One config key.  `kind` maps the raw value to config units, `convert`
    maps that to the constructor argument `arg` (the key if None), and
    `check` is an optional (predicate, message) on the config value."""

    key: str
    kind: Callable[[object, str], object]
    default: object = REQUIRED
    arg: str | None = None
    convert: Callable[[object], object] = lambda value: value
    check: tuple | None = None
    # The config tree records the constructed value, so that "calibrated"
    # is written as the float it resolves to.
    resolve: bool = False


class Section(NamedTuple):
    """A mapping of Fields that `build` turns into one model object; the
    objects of the earlier sections named in `needs` are passed too."""

    key: str
    build: Callable[..., object]
    fields: tuple[Field, ...]
    needs: tuple[str, ...] = ()


# `simulate --seed` overrides this field.
SEED = Field("master_seed", _int)

# The config format.  Fields at the top level are Scenario arguments, and
# each Section builds the Scenario argument of its key.
SCHEMA = (
    SEED,
    Field("tomo_scheme", _int, 36, convert=str,
          check=(lambda n: n in (16, 36), "must be 16 or 36")),
    Field("n_trials", _int, check=(lambda n: n > 0, "must be positive")),
    Field("n_mc_sets", _int, 0, check=MC_SETS_RULE),
    Field("input_coinc_prob", _float, 0.04,
          check=(lambda p: 0.0 < p <= 1.0, "must lie in (0, 1]")),
    Field("storage_times_s", _floats(), convert=tuple,
          check=(lambda ts: min(ts) >= 0.0, "storage times must be >= 0")),
    Section("geometry", registers.MemoryGeometry, (
        Field("wavelength_m", _float),
        Field("control_waist_m", _float),
        Field("signal_waist_m", _float),
        Field("cloud_length_m", _float),
        Field("cloud_sigma_m", _floats(3), convert=tuple),
        Field("atom_count", _int),
        Field("temperature_k", _float),
        Field("signal_angles_deg", _floats(), arg="signal_angles_rad",
              convert=lambda degrees: tuple(map(math.radians, degrees))),
    )),
    Section("eit", eitline.EitParams, (
        Field("od", _float),
        Field("rabi_hz", _float, arg="rabi_rad_per_s", convert=_rad_per_s),
        Field("gamma_e_hz", _float, 5.75e6, arg="gamma_e_rad_per_s", convert=_rad_per_s),
        Field("gamma_gs_hz", _or_calibrated, CALIBRATED, arg="gamma_gs_rad_per_s",
              convert=lambda hz: (eitline.DEFAULT_GAMMA_GS_RAD_PER_S if hz == CALIBRATED
                                  else _rad_per_s(hz))),
    )),
    Section("source", channel.SourceParams, (
        Field("ratio_hv", _float),
        Field("ratio_pm", _float),
        Field("pair_rate_hz", _float),
    )),
    Section("channel", _channel_params, (
        Field("eta0", _float),
        Field("tau_s", _float),
        Field("bg_coinc", _or_calibrated, CALIBRATED, resolve=True),
    ), needs=("source",)),
)


def _parse(rows, raw, path: str) -> tuple[dict, dict]:
    """Validate one mapping against its rows.  Returns the constructor
    arguments and the config tree (config units, defaults filled in)."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", "missing or not a mapping")
    prefix = f"{path}." if path else ""
    known = {row.key for row in rows}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    args, tree = {}, {}
    for row in rows:
        where = prefix + row.key
        if isinstance(row, Section):
            kwargs, tree[row.key] = _parse(row.fields, raw.get(row.key), where)
            try:
                args[row.key] = obj = row.build(**kwargs, **{n: args[n] for n in row.needs})
            except ValueError as exc:
                raise ConfigError(where, str(exc)) from None
            tree[row.key].update((f.key, getattr(obj, f.arg or f.key))
                                 for f in row.fields if f.resolve)
            continue
        if row.key in raw:
            value = row.kind(raw[row.key], where)
        elif row.default is REQUIRED:
            raise ConfigError(where, "missing required field")
        else:
            value = row.default
        _check(row.check, value, where)
        args[row.arg or row.key], tree[row.key] = row.convert(value), value
    return args, tree


@dataclass(frozen=True)
class Scenario:
    geometry: registers.MemoryGeometry
    eit: eitline.EitParams
    source: channel.SourceParams
    channel: channel.ChannelParams
    storage_times_s: tuple[float, ...]
    tomo_scheme: str
    n_trials: int
    n_mc_sets: int
    master_seed: int
    # Detected coincidence probability per trial for the input (no-storage)
    # measurement; ~1.3/s observed at a 33/s production rate.
    input_coinc_prob: float
    # The validated config tree this Scenario was loaded from.
    config: dict


def load_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config tree into a Scenario by walking SCHEMA.  A
    missing, unknown or invalid key raises ConfigError with its path."""
    args, tree = _parse(SCHEMA, cfg, "")
    return Scenario(config=tree, **args)


# libyaml's parser, where PyYAML was built with it, gives the same trees as
# the pure-Python SafeLoader about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def default_config() -> dict:
    text = resources.files("holomem.data").joinpath("default_scenario.yaml").read_text()
    return yaml.load(text, Loader=_YAML_LOADER)


def scenario_to_config(sc: Scenario) -> dict:
    """The validated config tree of a Scenario (a parse fixed point)."""
    return copy.deepcopy(sc.config)


# ---------------------------------------------------------------------------
# End-to-end runner
# ---------------------------------------------------------------------------

def run_simulate(sc: Scenario) -> dict:
    """Reproduce the full experiment: input state, storage channel, and both
    analytic and count-statistics (tomography) tracks per storage time."""
    rho_in = channel.input_state(sc.source)
    bell = qstate.bell_phi_plus()
    v0 = measure.mean_visibility(rho_in)
    ts = tomo.make_settings(sc.tomo_scheme)
    modes = registers.spin_wave_vectors(sc.geometry)
    max_xtalk = max((registers.expected_crosstalk(a, b, sc.geometry)
                     for i, a in enumerate(modes) for b in modes[i + 1:]), default=0.0)

    stored = [channel.store_retrieve(rho_in, t, sc.channel) for t in sc.storage_times_s]
    # (label, true state, coincidence probability) in report order: the
    # input, then one track per storage time.
    tracks = [("input", rho_in, sc.input_coinc_prob)] + [
        (f"t={t!r}", rho_out, p) for t, (rho_out, p, _) in zip(sc.storage_times_s, stored)]
    true_states = np.stack([rho for _, rho, _ in tracks])
    vs_bell = qstate.fidelity(bell, true_states).tolist()
    process = qstate.fidelity(rho_in, true_states[1:]).tolist()

    analytic = {
        "mode_capacity": registers.mode_capacity(sc.geometry),
        "max_register_crosstalk_expected": max_xtalk,
        "eit_fwhm_hz": eitline.transparency_fwhm(sc.eit),
        "eit_group_delay_s": eitline.group_delay(sc.eit),
        "input": {
            "chsh_s": measure.chsh_s(rho_in),
            "fidelity_vs_bell": vs_bell[0],
            "visibility": {b: measure.visibility(rho_in, b) for b in ("HV", "PM", "RL")},
            "mean_visibility": v0,
        },
        "visibility_threshold_time_s": channel.visibility_threshold_time(sc.channel, v0),
        "storage": [{
            "t_s": t,
            "efficiency": channel.efficiency(sc.channel, t),
            "coinc_prob": coinc_prob,
            "signal_fraction": frac,
            "chsh_s": measure.chsh_s(rho_out),
            "fidelity_vs_bell": f_bell,
            "process_fidelity": f_process,
            "mean_visibility": measure.mean_visibility(rho_out) if frac > 0 else 0.0,
            "visibility_model": channel.visibility_decay(sc.channel, v0, t),
        } for t, (rho_out, coinc_prob, frac), f_bell, f_process
            in zip(sc.storage_times_s, stored, vs_bell[1:], process)],
    }
    seeds: dict[str, int] = {}
    count_sets, mc_seeds = [], []
    for label, rho_true, coinc_prob in tracks:
        seeds[f"counts/{label}"] = seed_counts = child_seed(sc.master_seed, f"counts/{label}", 0)
        count_sets.append(measure.sample_counts(rho_true, list(ts.settings), sc.n_trials,
                                                min(coinc_prob, 1.0), seed_counts))
        mc_seeds.append(child_seed(sc.master_seed, f"mc/{label}", 0))
        if sc.n_mc_sets:
            seeds[f"mc/{label}"] = mc_seeds[-1]
    results, mcs = tomo.reconstruct_with_mc(count_sets, ts, bell, sc.n_mc_sets, mc_seeds)
    for (label, _, _), result in zip(tracks, results):
        if not result.converged:
            raise NonConvergenceError(f"tomography failed to converge for {label}")
    rho_hats = np.stack([result.rho_hat for result in results])
    stat_tracks = [{
        "mle_fidelity_vs_bell": f_bell,
        "mle_fidelity_vs_true": f_true,
        "mle_iterations": result.iterations,
        "total_counts": sum(r.counts for r in counts),
        **({"mc": _mc_payload(mcs[i])} if mcs else {}),
    } for i, (counts, result, f_bell, f_true) in enumerate(zip(
        count_sets, results, qstate.fidelity(rho_hats, bell).tolist(),
        qstate.fidelity(rho_hats, true_states).tolist()))]
    statistical = {"input": stat_tracks[0],
                   "storage": [{"t_s": t, **track}
                               for t, track in zip(sc.storage_times_s, stat_tracks[1:])]}

    return {
        "version": __version__,
        "config": scenario_to_config(sc),
        "analytic": analytic,
        "statistical": statistical,
        "seeds": seeds,
        "provenance": {
            "analytic.mode_capacity": PROV_MEASURED,
            "analytic.eit_fwhm_hz": PROV_MEASURED,
            "analytic.eit_group_delay_s": PROV_MEASURED,
            "analytic.input.chsh_s": PROV_MEASURED,
            "analytic.input.fidelity_vs_bell": PROV_MEASURED,
            "analytic.visibility_threshold_time_s": PROV_MEASURED,
            "analytic.storage": PROV_MEASURED,
            "analytic.max_register_crosstalk_expected": PROV_DERIVED,
            "statistical": PROV_DERIVED,
        },
    }


def _mc_payload(mc: tomo.McSummary) -> dict:
    """The "mc" block of a report track and of `tomo` output."""
    return {"mean": mc.fidelity_mean, "std": mc.fidelity_std,
            "n_sets": mc.n_sets, "nonconverged": mc.n_nonconverged}


def _finite(obj):
    """Copy of a JSON payload with each non-finite float replaced by its
    string form ("inf", "-inf" or "nan"), so the output is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_to_json(report: dict) -> str:
    return _json_text(report)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _read_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    with open(path) as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(path, str(exc)) from None


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None and isinstance(cfg, dict):
        cfg = {**cfg, SEED.key: args.seed}
    _write_out(report_to_json(run_simulate(load_scenario(cfg))), args.out)
    return EXIT_OK


def _cmd_capacity(args) -> int:
    sc = load_scenario(_read_config(args.config))
    _write_out(f"{registers.mode_capacity(sc.geometry):.1f}\n", args.out)
    return EXIT_OK


def _cmd_eit(args) -> int:
    gamma_gs = (eitline.DEFAULT_GAMMA_GS_RAD_PER_S if args.gamma_gs_hz is None
                else _rad_per_s(args.gamma_gs_hz))
    p = eitline.EitParams(od=args.od, rabi_rad_per_s=_rad_per_s(args.rabi_hz),
                          gamma_gs_rad_per_s=gamma_gs)
    if not 0.0 < args.span_hz < math.inf:
        raise ConfigError("--span-hz", f"must be finite and positive, got {args.span_hz}")
    span = args.span_hz * 2.0 * math.pi
    deltas = np.linspace(-span, span, args.points)
    buf = io.StringIO()
    buf.write("delta_hz,transmission,phase_rad\n")
    for d, t, ph in zip(deltas, eitline.transmission(p, deltas), eitline.phase(p, deltas)):
        buf.write(f"{d / (2.0 * math.pi):.6e},{t:.9e},{ph:.9e}\n")
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_chsh(args) -> int:
    if args.state == "bell":
        rho = qstate.bell_phi_plus()
    elif args.state == "input":
        rho = channel.input_state(load_scenario(_read_config(args.config)).source)
    elif args.state.startswith("werner:"):
        try:
            rho = qstate.werner(float(args.state.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError("--state", str(exc)) from None
    else:
        raise ConfigError("--state", f"unknown state {args.state!r}")
    s = measure.chsh_s(rho, convention=args.convention)
    _write_out(f"{s:.6f}\n", args.out)
    return EXIT_OK


def _cmd_crosstalk(args) -> int:
    g = load_scenario(_read_config(args.config)).geometry
    seed = args.seed if args.seed is not None else 0
    modes = registers.spin_wave_vectors(g)
    buf = io.StringIO()
    buf.write("i,j,overlap_re,overlap_im,expected,stderr\n")
    for i, a in enumerate(modes):
        for j, b in enumerate(modes[i + 1:], start=i + 1):
            ov = registers.crosstalk(a, b, g, seed=child_seed(seed, "crosstalk", i * len(modes) + j))
            buf.write(f"{i},{j},{ov.real:.6e},{ov.imag:.6e},"
                      f"{registers.expected_crosstalk(a, b, g):.6e},"
                      f"{registers.crosstalk_stderr(g):.6e}\n")
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _read_fit_csv(path: str | None):
    if path is None:
        text = resources.files("holomem.data").joinpath("synthetic_decay.csv").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t_s"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ConfigError("--data", f"line {number}: expected 3 fields t_s,y,sigma, "
                                        f"got {len(fields)}")
        try:
            rows.append(tuple(map(float, fields)))
        except ValueError as exc:
            raise ConfigError("--data", f"line {number}: {exc}") from None
    if not rows:
        raise ConfigError("--data", "no data rows found")
    return rows


def _fit_result_json(res: fitkit.FitResult) -> str:
    payload = {
        "params": res.params,
        "uncertainties": res.uncertainties,
        "residual_norm": res.residual_norm,
        "converged": res.converged,
    }
    if res.t_star_s is not None:
        payload["t_star_s"] = res.t_star_s
    return _json_text(payload)


def _cmd_fit(args) -> int:
    data = _read_fit_csv(args.data)
    if args.kind == "exp":
        res = fitkit.fit_exponential(data)
    else:
        if args.tau_s is None:
            raise ConfigError("--tau-s", "required for the visibility fit")
        res = fitkit.fit_visibility(data, tau_s=args.tau_s, float_tau=args.float_tau)
    if not res.converged:
        raise NonConvergenceError("fit did not converge")
    _write_out(_fit_result_json(res), args.out)
    return EXIT_OK


def _cmd_tomo(args) -> int:
    _check(MC_SETS_RULE, args.mc_sets, "--mc-sets")
    with open(args.counts) as fh:
        counts = measure.counts_from_csv(fh.read())
    ts = tomo.make_settings(args.scheme)
    if args.target == "bell":
        target = qstate.bell_phi_plus()
    else:
        with open(args.target) as fh:
            target = qstate.density_from_json(json.load(fh))
    seed = args.seed if args.seed is not None else 0
    (result,), mcs = tomo.reconstruct_with_mc([counts], ts, target, args.mc_sets, [seed])
    payload = {
        "rho_hat": qstate.density_to_json(result.rho_hat),
        "fidelity_vs_target": qstate.fidelity(result.rho_hat, target),
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if mcs:
        payload["mc"] = _mc_payload(mcs[0])
    _write_out(_json_text(payload), args.out)
    if not result.converged:
        raise NonConvergenceError("tomography MLE hit the iteration cap")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="holomem",
        description="Simulator and estimation toolkit for holographic storage "
                    "of polarization-entangled photon pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--config": dict(default=None, help="scenario YAML (default: bundled)"),
        "--out": dict(default=None, help="output path (default: stdout)"),
        "--seed": dict(type=int, default=None,
                       help="random seed (simulate: overrides the scenario master seed)"),
    }

    def command(name, func, flags, help):
        """A subcommand with those of the shared flags that it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    command("simulate", _cmd_simulate, ("--config", "--out", "--seed"),
            "full end-to-end reproduction")
    command("capacity", _cmd_capacity, ("--config", "--out"), "Fresnel-number mode capacity")

    p = command("eit", _cmd_eit, ("--out",), "EIT transmission spectrum CSV")
    p.add_argument("--od", type=float, default=10.0)
    p.add_argument("--rabi-hz", type=float, default=7e6)
    p.add_argument("--gamma-gs-hz", type=float, default=None)
    p.add_argument("--span-hz", type=float, default=12e6)
    p.add_argument("--points", type=int, default=801)

    p = command("chsh", _cmd_chsh, ("--config", "--out"), "CHSH S for a model state")
    p.add_argument("--state", default="input", help="bell | input | werner:p")
    p.add_argument("--convention", default="mirrored", choices=["mirrored", "textbook"])

    command("crosstalk", _cmd_crosstalk, ("--config", "--out", "--seed"),
            "register-overlap Monte Carlo CSV")

    p = command("fit", _cmd_fit, ("--out",), "decay-model least squares")
    p.add_argument("--kind", choices=["exp", "vis"], default="exp")
    p.add_argument("--data", default=None, help="CSV t_s,y,sigma (default: bundled)")
    p.add_argument("--tau-s", type=float, default=None)
    p.add_argument("--float-tau", action="store_true")

    p = command("tomo", _cmd_tomo, ("--out", "--seed"), "MLE tomography from a counts CSV")
    p.add_argument("--counts", required=True)
    p.add_argument("--scheme", default="36", choices=["16", "36"])
    p.add_argument("--target", default="bell", help="bell | density-matrix JSON path")
    p.add_argument("--mc-sets", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
