"""Scenario runner and command-line interface.

Configs are YAML with explicit unit suffixes in key names (_s, _m, _hz, _k)
to rule out microsecond/second and Hz/rad-s mixups.  Reports are JSON with
top-level keys config, analytic, statistical, seeds, version; regenerating
a report from its own embedded config and master seed is byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

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
    input_coinc_prob: float = 0.04


def _require(cfg: dict, path: str, key: str, kind):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = cfg[key]
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {val!r}") from None


def _build(path, ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def load_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config tree into a Scenario.

    Angles are degrees in the config and radians internally; Rabi and decay
    frequencies are plain Hz in the config and rad/s internally.  The
    channel background and EIT ground-state decoherence accept the string
    "calibrated" to use the shipped calibration.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")

    g = cfg.get("geometry")
    if not isinstance(g, dict):
        raise ConfigError("geometry", "missing or not a mapping")
    sigma = g.get("cloud_sigma_m")
    if not isinstance(sigma, (list, tuple)) or len(sigma) != 3:
        raise ConfigError("geometry.cloud_sigma_m", f"expected 3 values, got {sigma!r}")
    angles = g.get("signal_angles_deg")
    if not isinstance(angles, (list, tuple)) or not angles:
        raise ConfigError("geometry.signal_angles_deg", "expected a nonempty list")
    geometry = _build(
        "geometry", registers.MemoryGeometry,
        wavelength_m=_require(g, "geometry", "wavelength_m", float),
        control_waist_m=_require(g, "geometry", "control_waist_m", float),
        signal_waist_m=_require(g, "geometry", "signal_waist_m", float),
        cloud_length_m=_require(g, "geometry", "cloud_length_m", float),
        cloud_sigma_m=tuple(float(s) for s in sigma),
        atom_count=_require(g, "geometry", "atom_count", int),
        temperature_k=_require(g, "geometry", "temperature_k", float),
        signal_angles_rad=tuple(math.radians(float(a)) for a in angles),
    )

    e = cfg.get("eit")
    if not isinstance(e, dict):
        raise ConfigError("eit", "missing or not a mapping")
    gamma_gs = e.get("gamma_gs_hz", "calibrated")
    gamma_gs_rad = (eitline.DEFAULT_GAMMA_GS_RAD_PER_S if gamma_gs == "calibrated"
                    else 2.0 * math.pi * float(gamma_gs))
    eit = _build(
        "eit", eitline.EitParams,
        od=_require(e, "eit", "od", float),
        rabi_rad_per_s=2.0 * math.pi * _require(e, "eit", "rabi_hz", float),
        gamma_e_rad_per_s=2.0 * math.pi * float(e.get("gamma_e_hz", 5.75e6)),
        gamma_gs_rad_per_s=gamma_gs_rad,
    )

    s = cfg.get("source")
    if not isinstance(s, dict):
        raise ConfigError("source", "missing or not a mapping")
    source = _build(
        "source", channel.SourceParams,
        ratio_hv=_require(s, "source", "ratio_hv", float),
        ratio_pm=_require(s, "source", "ratio_pm", float),
        pair_rate_hz=_require(s, "source", "pair_rate_hz", float),
    )

    c = cfg.get("channel")
    if not isinstance(c, dict):
        raise ConfigError("channel", "missing or not a mapping")
    eta0 = _require(c, "channel", "eta0", float)
    tau_s = _require(c, "channel", "tau_s", float)
    bg = c.get("bg_coinc", "calibrated")
    if bg == "calibrated":
        chan = _build("channel", channel.calibrated_channel_params,
                      source=source, eta0=eta0, tau_s=tau_s)
    else:
        chan = _build("channel", channel.ChannelParams,
                      eta0=eta0, tau_s=tau_s, bg_coinc=float(bg),
                      trials_per_second=float(c.get("trials_per_second", source.pair_rate_hz)))

    times = cfg.get("storage_times_s")
    if not isinstance(times, (list, tuple)) or not times:
        raise ConfigError("storage_times_s", "expected a nonempty list")
    if any(float(t) < 0.0 for t in times):
        raise ConfigError("storage_times_s", "storage times must be >= 0")

    scheme = str(cfg.get("tomo_scheme", 36))
    if scheme not in ("16", "36"):
        raise ConfigError("tomo_scheme", f"must be 16 or 36, got {scheme!r}")

    n_trials = _require(cfg, "<root>", "n_trials", int)
    if n_trials <= 0:
        raise ConfigError("n_trials", "must be positive")
    n_mc = int(cfg.get("n_mc_sets", 0))
    if n_mc < 0:
        raise ConfigError("n_mc_sets", "must be >= 0")
    input_cp = float(cfg.get("input_coinc_prob", 0.04))
    if not 0.0 < input_cp <= 1.0:
        raise ConfigError("input_coinc_prob", "must lie in (0, 1]")

    return Scenario(
        geometry=geometry, eit=eit, source=source, channel=chan,
        storage_times_s=tuple(float(t) for t in times),
        tomo_scheme=scheme, n_trials=n_trials, n_mc_sets=n_mc,
        master_seed=_require(cfg, "<root>", "master_seed", int),
        input_coinc_prob=input_cp,
    )


def default_config() -> dict:
    text = resources.files("holomem.data").joinpath("default_scenario.yaml").read_text()
    return yaml.safe_load(text)


def scenario_to_config(sc: Scenario) -> dict:
    """Serialize a Scenario back to the config tree (a parse fixed point)."""
    return {
        "master_seed": sc.master_seed,
        "tomo_scheme": int(sc.tomo_scheme),
        "n_trials": sc.n_trials,
        "n_mc_sets": sc.n_mc_sets,
        "input_coinc_prob": sc.input_coinc_prob,
        "storage_times_s": list(sc.storage_times_s),
        "geometry": {
            "wavelength_m": sc.geometry.wavelength_m,
            "control_waist_m": sc.geometry.control_waist_m,
            "signal_waist_m": sc.geometry.signal_waist_m,
            "cloud_length_m": sc.geometry.cloud_length_m,
            "cloud_sigma_m": list(sc.geometry.cloud_sigma_m),
            "atom_count": sc.geometry.atom_count,
            "temperature_k": sc.geometry.temperature_k,
            "signal_angles_deg": [math.degrees(a) for a in sc.geometry.signal_angles_rad],
        },
        "eit": {
            "od": sc.eit.od,
            "rabi_hz": sc.eit.rabi_rad_per_s / (2.0 * math.pi),
            "gamma_e_hz": sc.eit.gamma_e_rad_per_s / (2.0 * math.pi),
            # The shipped calibration is stored in rad/s; the Hz round trip
            # is not bit-exact, so keep the symbolic form when it applies.
            "gamma_gs_hz": ("calibrated"
                            if sc.eit.gamma_gs_rad_per_s == eitline.DEFAULT_GAMMA_GS_RAD_PER_S
                            else sc.eit.gamma_gs_rad_per_s / (2.0 * math.pi)),
        },
        "source": {
            "ratio_hv": sc.source.ratio_hv,
            "ratio_pm": sc.source.ratio_pm,
            "pair_rate_hz": sc.source.pair_rate_hz,
        },
        "channel": {
            "eta0": sc.channel.eta0,
            "tau_s": sc.channel.tau_s,
            "bg_coinc": sc.channel.bg_coinc,
            "trials_per_second": sc.channel.trials_per_second,
        },
    }


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

    analytic = {
        "mode_capacity": registers.mode_capacity(sc.geometry),
        "max_register_crosstalk_expected": max_xtalk,
        "eit_fwhm_hz": eitline.transparency_fwhm(sc.eit),
        "eit_group_delay_s": eitline.group_delay(sc.eit),
        "input": {
            "chsh_s": measure.chsh_s(rho_in),
            "fidelity_vs_bell": qstate.fidelity(bell, rho_in),
            "visibility": {b: measure.visibility(rho_in, b) for b in ("HV", "PM", "RL")},
            "mean_visibility": v0,
        },
        "visibility_threshold_time_s": channel.visibility_threshold_time(sc.channel, v0),
        "storage": [],
    }
    seeds: dict[str, int] = {}
    # (label, true state, coincidence probability) in report order: the
    # input, then one track per storage time.
    tracks = [("input", rho_in, sc.input_coinc_prob)]

    for t in sc.storage_times_s:
        rho_out, coinc_prob, frac = channel.store_retrieve(rho_in, t, sc.channel)
        analytic["storage"].append({
            "t_s": t,
            "efficiency": channel.efficiency(sc.channel, t),
            "coinc_prob": coinc_prob,
            "signal_fraction": frac,
            "chsh_s": measure.chsh_s(rho_out),
            "fidelity_vs_bell": qstate.fidelity(bell, rho_out),
            "process_fidelity": channel.process_fidelity(rho_in, rho_out),
            "mean_visibility": measure.mean_visibility(rho_out) if frac > 0 else 0.0,
            "visibility_model": channel.visibility_decay(sc.channel, v0, t),
        })
        tracks.append((f"t={t!r}", rho_out, coinc_prob))

    count_sets = []
    for label, rho_true, coinc_prob in tracks:
        seed_counts = child_seed(sc.master_seed, f"counts/{label}", 0)
        seeds[f"counts/{label}"] = seed_counts
        count_sets.append(measure.sample_counts(rho_true, list(ts.settings), sc.n_trials,
                                                min(coinc_prob, 1.0), seed_counts))
    results = tomo.mle_reconstruct_many(count_sets, ts)
    for (label, _, _), result in zip(tracks, results):
        if not result.converged:
            raise NonConvergenceError(f"tomography failed to converge for {label}")

    stat_tracks = []
    for (label, rho_true, _), counts, result in zip(tracks, count_sets, results):
        track = {
            "mle_fidelity_vs_bell": qstate.fidelity(result.rho_hat, bell),
            "mle_fidelity_vs_true": qstate.fidelity(result.rho_hat, rho_true),
            "mle_iterations": result.iterations,
            "total_counts": int(sum(r.counts for r in counts)),
        }
        if sc.n_mc_sets >= 2:
            seed_mc = child_seed(sc.master_seed, f"mc/{label}", 0)
            seeds[f"mc/{label}"] = seed_mc
            mc = tomo.monte_carlo_fidelity(counts, ts, bell, sc.n_mc_sets, seed_mc)
            track["mc"] = {"mean": mc.fidelity_mean, "std": mc.fidelity_std,
                           "n_sets": mc.n_sets, "nonconverged": mc.n_nonconverged}
        stat_tracks.append(track)
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
        return yaml.safe_load(fh)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    sc = load_scenario(cfg)
    report = run_simulate(sc)
    _write_out(report_to_json(report), args.out)
    return EXIT_OK


def _cmd_capacity(args) -> int:
    cfg = _read_config(args.config)
    sc = load_scenario(cfg)
    _write_out(f"{registers.mode_capacity(sc.geometry):.1f}\n", args.out)
    return EXIT_OK


def _cmd_eit(args) -> int:
    gamma_gs = (eitline.DEFAULT_GAMMA_GS_RAD_PER_S if args.gamma_gs_hz is None
                else 2.0 * math.pi * args.gamma_gs_hz)
    p = eitline.EitParams(od=args.od, rabi_rad_per_s=2.0 * math.pi * args.rabi_hz,
                          gamma_gs_rad_per_s=gamma_gs)
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
        cfg = _read_config(args.config)
        rho = channel.input_state(load_scenario(cfg).source)
    elif args.state.startswith("werner:"):
        rho = qstate.werner(float(args.state.split(":", 1)[1]))
    else:
        raise ConfigError("--state", f"unknown state {args.state!r}")
    s = measure.chsh_s(rho, convention=args.convention)
    _write_out(f"{s:.6f}\n", args.out)
    return EXIT_OK


def _cmd_crosstalk(args) -> int:
    cfg = _read_config(args.config)
    g = load_scenario(cfg).geometry
    seed = args.seed if args.seed is not None else 0
    modes = registers.spin_wave_vectors(g)
    buf = io.StringIO()
    buf.write("i,j,overlap_re,overlap_im,expected,stderr\n")
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            if j <= i:
                continue
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
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t_s"):
            continue
        t, y, s = line.split(",")
        rows.append((float(t), float(y), float(s)))
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
    with open(args.counts) as fh:
        counts = measure.counts_from_csv(fh.read())
    ts = tomo.make_settings(args.scheme)
    result = tomo.mle_reconstruct(counts, ts)
    if args.target == "bell":
        target = qstate.bell_phi_plus()
    else:
        with open(args.target) as fh:
            target = qstate.density_from_json(json.load(fh))
    payload = {
        "rho_hat": qstate.density_to_json(result.rho_hat),
        "fidelity_vs_target": qstate.fidelity(result.rho_hat, target),
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if args.mc_sets >= 2:
        mc = tomo.monte_carlo_fidelity(counts, ts, target, args.mc_sets,
                                       args.seed if args.seed is not None else 0)
        payload["mc"] = {"mean": mc.fidelity_mean, "std": mc.fidelity_std,
                         "n_sets": mc.n_sets, "nonconverged": mc.n_nonconverged}
    _write_out(_json_text(payload), args.out)
    if not result.converged:
        raise NonConvergenceError("tomography MLE hit the iteration cap")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holomem",
        description="Simulator and estimation toolkit for holographic storage "
                    "of polarization-entangled photon pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="scenario YAML (default: bundled)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario master seed")

    p = sub.add_parser("simulate", help="full end-to-end reproduction")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("capacity", help="Fresnel-number mode capacity")
    common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("eit", help="EIT transmission spectrum CSV")
    common(p)
    p.add_argument("--od", type=float, default=10.0)
    p.add_argument("--rabi-hz", type=float, default=7e6)
    p.add_argument("--gamma-gs-hz", type=float, default=None)
    p.add_argument("--span-hz", type=float, default=12e6)
    p.add_argument("--points", type=int, default=801)
    p.set_defaults(func=_cmd_eit)

    p = sub.add_parser("chsh", help="CHSH S for a model state")
    common(p)
    p.add_argument("--state", default="input", help="bell | input | werner:p")
    p.add_argument("--convention", default="mirrored", choices=["mirrored", "textbook"])
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("crosstalk", help="register-overlap Monte Carlo CSV")
    common(p)
    p.set_defaults(func=_cmd_crosstalk)

    p = sub.add_parser("fit", help="decay-model least squares")
    common(p)
    p.add_argument("--kind", choices=["exp", "vis"], default="exp")
    p.add_argument("--data", default=None, help="CSV t_s,y,sigma (default: bundled)")
    p.add_argument("--tau-s", type=float, default=None)
    p.add_argument("--float-tau", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("tomo", help="MLE tomography from a counts CSV")
    common(p)
    p.add_argument("--counts", required=True)
    p.add_argument("--scheme", default="36", choices=["16", "36"])
    p.add_argument("--target", default="bell", help="bell | density-matrix JSON path")
    p.add_argument("--mc-sets", type=int, default=0)
    p.set_defaults(func=_cmd_tomo)

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
