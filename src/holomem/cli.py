"""Scenario runner and command-line interface.

Configs are YAML with explicit unit suffixes in key names (_s, _m, _hz,
_deg) to rule out microsecond/second and Hz/rad-s mixups; the models take
these units as they are.  One table, SCHEMA, defines the format: it lists
the top-level keys, and each Section's model dataclass lists its own.
load_scenario walks it to build the model objects, and rejects missing or
unknown keys and bad values with their field path.  Reports are JSON with
top-level keys config, analytic, statistical, seeds, version, provenance.
The report embeds the validated tree, read back from the model objects, so
regenerating a report from its own embedded config is byte-identical.

A process that runs many commands pays once for what a scenario fixes.
`simulate`, `capacity`, `chsh` and `crosstalk` get their Scenario through
_scenario, which parses and validates each config text once: the bundled
text, or the last --config text, whose file is still read on every call.
run_simulate takes the analytic block and the true-state stack from _model,
kept for the last model inputs, and draws only counts and solves anew.  Each
cache keeps one entry; a one-shot process sees no change.

Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import io
import json
import math
import os
import sys
import types
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__, channel, eitline, fitkit, measure, qstate, registers, tomo

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2

# Provenance tags used in reports: values anchored to the reference
# experiment's reported numbers vs values derived from this model.
PROV_MEASURED = "measured-reference"
PROV_DERIVED = "model-derived"

# The tag of each report path and its subtree; the input's visibilities carry none.
PROVENANCE = {
    **dict.fromkeys(["analytic.mode_capacity", "analytic.eit_fwhm_hz", "analytic.eit_group_delay_s",
                     "analytic.input.chsh_s", "analytic.input.fidelity_vs_bell",
                     "analytic.visibility_threshold_time_s", "analytic.storage"], PROV_MEASURED),
    **dict.fromkeys(["analytic.max_register_crosstalk_expected", "statistical"], PROV_DERIVED),
}


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
    def kind(val, path: str) -> tuple[float, ...]:
        if not isinstance(val, (list, tuple)) or not val or length not in (None, len(val)):
            want = "a nonempty list" if length is None else f"{length} values"
            raise ConfigError(path, f"expected {want}, got {val!r}")
        return tuple(_float(v, f"{path}[{i}]") for i, v in enumerate(val))
    return kind


KINDS = {"float": _float, "int": _int, "tuple[float, float, float]": _floats(3),
         "tuple[float, ...]": _floats()}


def _check(rule, value, path: str) -> None:
    if rule is not None and not rule[0](value):
        raise ConfigError(path, f"{rule[1]}, got {value!r}")


MC_SETS_RULE = (lambda n: n == 0 or n >= 2, "must be 0 or at least 2")


class Field(NamedTuple):
    """One required config key.  `kind` maps the raw value to the value the
    model takes, and `check` is an optional (predicate, message) on it."""

    key: str
    kind: Callable[[object, str], object]
    check: tuple | None = None


class Section(NamedTuple):
    """A mapping of Fields that `build` turns into one model object."""

    key: str
    build: Callable[..., object]
    fields: tuple[Field, ...]


def _section(key: str, model: type) -> Section:
    """The Section of a model dataclass: a Field of the kind its annotation names per field."""
    return Section(key, model, tuple(Field(f.name, KINDS[f.type])
                                     for f in dataclasses.fields(model)))


# `simulate --seed` overrides this field.
SEED = Field("master_seed", _int)

# The `eit` command lays its flags over the bundled scenario's mapping of this section.
EIT = _section("eit", eitline.EitParams)

# The config format.  Fields at the top level are Scenario arguments, and
# each Section builds the Scenario argument of its key.
SCHEMA = (
    SEED,
    Field("tomo_scheme", _int, (lambda n: n in (16, 36), "must be 16 or 36")),
    Field("n_trials", _int, (lambda n: n > 0, "must be positive")),
    Field("n_mc_sets", _int, MC_SETS_RULE),
    Field("input_coinc_prob", _float, (lambda p: 0.0 < p <= 1.0, "must lie in (0, 1]")),
    Field("storage_times_s", _floats(),
          (lambda ts: min(ts) >= 0.0 and len(set(ts)) == len(ts),
           "storage times must be >= 0 and pairwise distinct")),
    _section("geometry", registers.MemoryGeometry),
    EIT,
    _section("source", channel.SourceParams),
    _section("channel", channel.ChannelParams),
)


def _parse(rows, raw, path: str) -> dict:
    """Validate one mapping against its rows into constructor arguments."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", "missing or not a mapping")
    prefix = f"{path}." if path else ""
    known = {row.key for row in rows}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    args = {}
    for row in rows:
        where = prefix + row.key
        if isinstance(row, Section):
            kwargs = _parse(row.fields, raw.get(row.key), where)
            try:
                args[row.key] = row.build(**kwargs)
            except ValueError as exc:
                raise ConfigError(where, str(exc)) from None
            continue
        if row.key not in raw:
            raise ConfigError(where, "missing required field")
        args[row.key] = row.kind(raw[row.key], where)
        _check(row.check, args[row.key], where)
    return args


# One attribute per top-level SCHEMA row.
Scenario = dataclasses.make_dataclass("Scenario", [row.key for row in SCHEMA], frozen=True,
                                      namespace={"__module__": __name__})


def load_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config tree into a Scenario by walking SCHEMA.  A
    missing, unknown or invalid key raises ConfigError with its path."""
    return Scenario(**_parse(SCHEMA, cfg, ""))


class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader, on libyaml where PyYAML has it (about ten times faster), that
    rejects a key written twice in one mapping, whose last value PyYAML keeps."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if (key.tag, str(key.value)) in seen:
                raise yaml.MarkedYAMLError(problem=f"duplicate key {key.value!r}",
                                           problem_mark=key.start_mark)
            seen.add((key.tag, str(key.value)))
        return super().construct_mapping(node, deep)


@functools.cache
def _bundled_config() -> dict:
    """The parse of the bundled scenario, read once per process.  Never handed out."""
    text = resources.files("holomem.data").joinpath("default_scenario.yaml").read_text()
    return yaml.load(text, Loader=_YamlLoader)


def default_config() -> dict:
    """The bundled scenario's config tree, as a new copy of the one parse per
    process, so that a caller's edits reach no later call."""
    return copy.deepcopy(_bundled_config())


def _tree(rows, obj) -> dict:
    tree = {}
    for row in rows:
        value = getattr(obj, row.key)
        if isinstance(row, Section):
            value = _tree(row.fields, value)
        tree[row.key] = list(value) if isinstance(value, tuple) else value
    return tree


def scenario_to_config(sc: Scenario) -> dict:
    """The validated config tree of a Scenario (a parse fixed point), in new
    lists and mappings."""
    return _tree(SCHEMA, sc)


# ---------------------------------------------------------------------------
# End-to-end runner
# ---------------------------------------------------------------------------

class _Model(NamedTuple):
    """The half of a report that the model inputs alone fix (see _model)."""

    scalars: types.MappingProxyType  # the analytic block's scalar keys
    every: types.MappingProxyType    # analytic columns over the track stack
    storage: types.MappingProxyType  # analytic columns over the storage times
    input_visibility: np.ndarray     # the input's visibility per measure.BASIS_PAIRS
    rho_true: np.ndarray             # the track stack: the input, then each stored state


@functools.lru_cache(maxsize=1)
def _model(key: str, times: tuple, geometry, eit, source, chan) -> _Model:
    """The analytic values and true states of a scenario's storage times,
    geometry, eit, source and channel, whose repr is `key`.  No master seed,
    scheme or count setting changes them, so the last inputs' half is kept, its
    arrays read-only; inputs that fail fail again on every call.  The key tells
    -0.0 from 0.0, which compare equal but can print apart (a zero eta0's
    efficiency column)."""
    # A line with no transparency window is a config fault: name it before any work.
    try:
        eit_fwhm, eit_delay = eitline.transparency_fwhm(eit), eitline.group_delay(eit)
    except eitline.EitError as exc:
        raise ConfigError(EIT.key, str(exc)) from None
    rho_in = channel.input_state(source)
    q = registers.spin_wave_vectors(geometry)
    max_xtalk = max((registers.expected_crosstalk(a, b, geometry)
                     for i, a in enumerate(q) for b in q[i + 1:]), default=0.0)

    rho_out, coinc_probs, fracs = channel.store_retrieve(rho_in, times, chan)
    rho_true = np.concatenate([rho_in[None], rho_out])
    vis = measure.visibilities(rho_true)
    mean_vis = vis.mean(axis=1)
    scalars = {
        "mode_capacity": registers.mode_capacity(geometry),
        "max_register_crosstalk_expected": max_xtalk,
        "eit_fwhm_hz": eit_fwhm,
        "eit_group_delay_s": eit_delay,
        "visibility_threshold_time_s": channel.visibility_threshold_time(chan,
                                                                         float(mean_vis[0])),
    }
    every = {
        "chsh_s": measure.chsh_s(rho_true),
        "fidelity_vs_bell": qstate.fidelity(qstate.PHI_PLUS, rho_true),
        # A storage track without signal reads no visibility.
        "mean_visibility": np.where(np.r_[True, fracs > 0], mean_vis, 0.0),
    }
    storage = {
        "efficiency": np.array([channel.efficiency(chan, t) for t in times]),
        "coinc_prob": coinc_probs,
        "signal_fraction": fracs,
        "process_fidelity": qstate.fidelity(rho_in, rho_out),
    }
    for column in (vis, rho_true, *every.values(), *storage.values()):
        column.flags.writeable = False
    return _Model(types.MappingProxyType(scalars), types.MappingProxyType(every),
                  types.MappingProxyType(storage), vis[0], rho_true)


def run_simulate(sc: Scenario) -> dict:
    """Reproduce the full experiment: input state, storage channel, and both
    analytic and count-statistics (tomography) tracks per storage time.  The
    model half comes from _model; the counts, solves and seeds are drawn anew."""
    inputs = (sc.storage_times_s, sc.geometry, sc.eit, sc.source, sc.channel)
    model = _model(repr(inputs), *inputs)
    analytic = {**model.scalars,
                **_tracks(model.every, {"t_s": sc.storage_times_s, **model.storage})}
    analytic["input"]["visibility"] = dict(zip(measure.BASIS_PAIRS,
                                               model.input_visibility.tolist()))
    bell = qstate.PHI_PLUS  # a ket: its fidelities are <phi+|rho|phi+>
    ts = tomo.make_settings(sc.tomo_scheme)
    rho_true = model.rho_true
    # The track stack: the input, then one track per storage time.
    labels = ["input"] + [f"t={t!r}" for t in sc.storage_times_s]
    count_seeds = [measure.child_seed(sc.master_seed, f"counts/{label}", 0) for label in labels]
    mc_seeds = [measure.child_seed(sc.master_seed, f"mc/{label}", 0) for label in labels]
    seeds = {f"counts/{label}": seed for label, seed in zip(labels, count_seeds)}
    if sc.n_mc_sets:
        seeds.update((f"mc/{label}", seed) for label, seed in zip(labels, mc_seeds))
    scales = [sc.input_coinc_prob, *model.storage["coinc_prob"].tolist()]
    try:
        n = measure.sample_count_arrays(rho_true, ts.projectors, sc.n_trials, scales, count_seeds)
        if not (totals := n.sum(axis=1)).all():
            raise ConfigError("n_trials", f"track counts/{labels[np.argmin(totals)]} drew no "
                                          "counts to reconstruct")
        points, stack, failed = tomo.reconstruct_with_mc(n, np.ones(n.shape), ts, sc.n_mc_sets,
                                                         mc_seeds)
    except tomo.EmptyResampleError as exc:
        raise ConfigError("n_trials", f"track mc/{labels[exc.set_index]} drew no counts in "
                                      f"resample {exc.resample}") from None
    except measure.PoissonLimitError as exc:
        raise ConfigError("n_trials", f"track counts/{labels[exc.row]} has a mean or count above "
                                      f"numpy's Poisson limit {exc.LIMIT:.6g}") from None
    if not points.converged.all():
        raise NonConvergenceError(
            f"tomography failed to converge for {labels[np.argmin(points.converged)]}")
    statistical = _tracks({
        "mle_fidelity_vs_bell": qstate.fidelity(bell, points.rho_hat),
        "mle_fidelity_vs_true": qstate.fidelity(points.rho_hat, rho_true),
        "mle_iterations": points.iterations,
        "total_counts": totals,
        **({"mc": _mc_blocks(bell, stack, failed)} if sc.n_mc_sets else {}),
    }, {"t_s": sc.storage_times_s})
    return {"version": __version__, "config": scenario_to_config(sc), "analytic": analytic,
            "statistical": statistical, "seeds": seeds, "provenance": dict(PROVENANCE)}


def _tracks(every: dict, storage: dict) -> dict:
    """The input row and storage rows of a report block from named columns:
    `every` over the track stack, `storage` over the storage times only."""
    def rows(columns: dict) -> list[dict]:
        lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
        return [dict(zip(columns, row)) for row in zip(*lists, strict=True)]
    first, *rest = rows(every)
    return {"input": first, "storage": [s | r for s, r in zip(rows(storage), rest, strict=True)]}


def _mc_blocks(target: np.ndarray, stack: np.ndarray, failed: np.ndarray) -> list[dict]:
    """The "mc" block of each report track or of `tomo` output: the fidelity
    mean and spread of a (B, n_sets, 4, 4) resample stack versus `target` (a
    state or a ket), with n_sets >= 2, and the count of non-converged resamples."""
    fid = qstate.fidelity(target, stack.reshape(-1, 4, 4)).reshape(stack.shape[:2])
    return [{"mean": float(f.mean()), "std": float(f.std(ddof=1)), "n_sets": len(f),
             "nonconverged": int(k)} for f, k in zip(fid, failed)]


def _json_text(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)` and a newline, in one pass,
    with each non-finite float written as the string "inf", "-inf" or "nan" so
    that the output is strict JSON.  Scalars take json's own spellings (its
    indented encoder is pure Python).  Keys are strings; tuples write as lists."""
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    return "".join(parts) + "\n"


def _write_json(obj, pad: str, put) -> None:
    """Pass the JSON text of `obj`, indented past `pad`, piece by piece to `put`.
    A module function, not a closure: a recursive closure is a reference cycle,
    which would keep each output's pieces alive until a full garbage collection."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        put(text if math.isfinite(obj) else f'"{text}"')
    elif isinstance(obj, dict):
        inner, sep = pad + "  ", "{"
        for key in sorted(obj):
            put(f"{sep}{inner}{_quote(key)}: ")
            _write_json(obj[key], inner, put)
            sep = ","
        put(pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in obj:
            put(sep + inner)
            _write_json(item, inner, put)
            sep = ","
        put(pad + "]" if obj else "[]")
    elif isinstance(obj, str):
        put(_quote(obj))
    elif obj is None:
        put("null")
    elif obj is True or obj is False:
        put("true" if obj else "false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_quote = json.encoder.encode_basestring_ascii


def report_to_json(report: dict) -> str:
    return _json_text(report)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _open(path: str, flag: str, mode: str = "r"):
    """open(path, mode); a file that cannot be opened raises ConfigError naming `flag`."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(flag, str(exc)) from None


class _Config:
    """The parse of one config text, and the Scenario validated from it on first
    use.  Neither leaves cli: a command gets the Scenario, and a seed-merged
    tree is a new mapping over the parse."""

    def __init__(self, tree):
        self.tree = tree

    @functools.cached_property
    def scenario(self) -> Scenario:
        return load_scenario(self.tree)


@functools.lru_cache(maxsize=1)
def _config(text: str | None, path: str | None) -> _Config:
    """The config of `text`, read from `path`, or of the bundled scenario for
    None.  Only the last text's is kept; one that fails to parse or validate
    fails again on every call."""
    if text is None:
        return _Config(_bundled_config())
    stream = io.StringIO(text)
    stream.name = path  # as a file would, this names the path in PyYAML's error marks
    try:
        return _Config(yaml.load(stream, Loader=_YamlLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(path, str(exc)) from None


def _scenario(path: str | None, seed: int | None = None) -> Scenario:
    """The Scenario of the --config file `path`, or of the bundled scenario for
    None, with `seed` as its master_seed if given.  The file is read on every
    call, so an edited file is never served stale, and a seed-merged config is
    validated on every call."""
    if path is None:
        cfg = _config(None, None)
    else:
        with _open(path, "--config") as fh:
            cfg = _config(fh.read(), path)
    if seed is not None and isinstance(cfg.tree, dict):
        return load_scenario({**cfg.tree, SEED.key: seed})
    return cfg.scenario


def _check_out(path: str) -> None:
    """Fail before any work as _write_out would: appending changes no file; remove one made here."""
    existed = os.path.lexists(path)
    _open(path, "--out", "a").close()
    if not existed:
        os.remove(path)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _open(out, "--out", "w") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    _write_out(report_to_json(run_simulate(_scenario(args.config, args.seed))), args.out)
    return EXIT_OK


def _cmd_capacity(args) -> int:
    g = _scenario(args.config).geometry
    _write_out(f"{registers.mode_capacity(g):.1f}\n", args.out)
    return EXIT_OK


def _cmd_eit(args) -> int:
    flags = {"od": args.od, "rabi_hz": args.rabi_hz, "gamma_gs_hz": args.gamma_gs_hz}
    raw = {**default_config()[EIT.key], **{k: v for k, v in flags.items() if v is not None}}
    p = _parse((EIT,), {EIT.key: raw}, "")[EIT.key]
    span = args.span_hz
    if not (0.0 < span and math.isfinite(span * span)):
        raise ConfigError("--span-hz", f"must be positive with a finite square, got {span}")
    # The line shape's cross term delta * gamma_gs must fit a float too.
    if not math.isfinite(span * p.gamma_gs_hz):
        raise ConfigError("--span-hz", f"times eit.gamma_gs_hz {p.gamma_gs_hz} must be finite, "
                                       f"got {span}")
    if args.points <= 0:
        raise ConfigError("--points", f"must be a positive integer, got {args.points}")
    deltas = np.linspace(-span, span, args.points)
    rows = map("{:.6e},{:.9e},{:.9e}\n".format, deltas.tolist(),
               eitline.transmission(p, deltas).tolist(), eitline.phase(p, deltas).tolist())
    _write_out("delta_hz,transmission,phase_rad\n" + "".join(rows), args.out)
    return EXIT_OK


def _cmd_chsh(args) -> int:
    if args.state == "bell":
        rho = qstate.bell_phi_plus()
    elif args.state == "input":
        rho = channel.input_state(_scenario(args.config).source)
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
    g = _scenario(args.config).geometry
    seed = args.seed if args.seed is not None else 0
    q = registers.spin_wave_vectors(g)
    overlaps = registers.crosstalk_matrix(q, g, seed=measure.child_seed(seed, "crosstalk", 0))
    buf = io.StringIO()
    buf.write("i,j,overlap_re,overlap_im,expected,stderr\n")
    for i, a in enumerate(q):
        for j, b in enumerate(q[i + 1:], start=i + 1):
            ov = overlaps[i, j]
            buf.write(f"{i},{j},{ov.real:.6e},{ov.imag:.6e},"
                      f"{registers.expected_crosstalk(a, b, g):.6e},"
                      f"{registers.crosstalk_stderr(g):.6e}\n")
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _read_fit_csv(path: str | None):
    if path is None:
        text = resources.files("holomem.data").joinpath("synthetic_decay.csv").read_text()
    else:
        with _open(path, "--data") as fh:
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
    """The `fit` output: these FitResult fields, t_star_s only where set."""
    keys = ("params", "uncertainties", "residual_norm", "converged", "t_star_s")
    return _json_text({key: getattr(res, key) for key in keys if getattr(res, key) is not None})


def _cmd_fit(args) -> int:
    data = _read_fit_csv(args.data)
    if args.kind == "exp":
        for flag, given in (("--tau-s", args.tau_s is not None), ("--float-tau", args.float_tau)):
            if given:
                raise ConfigError(flag, "applies only to --kind vis")
        res = fitkit.fit_exponential(data)
    else:
        if args.tau_s is None:
            raise ConfigError("--tau-s", "required for the visibility fit")
        _check((lambda tau: 0.0 < tau < math.inf, "must be finite and positive"), args.tau_s,
               "--tau-s")
        if args.data is None:
            raise ConfigError("--data", "required for the visibility fit: the bundled CSV holds "
                                        "efficiencies, not visibilities")
        res = fitkit.fit_visibility(data, tau_s=args.tau_s, float_tau=args.float_tau)
    if not res.converged:
        raise NonConvergenceError("fit did not converge")
    _write_out(_fit_result_json(res), args.out)
    return EXIT_OK


def _cmd_tomo(args) -> int:
    _check(MC_SETS_RULE, args.mc_sets, "--mc-sets")
    ts = tomo.make_settings(args.scheme)
    with _open(args.counts, "--counts") as fh:
        try:
            n, dur = measure.counts_from_csv(fh.read(), ts.settings)
        except measure.MeasureError as exc:
            raise ConfigError("--counts", str(exc)) from None
    if args.target == "bell":
        target = qstate.PHI_PLUS
    else:
        with _open(args.target, "--target") as fh:
            try:  # not JSON, or not a density matrix
                target = qstate.density_from_json(json.load(fh))
            except ValueError as exc:
                raise ConfigError("--target", str(exc)) from None
        if target.shape != (4, 4):
            raise ConfigError("--target", f"malformed JSON density matrix: dim {len(target)} is "
                                          "not 4")
    seed = args.seed if args.seed is not None else 0
    try:
        points, stack, failed = tomo.reconstruct_with_mc([n], [dur], ts, args.mc_sets, [seed])
    except measure.PoissonLimitError as exc:
        raise ConfigError("--counts", f"counts above {exc.LIMIT:.6g} cannot be resampled") from None
    except tomo.TomographyError as exc:  # an empty resample, or no counts at all
        raise ConfigError("--counts", str(exc)) from None
    result = points[0]
    payload = {
        "rho_hat": qstate.density_to_json(result.rho_hat),
        "fidelity_vs_target": qstate.fidelity(target, result.rho_hat),
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if args.mc_sets:
        (payload["mc"],) = _mc_blocks(target, stack, failed)
    _write_out(_json_text(payload), args.out)
    if not result.converged:
        raise NonConvergenceError("tomography MLE did not converge")
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
    }

    def command(name, func, flags, help, seed=None):
        """A subcommand with those of the shared flags that it reads, and a
        --seed with the help text `seed` if it takes one."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        if seed is not None:
            p.add_argument("--seed", type=int, default=None, help=seed)
        return p

    command("simulate", _cmd_simulate, ("--config", "--out"), "full end-to-end reproduction",
            seed="overrides the scenario master_seed")
    command("capacity", _cmd_capacity, ("--config", "--out"), "Fresnel-number mode capacity")

    p = command("eit", _cmd_eit, ("--out",), "EIT transmission spectrum CSV")
    p.add_argument("--od", type=float, help="overrides the bundled eit.od")
    p.add_argument("--rabi-hz", type=float, help="overrides the bundled eit.rabi_hz")
    p.add_argument("--gamma-gs-hz", type=float, help="overrides the bundled eit.gamma_gs_hz")
    p.add_argument("--span-hz", type=float, default=12e6,
                   help="detuning half-span in Hz; the spectrum runs from -span to +span "
                        "(default 12e6)")
    p.add_argument("--points", type=int, default=801,
                   help="number of evenly spaced detunings (default 801)")

    p = command("chsh", _cmd_chsh, ("--config", "--out"), "CHSH S for a model state")
    p.add_argument("--state", default="input", help="bell | input | werner:p")
    p.add_argument("--convention", default="mirrored", choices=["mirrored", "textbook"],
                   help="analyzer angles: mirrored negates photon 2's angle "
                        "(default mirrored)")

    command("crosstalk", _cmd_crosstalk, ("--config", "--out"),
            "register-overlap Monte Carlo CSV",
            seed="seed of the one atom cloud that every register pair shares (default 0)")

    p = command("fit", _cmd_fit, ("--out",), "decay-model least squares")
    p.add_argument("--kind", choices=["exp", "vis"], default="exp",
                   help="exp: efficiency eta0 exp(-t/tau); "
                        "vis: visibility 1/(a + b exp(2t/tau)) (default exp)")
    p.add_argument("--data", default=None,
                   help="CSV t_s,y,sigma (default for --kind exp: the bundled efficiency decay; "
                        "required for --kind vis)")
    p.add_argument("--tau-s", type=float, default=None,
                   help="tau in s for --kind vis, held fixed unless --float-tau")
    p.add_argument("--float-tau", action="store_true",
                   help="fit tau jointly with a and b, starting from --tau-s")

    p = command("tomo", _cmd_tomo, ("--out",), "MLE tomography from a counts CSV",
                seed="seed of the Monte Carlo count resampling (default 0)")
    p.add_argument("--counts", required=True,
                   help="count CSV setting_label,counts,duration_s, one row per setting")
    p.add_argument("--scheme", default="36", choices=["16", "36"],
                   help="tomography settings: 36 (H,V,+,-,R,L pairs) or 16 (H,V,+,R pairs)")
    p.add_argument("--target", default="bell", help="bell | density-matrix JSON path")
    p.add_argument("--mc-sets", type=int, default=0,
                   help="Monte Carlo resample sets for the fidelity spread: "
                        "0 (none) or at least 2 (default 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        if args.out is not None:  # every command takes --out
            _check_out(args.out)
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
