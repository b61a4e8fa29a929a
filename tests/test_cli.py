import argparse
import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holomem import channel, cli, measure, qstate, registers, tomo
from holomem.measure import child_seed
from conftest import BUNDLED, SPARSE_PAIR

TS36 = tomo.make_settings(36)
# The bundled efficiency-decay CSV, which `fit --kind exp` reads by default; the
# visibility-fit cases below fit it on purpose, for its large exp(2t/tau) terms.
DECAY_CSV = str(Path(cli.__file__).parent / "data" / "synthetic_decay.csv")


def counts_csv(counts) -> str:
    """The count CSV of 36-setting counts, each over a duration of 1 s."""
    return measure.counts_to_csv(TS36.settings, counts, np.ones(len(counts)))


def small_config() -> dict:
    """A fast variant of the bundled scenario for end-to-end tests."""
    cfg = cli.default_config()
    cfg["n_trials"] = 20000
    cfg["n_mc_sets"] = 4
    cfg["storage_times_s"] = [0.0, 1.0e-6]
    return cfg


class TestConfig:
    def test_default_config_loads(self):
        sc = cli.load_scenario(cli.default_config())
        assert sc.tomo_scheme == 36
        assert sc.channel.eta0 == 0.15
        assert sc.channel.tau_s == pytest.approx(2.8e-6)
        assert 0.0 < sc.channel.bg_coinc < 0.01

    def test_round_trip_is_fixed_point(self):
        sc = cli.load_scenario(cli.default_config())
        cfg2 = cli.scenario_to_config(sc)
        sc2 = cli.load_scenario(cfg2)
        assert sc == sc2
        assert cli.scenario_to_config(sc2) == cfg2

    def test_default_config_hands_out_equal_copies(self):
        first, second = cli.default_config(), cli.default_config()
        assert first == second and first is not second
        assert first["eit"] is not second["eit"]
        assert first["geometry"]["signal_angles_deg"] is not second["geometry"]["signal_angles_deg"]

    def test_edits_to_a_default_config_reach_no_later_call(self):
        bundled = cli.default_config()
        scenario = cli.load_scenario(cli.default_config())
        edited = cli.default_config()
        edited["geometry"]["signal_angles_deg"][0] = 45.0
        edited["geometry"]["signal_angles_deg"].append(50.0)
        edited["eit"]["od"] = 99.0
        del edited["eit"]["rabi_hz"]
        assert cli.default_config() == bundled
        assert cli.load_scenario(cli.default_config()) == scenario

    def test_bundled_scenario_is_parsed_once(self, monkeypatch):
        parses = []
        load = yaml.load

        def spy(*args, **kwargs):
            parses.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(yaml, "load", spy)
        cli._bundled_config.cache_clear()
        trees = [cli.default_config() for _ in range(3)]
        assert len(parses) == 1
        assert trees[0] == trees[1] == trees[2] == yaml.safe_load(
            (Path(cli.__file__).parent / "data" / "default_scenario.yaml").read_text())

    @pytest.mark.parametrize("mutate,path", [
        (lambda c: c.pop("geometry"), "geometry"),
        (lambda c: c["geometry"].pop("wavelength_m"), "geometry.wavelength_m"),
        (lambda c: c["geometry"].__setitem__("cloud_sigma_m", [1.0]), "cloud_sigma_m"),
        (lambda c: c.__setitem__("storage_times_s", [-1.0]), "storage_times_s"),
        (lambda c: c.__setitem__("tomo_scheme", 9), "tomo_scheme"),
        (lambda c: c.__setitem__("n_trials", 0), "n_trials"),
        (lambda c: c["eit"].__setitem__("rabi_hz", "fast"), "eit.rabi_hz"),
        (lambda c: c["channel"].__setitem__("eta0", 2.0), "channel"),
        pytest.param(lambda c: c["channel"].update(eta0=0.0, bg_coinc=0.0), "channel",
                     id="eta0-zero-background-zero"),
        (lambda c: c.__setitem__("n_mc_sets", 1), "n_mc_sets"),
        pytest.param(lambda c: c.__setitem__("storage_times_s", [1e-6, 1e-6]),
                     "storage_times_s", id="repeated-storage-time"),
        pytest.param(lambda c: c["eit"].__setitem__("gamma_gs_hz", "calibrated"),
                     "eit.gamma_gs_hz", id="calibrated-gamma-gs"),
        pytest.param(lambda c: c["channel"].__setitem__("bg_coinc", "calibrated"),
                     "channel.bg_coinc", id="calibrated-bg-coinc"),
        pytest.param(lambda c: c["channel"].__setitem__("bg_coinc", 3.0), "channel",
                     id="coincidence-probability-above-one"),
    ])
    def test_validation_names_the_field(self, mutate, path):
        cfg = copy.deepcopy(cli.default_config())
        mutate(cfg)
        with pytest.raises(cli.ConfigError) as err:
            cli.load_scenario(cfg)
        assert path in str(err.value)


def schema_fields():
    """(path, Field) for every config key, read from the schema table."""
    for row in cli.SCHEMA:
        if isinstance(row, cli.Section):
            for field in row.fields:
                yield (row.key, field.key), field
        else:
            yield (row.key,), row


SCHEMA_FIELDS = list(schema_fields())


def mapping_of(cfg: dict, path: tuple) -> dict:
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg


@pytest.mark.parametrize("path,field", SCHEMA_FIELDS,
                         ids=[".".join(path) for path, _ in SCHEMA_FIELDS])
class TestSchema:
    def rejected_at(self, cfg) -> str:
        with pytest.raises(cli.ConfigError) as err:
            cli.load_scenario(cfg)
        return err.value.path

    def test_missing_key(self, path, field):
        cfg = cli.default_config()
        del mapping_of(cfg, path)[path[-1]]
        assert self.rejected_at(cfg) == ".".join(path)

    def test_unknown_sibling(self, path, field):
        cfg = cli.default_config()
        mapping_of(cfg, path)[path[-1] + "x"] = mapping_of(cfg, path)[path[-1]]
        assert self.rejected_at(cfg) == ".".join(path) + "x"

    def test_bool(self, path, field):
        cfg = cli.default_config()
        mapping_of(cfg, path)[path[-1]] = True
        assert self.rejected_at(cfg) == ".".join(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "inf"])
    def test_non_finite(self, path, field, bad):
        cfg = cli.default_config()
        where = ".".join(path)
        value = mapping_of(cfg, path)[path[-1]]
        if isinstance(value, list):
            bad, where = [bad] * len(value), where + "[0]"
        mapping_of(cfg, path)[path[-1]] = bad
        assert self.rejected_at(cfg) == where


DEFAULT_CONFIG = cli.default_config()


def numeric(values):
    """A float strategy that also yields each value as a numeric string."""
    return st.one_of(values, values.map(repr))


@st.composite
def valid_configs(draw):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    pos = lambda lo, hi: numeric(st.floats(lo, hi))
    cfg.update(
        master_seed=draw(st.integers(0, 2 ** 63)),
        tomo_scheme=draw(st.sampled_from([16, 36, "16", 36.0])),
        # Up to 1e24 log-uniformly, past numpy's Poisson limit of about 9.2e18.
        n_trials=draw(st.integers(1, 10 ** 6) | st.integers(1, 10 ** 6).map(float)
                      | st.floats(6.0, 24.0).map(lambda e: int(10 ** e))),
        n_mc_sets=draw(st.sampled_from([0, 2]) | st.integers(2, 500)),
        input_coinc_prob=draw(pos(1e-6, 1.0)),
        storage_times_s=draw(st.lists(pos(0.0, 1e-5), min_size=1, max_size=4,
                                      unique_by=float)),
    )
    cfg["geometry"].update(
        wavelength_m=draw(pos(1e-7, 2e-6)),
        cloud_sigma_m=draw(st.lists(pos(1e-5, 1e-2), min_size=3, max_size=3)),
        atom_count=draw(st.integers(1, 10 ** 9)),
        # Three decimals, as written by hand; most did not survive the
        # radians -> degrees round trip the config tree once took.
        signal_angles_deg=draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=5,
                                        unique=True).map(lambda ms: [m / 1000 for m in ms])),
    )
    cfg["eit"].update(
        od=draw(pos(0.1, 50.0)),
        rabi_hz=draw(pos(0.0, 2e7)),
        gamma_gs_hz=draw(pos(0.0, 2e6)),
    )
    cfg["source"].update(ratio_hv=draw(pos(8.0, 20.0)), ratio_pm=draw(pos(20.0, 40.0)))
    eta0 = draw(pos(0.01, 1.0))
    cfg["channel"].update(
        eta0=eta0,
        tau_s=draw(pos(1e-7, 1e-5)),
        bg_coinc=draw(pos(0.0, min(0.1, 1.0 - float(eta0) ** 2))),
    )
    return cfg


def scramble(tree: dict) -> None:
    """Edit every list and mapping of a config tree in place."""
    for value in tree.values():
        if isinstance(value, dict):
            scramble(value)
        elif isinstance(value, list):
            value[0] = "edited"
            value.append(0.0)
    tree["edited"] = True


@settings(max_examples=50, deadline=None, database=None)
@given(valid_configs())
def test_config_round_trip_is_fixed_point(cfg):
    sc = cli.load_scenario(cfg)
    tree = cli.scenario_to_config(sc)
    assert cli.load_scenario(tree) == sc
    assert cli.scenario_to_config(cli.load_scenario(tree)) == tree
    # The tree shares no list or mapping with the Scenario.
    kept = copy.deepcopy(tree)
    scramble(tree)
    assert cli.scenario_to_config(sc) == kept
    assert cli.load_scenario(kept) == sc


# The config paths an error may name: each top-level key and section field.
CONFIG_PATHS = {row.key for row in cli.SCHEMA} | {
    f"{row.key}.{f.key}" for row in cli.SCHEMA if isinstance(row, cli.Section) for f in row.fields}


@settings(max_examples=60, deadline=None, database=None)
@given(valid_configs())
# Past numpy's Poisson limit, which few random draws reach before another named fault.
@example({**cli.default_config(), "n_trials": 10**21})
def test_every_valid_config_simulates_or_names_its_field(cfg):
    # At most 20 Monte Carlo sets per track, for time; the draws still reach
    # tracks of a few counts, empty resamples and lines without a window.
    cfg["n_mc_sets"] = min(cfg["n_mc_sets"], 20)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION), err.getvalue()
    if code == cli.EXIT_VALIDATION:
        assert out.getvalue() == ""
        named = re.match(r"error: ([\w.]+): [^\n]+\n\Z", err.getvalue())
        assert named and named[1] in CONFIG_PATHS, err.getvalue()
        return
    assert err.getvalue() == ""
    statistical = json.loads(out.getvalue())["statistical"]
    for track in [statistical["input"], *statistical["storage"]]:
        for key in ("mle_fidelity_vs_bell", "mle_fidelity_vs_true"):
            assert 0.0 <= track[key] <= 1.0
        if cfg["n_mc_sets"]:
            stats = [track["mc"]["mean"], track["mc"]["std"]]
            assert all(isinstance(v, float) and math.isfinite(v) for v in stats)
        else:
            assert "mc" not in track


# One valid alternative value per config key, each of which must change an
# output of `capacity`, `chsh --state input`, `crosstalk` or `simulate` (other
# than the report's embedded config).  atom_count shows only below
# registers.MAX_SAMPLE_ATOMS, in the crosstalk overlaps and their stderr.
ALTERNATIVES = {
    "master_seed": 1,
    "tomo_scheme": 16,
    "n_trials": 100000,
    "n_mc_sets": 50,
    "input_coinc_prob": 0.05,
    "storage_times_s": [0.0, 2.0e-6],
    "geometry.wavelength_m": 780.0e-9,
    "geometry.control_waist_m": 900.0e-6,
    "geometry.signal_waist_m": 500.0e-6,
    "geometry.cloud_length_m": 3.0e-3,
    "geometry.cloud_sigma_m": [0.4e-3, 0.5e-3, 1.0e-3],
    "geometry.atom_count": 5000,
    "geometry.signal_angles_deg": [-1.0, -0.6, 0.6, 1.2],
    "eit.od": 20.0,
    "eit.rabi_hz": 8.0e6,
    "eit.gamma_e_hz": 6.0e6,
    "eit.gamma_gs_hz": 1.0e4,
    "source.ratio_hv": 12.0,
    "source.ratio_pm": 20.0,
    "channel.eta0": 0.2,
    "channel.tau_s": 3.0e-6,
    "channel.bg_coinc": 1.0e-3,
}


def command_outputs(cfg: dict, tmp_path):
    """Yield the stdout of each output command on cfg; for simulate, the report
    without its embedded config."""
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    for argv in (["capacity"], ["chsh", "--state", "input"], ["crosstalk"], ["simulate"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_OK
        if argv == ["simulate"]:
            report = json.loads(out.getvalue())
            del report["config"]
            yield report
        else:
            yield out.getvalue()


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return list(command_outputs(cli.default_config(), tmp_path_factory.mktemp("default")))


class TestEveryKeyCounts:
    def test_alternatives_cover_every_key(self):
        assert sorted(ALTERNATIVES) == sorted(".".join(path) for path, _ in SCHEMA_FIELDS)

    @pytest.mark.parametrize("key", sorted(ALTERNATIVES))
    def test_key_changes_an_output(self, key, default_outputs, tmp_path):
        cfg, path = cli.default_config(), tuple(key.split("."))
        assert mapping_of(cfg, path)[path[-1]] != ALTERNATIVES[key]
        mapping_of(cfg, path)[path[-1]] = ALTERNATIVES[key]
        # Lazily, so that the first output that differs ends the check.
        assert any(out != ref for out, ref in zip(command_outputs(cfg, tmp_path),
                                                  default_outputs))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def report():
    return cli.run_simulate(cli.load_scenario(small_config()))


class TestSimulateReport:
    def test_structure(self, report):
        assert set(report) == {"version", "config", "analytic", "statistical",
                               "seeds", "provenance"}
        assert len(report["analytic"]["storage"]) == 2
        assert len(report["statistical"]["storage"]) == 2

    def test_analytic_values(self, report):
        a = report["analytic"]
        assert a["mode_capacity"] == pytest.approx(240.6, abs=0.5)
        assert a["eit_fwhm_hz"] == pytest.approx(2.2e6, rel=0.01)
        assert a["input"]["chsh_s"] == pytest.approx(2.54, abs=0.10)
        assert a["input"]["fidelity_vs_bell"] == pytest.approx(0.879, abs=0.05)
        assert 1.4e-6 <= a["visibility_threshold_time_s"] <= 1.8e-6
        assert a["max_register_crosstalk_expected"] < 1e-50
        one_us = a["storage"][1]
        assert 0.79 <= one_us["fidelity_vs_bell"] <= 0.83
        assert 0.96 <= one_us["process_fidelity"] <= 1.0
        assert one_us["chsh_s"] == pytest.approx(2.25, abs=0.15)

    def test_statistical_track_tracks_truth(self, report):
        for entry in [report["statistical"]["input"]] + report["statistical"]["storage"]:
            assert entry["mle_fidelity_vs_true"] > 0.97
            assert entry["mc"]["n_sets"] == 4
            assert 0.0 <= entry["mc"]["std"] < 0.1

    def test_reports_reproducible(self):
        sc = cli.load_scenario(small_config())
        r1 = cli.report_to_json(cli.run_simulate(sc))
        r2 = cli.report_to_json(cli.run_simulate(sc))
        assert r1 == r2

    def test_report_regenerates_from_embedded_config(self, report):
        sc = cli.load_scenario(report["config"])
        again = cli.run_simulate(sc)
        assert cli.report_to_json(again) == cli.report_to_json(report)

    def test_editing_a_report_config_leaves_the_next_report(self):
        sc = cli.load_scenario(small_config())
        first = cli.run_simulate(sc)
        text = cli.report_to_json(first)
        scramble(first["config"])
        assert cli.report_to_json(cli.run_simulate(sc)) == text

    def test_report_regenerates_with_unrepresentable_angles(self):
        # 1.753 degrees once came back as 1.7530000000000001 from radians.
        cfg = small_config()
        cfg.update(n_mc_sets=0, storage_times_s=[0.0])
        cfg["geometry"]["signal_angles_deg"] = [0.279, 1.43, 1.753, 1.777]
        report = cli.run_simulate(cli.load_scenario(cfg))
        assert report["config"]["geometry"]["signal_angles_deg"] == [0.279, 1.43, 1.753, 1.777]
        again = cli.run_simulate(cli.load_scenario(report["config"]))
        assert cli.report_to_json(again) == cli.report_to_json(report)

    def test_background_only_channel_crosses_at_once(self):
        # eta0 = 0 is valid with an explicit background: V(t) = 0 throughout.
        cfg = small_config()
        cfg.update(n_mc_sets=0, storage_times_s=[0.0])
        cfg["channel"].update(eta0=0.0, bg_coinc=0.001)
        report = cli.run_simulate(cli.load_scenario(cfg))
        assert report["analytic"]["visibility_threshold_time_s"] == 0.0

    def test_background_free_channel_is_exact(self):
        cfg = small_config()
        cfg["channel"]["bg_coinc"] = 0.0
        cfg["storage_times_s"] = [0.0]
        cfg["n_mc_sets"] = 0
        report = cli.run_simulate(cli.load_scenario(cfg))
        entry = report["analytic"]["storage"][0]
        assert entry["process_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert entry["chsh_s"] == pytest.approx(
            report["analytic"]["input"]["chsh_s"], abs=1e-12)
        # The visibility never decays, so its threshold time is infinite;
        # the report stays strict JSON.
        assert report["analytic"]["visibility_threshold_time_s"] == math.inf
        parsed = json.loads(cli.report_to_json(report), parse_constant=_reject_constant)
        assert parsed["analytic"]["visibility_threshold_time_s"] == "inf"

    def test_finite_report_serialized_unchanged(self, report):
        assert cli.report_to_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("seed", [1003, 1004, 1021])
    def test_decay_scan_seeds_converge(self, seed, tmp_path):
        # These seeds once reported a false MLE non-convergence (exit 2).
        cfg = cli.default_config()
        cfg["n_mc_sets"] = 0
        cfg["storage_times_s"] = [float(f"{i * 0.2:.1f}e-6") for i in range(41)]
        path = tmp_path / "scan.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "report.json"
        argv = ["simulate", "--config", str(path), "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(json.loads(out.read_text())["statistical"]["storage"]) == 41


    @pytest.mark.parametrize("seed", [0, 5])
    def test_sparse_counts_simulate(self, seed, monkeypatch):
        # At 300 trials some Monte Carlo resamples draw no counts in the H/V
        # group, which once ended the run; their start takes the scale from
        # all their counts.
        solved = []
        solve = tomo._mle_many

        def spy(n, dur, ts):
            solved.append(n)
            return solve(n, dur, ts)

        monkeypatch.setattr(tomo, "_mle_many", spy)
        cfg = {**cli.default_config(), "n_trials": 300, "master_seed": seed}
        report = cli.run_simulate(cli.load_scenario(cfg))
        (n,) = solved
        hv = [s.label in ("HH", "HV", "VH", "VV") for s in TS36.settings]
        assert (n[:, hv].sum(axis=1) == 0).any() and (n.sum(axis=1) > 0).all()
        for track in [report["statistical"]["input"], *report["statistical"]["storage"]]:
            assert 0.0 <= track["mle_fidelity_vs_bell"] <= 1.0
            assert 0.0 <= track["mc"]["mean"] <= 1.0

    def test_track_without_counts_names_n_trials(self, tmp_path, capsys):
        cfg = {**cli.default_config(), "n_trials": 1, "input_coinc_prob": 1e-6}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: n_trials: track counts/input drew no counts "
                                           "to reconstruct\n")

    @pytest.mark.parametrize("rabi_hz,message", [
        (0.0, "no transparency window without a control field"),
        (10.0, "no absorption dips flank the line centre: no transparency window"),
    ])
    def test_line_without_window_names_eit(self, rabi_hz, message, tmp_path, monkeypatch,
                                           capsys):
        def sample(*args):
            raise AssertionError("counts sampled before the config was checked")

        monkeypatch.setattr(measure, "sample_count_arrays", sample)
        cfg = cli.default_config()
        cfg["eit"]["rabi_hz"] = rabi_hz
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: eit: {message}\n"

    @pytest.mark.parametrize("n_trials,input_coinc_prob", [(10 ** 21, 0.04), (10 ** 20, 1.0)])
    def test_poisson_mean_above_numpy_limit_names_n_trials(self, n_trials, input_coinc_prob,
                                                            tmp_path, capsys):
        # numpy's Generator.poisson once ended these runs with "lam value too large".
        cfg = {**cli.default_config(), "n_trials": n_trials, "input_coinc_prob": input_coinc_prob}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: n_trials: track counts/input has a mean or "
                                           "count above numpy's Poisson limit 9.22337e+18\n")

    def test_empty_resample_names_its_track(self, tmp_path, capsys):
        # The 1 us track holds 5 counts, so each of its 100 resamples is empty
        # with probability e^-5; at this seed resample 28 is.
        cfg = {**cli.default_config(), "n_trials": 100, "master_seed": 7}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: n_trials: track mc/t=1e-06 drew no counts in "
                                           "resample 28\n")


def reference_finite(obj):
    """Copy of a JSON payload with each non-finite float replaced by its string
    form, tuples as lists: what json.dumps must see to write strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: reference_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_finite(v) for v in obj]
    return obj


JSON_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64),
                        st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, math.inf, -math.inf,
                                         math.nan, np.float64(-math.inf), np.float64(math.nan)]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS, st.text())
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, database=None)
@given(JSON_PAYLOADS)
@example({"é\"\\\n\x00 \U0001f600": {"": [], "b": (), "a": {}}, "z": [True, False, None, -0.0,
                                                                          5e-324, math.nan, -1]})
def test_json_writer_matches_json_dumps(payload):
    expected = json.dumps(reference_finite(payload), sort_keys=True, indent=2, allow_nan=False)
    assert cli._json_text(payload) == expected + "\n"


def test_json_writer_leaves_no_reference_cycle():
    # A cycle would keep each output's pieces until a full collection: peak
    # memory then grows with the number of reports written.
    gc.collect()
    gc.disable()
    try:
        cli.report_to_json({"a": [1.0, {"b": None, "c": math.inf}], "d": "e"})
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestStackedPaths:
    def test_simulate_calls_no_scalar_born_rule_and_stacked_fidelities(self, monkeypatch):
        calls = Counter()
        for module, name in ((measure, "coincidence_prob"), (measure, "correlation"),
                             (qstate, "fidelity")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        def run(times):
            cfg = small_config()
            cfg.update(n_mc_sets=0, storage_times_s=times)
            calls.clear()
            cli.run_simulate(cli.load_scenario(cfg))
            return Counter(calls)

        two, ten = run([0.0, 1e-6]), run([i * 2e-7 for i in range(10)])
        for got in (two, ten):
            assert got["coincidence_prob"] == 0 and got["correlation"] == 0
        assert 0 < two["fidelity"] == ten["fidelity"]

    def test_bundled_run_certifies_without_eigvalsh(self, monkeypatch):
        callers, eigvalsh = Counter(), np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            callers[sys._getframe(1).f_code.co_name] += 1
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        cli.run_simulate(cli.load_scenario(cli.default_config()))
        assert callers["check_density_matrix"] > 0 and callers["_certified"] == 0

    def test_bell_columns_take_no_eigendecomposition(self, monkeypatch):
        bell, fidelity = qstate.bell_phi_plus(), qstate.fidelity
        inside, seen = [], Counter()

        def spy_fidelity(a, b):
            target = qstate.projector(a) if np.ndim(a) == 1 else a
            inside.append(np.shape(target) == (4, 4) and np.allclose(target, bell))
            seen["bell" if inside[-1] else "other"] += 1
            try:
                return fidelity(a, b)
            finally:
                inside.pop()

        def counted(name, fn):
            def spy(*args, **kwargs):
                seen[name] += bool(inside and inside[-1])
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(qstate, "fidelity", spy_fidelity)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        cli.run_simulate(cli.load_scenario(cli.default_config()))
        # fidelity_vs_bell, mle_fidelity_vs_bell and the mc blocks; then
        # process_fidelity and mle_fidelity_vs_true.
        assert (seen["bell"], seen["other"]) == (3, 2)
        assert seen["eigh"] == seen["eigvalsh"] == 0

    def test_visibilities_are_one_evaluation(self, monkeypatch):
        calls, visibilities = [], measure._visibilities
        monkeypatch.setattr(measure, "_visibilities",
                            lambda rho, bases: calls.append(bases) or visibilities(rho, bases))
        sc = cli.load_scenario(cli.default_config())
        report = cli.run_simulate(sc)
        assert calls == [("HV", "PM", "RL")]
        rho_in = channel.input_state(sc.source)
        assert report["analytic"]["input"]["visibility"] == {
            b: measure.visibility(rho_in, b) for b in ("HV", "PM", "RL")}

    def test_report_builds_no_projectors(self, monkeypatch):
        sc = cli.load_scenario(cli.default_config())
        cli.run_simulate(sc)  # warm-up: tomo.make_settings builds its scheme once
        calls = Counter()
        for module in (measure, tomo):
            for name in ("joint_projectors", "setting_from_labels"):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        cli.run_simulate(sc)
        assert calls == Counter()

    def test_a_new_master_seed_reuses_the_model_half(self, monkeypatch):
        sc = cli.load_scenario(cli.default_config())
        warm = cli.run_simulate(sc)
        calls = Counter()
        for module, name in ((channel, "store_retrieve"), (registers, "expected_crosstalk"),
                             (measure, "visibilities")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        again = cli.run_simulate(dataclasses.replace(sc, master_seed=sc.master_seed + 1))
        assert calls == Counter()
        assert again["analytic"] == warm["analytic"]
        assert again["seeds"] != warm["seeds"]
        cli.run_simulate(dataclasses.replace(
            sc, channel=dataclasses.replace(sc.channel, tau_s=2.0 * sc.channel.tau_s)))
        # One evaluation of each: expected_crosstalk is called once per register pair.
        assert calls == {"store_retrieve": 1, "visibilities": 1, "expected_crosstalk": 6}

    def test_two_capacity_commands_validate_once(self, monkeypatch, capsys):
        calls, load = [], cli.load_scenario
        monkeypatch.setattr(cli, "load_scenario", lambda cfg: calls.append(cfg) or load(cfg))
        assert cli.main(["capacity"]) == cli.main(["capacity"]) == cli.EXIT_OK
        assert len(calls) == 1
        assert capsys.readouterr().out == "240.6\n240.6\n"


def scan_config(times) -> dict:
    return {**small_config(), "n_mc_sets": 0, "storage_times_s": times}


def model_half(sc):
    """The cached model half of a Scenario, as run_simulate asks for it."""
    inputs = (sc.storage_times_s, sc.geometry, sc.eit, sc.source, sc.channel)
    return cli._model(repr(inputs), *inputs)


class TestScenarioCaches:
    def test_a_rewritten_config_file_is_read_anew(self, tmp_path, capsys):
        path, cfg = tmp_path / "scenario.yaml", cli.default_config()
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["capacity", "--config", str(path)]) == cli.EXIT_OK
        cfg["geometry"]["signal_waist_m"] *= 2.0
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["capacity", "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "240.6\n481.1\n"

    @pytest.mark.parametrize("text,message", [
        ("geometry: [unclosed\n", "while parsing a flow sequence"),
        ("master_seed: 1\n", "tomo_scheme: missing required field"),
    ], ids=["yaml", "schema"])
    def test_a_bad_config_file_fails_on_every_call(self, text, message, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        errors = []
        for command in ("capacity", "chsh", "capacity"):
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_VALIDATION
            out, err = capsys.readouterr()
            assert out == "" and message in err
            errors.append(err)
        assert errors[0] == errors[1] == errors[2]
        path.write_text(yaml.safe_dump(cli.default_config()))
        assert cli.main(["capacity", "--config", str(path)]) == cli.EXIT_OK

    def test_a_seed_fills_a_missing_master_seed_on_every_call(self, tmp_path, capsys):
        cfg = scan_config([0.0])
        del cfg["master_seed"]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        for _ in range(2):
            assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
            assert capsys.readouterr().err == "error: master_seed: missing required field\n"
            assert cli.main(["simulate", "--config", str(path), "--seed", "3"]) == cli.EXIT_OK
            assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 3

    def test_edits_to_a_report_reach_no_later_report(self):
        sc = cli.load_scenario(scan_config([0.0, 1e-6]))
        first = cli.run_simulate(sc)
        clean = cli.report_to_json(first)
        first["analytic"]["storage"][0]["efficiency"] = -1.0
        first["analytic"]["storage"][0]["t_s"] = 5.0
        first["analytic"]["input"]["visibility"]["HV"] = 2.0
        first["analytic"]["input"]["visibility"].clear()
        assert cli.report_to_json(cli.run_simulate(sc)) == clean
        assert cli._model.cache_info().hits == 1

    def test_the_model_half_is_read_only(self):
        sc = cli.load_scenario(scan_config([0.0, 1e-6]))
        cli.run_simulate(sc)
        model = model_half(sc)
        assert cli._model.cache_info().hits == 1
        for array in (model.rho_true, model.input_visibility, *model.every.values(),
                      *model.storage.values()):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0
        for columns in (model.scalars, model.every, model.storage):
            with pytest.raises(TypeError):
                columns["mode_capacity"] = 0.0

    def test_alternating_scan_configs_keep_one_entry_each(self, tmp_path, capsys):
        paths = []
        for i, times in enumerate(([0.0, 1e-6], [0.0, 2e-6])):
            paths.append(tmp_path / f"scan{i}.yaml")
            paths[-1].write_text(yaml.safe_dump(scan_config(times)))
        outputs = []
        for _ in range(2):
            for path in paths:
                assert cli.main(["simulate", "--config", str(path), "--seed", "5"]) == cli.EXIT_OK
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:] and outputs[0] != outputs[1]
        assert cli._config.cache_info().currsize == cli._model.cache_info().currsize == 1

    def test_a_negative_zero_eta0_gets_its_own_model_half(self):
        efficiencies = []
        for eta0 in (0.0, -0.0):
            cfg = scan_config([0.0, 1e-6])
            cfg["channel"]["eta0"] = eta0
            report = cli.run_simulate(cli.load_scenario(cfg))
            efficiencies.append([math.copysign(1.0, s["efficiency"])
                                 for s in report["analytic"]["storage"]])
        assert efficiencies == [[1.0, 1.0], [-1.0, -1.0]]


# The keys of each report track row.  Analytic rows share three keys; the input
# row adds its per-basis visibilities, and storage rows their channel values.
ANALYTIC_KEYS = {"chsh_s", "fidelity_vs_bell", "mean_visibility"}
ANALYTIC_INPUT_KEYS = ANALYTIC_KEYS | {"visibility"}
ANALYTIC_STORAGE_KEYS = ANALYTIC_KEYS | {"t_s", "efficiency", "coinc_prob", "signal_fraction",
                                         "process_fidelity"}
STATISTICAL_KEYS = {"mle_fidelity_vs_bell", "mle_fidelity_vs_true", "mle_iterations",
                    "total_counts"}


class TestTrackKeys:
    @pytest.mark.parametrize("n_mc_sets", [0, 2])
    def test_each_track_row_has_its_keys(self, n_mc_sets):
        cfg = {**small_config(), "n_mc_sets": n_mc_sets}
        report = cli.run_simulate(cli.load_scenario(cfg))
        analytic, statistical = report["analytic"], report["statistical"]
        stat_keys = STATISTICAL_KEYS | ({"mc"} if n_mc_sets else set())
        assert set(analytic["input"]) == ANALYTIC_INPUT_KEYS
        assert set(statistical["input"]) == stat_keys
        assert len(analytic["storage"]) == len(statistical["storage"]) == 2
        for a, s in zip(analytic["storage"], statistical["storage"]):
            assert set(a) == ANALYTIC_STORAGE_KEYS
            assert set(s) == stat_keys | {"t_s"}
            assert s["t_s"] == a["t_s"]
        assert [a["t_s"] for a in analytic["storage"]] == cfg["storage_times_s"]


# Report paths that deliberately carry no provenance tag.
UNTAGGED = {"analytic.input.visibility", "analytic.input.mean_visibility"}


def leaf_paths(tree, path: str):
    """The dotted path of every leaf of a report tree; list items get [i]."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaf_paths(value, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from leaf_paths(value, f"{path}[{i}]")
    else:
        yield path


def covers(path: str, leaf: str) -> bool:
    return leaf == path or leaf.startswith((f"{path}.", f"{path}["))


class TestProvenance:
    @pytest.fixture(scope="class")
    def default_report(self):
        return cli.run_simulate(cli.load_scenario(cli.default_config()))

    def test_report_carries_the_table(self, default_report):
        assert default_report["provenance"] == cli.PROVENANCE
        assert set(cli.PROVENANCE.values()) == {cli.PROV_MEASURED, cli.PROV_DERIVED}

    def test_every_tagged_path_is_a_report_key(self, default_report):
        for path in [*cli.PROVENANCE, *UNTAGGED]:
            node = default_report
            for key in path.split("."):
                assert isinstance(node, dict) and key in node, path
                node = node[key]

    def test_every_leaf_is_tagged_or_named_untagged(self, default_report):
        leaves = [leaf for block in ("analytic", "statistical")
                  for leaf in leaf_paths(default_report[block], block)]
        for leaf in leaves:
            tagged = [path for path in cli.PROVENANCE if covers(path, leaf)]
            untagged = [path for path in UNTAGGED if covers(path, leaf)]
            assert len(tagged) + len(untagged) == 1, (leaf, tagged, untagged)
        for path in UNTAGGED:
            assert any(covers(path, leaf) for leaf in leaves), path

    def test_editing_a_report_provenance_leaves_the_next_report(self):
        sc = cli.load_scenario({**small_config(), "n_mc_sets": 0})
        first = cli.run_simulate(sc)
        kept = dict(first["provenance"])
        first["provenance"]["statistical"] = "edited"
        first["provenance"]["edited"] = cli.PROV_MEASURED
        assert cli.run_simulate(sc)["provenance"] == kept


class TestCommands:
    def test_capacity(self, capsys):
        assert cli.main(["capacity"]) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == "240.6"

    def test_chsh_states(self, capsys):
        assert cli.main(["chsh", "--state", "bell"]) == cli.EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(2 * math.sqrt(2), abs=1e-5)
        assert cli.main(["chsh", "--state", "bell", "--convention", "textbook"]) == cli.EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-6)
        assert cli.main(["chsh", "--state", "werner:0.5"]) == cli.EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(math.sqrt(2), abs=1e-5)
        assert cli.main(["chsh", "--state", "input"]) == cli.EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(2.526, abs=1e-3)

    def test_chsh_rejects_unknown_state(self, capsys):
        assert cli.main(["chsh", "--state", "ghz"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("state", ["werner:abc", "werner:nan", "werner:1.5"])
    def test_chsh_bad_werner_weight_names_the_flag(self, state, capsys):
        assert cli.main(["chsh", "--state", state]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --state: ")

    @pytest.mark.parametrize("argv", [["--rabi-hz", "nan"], ["--gamma-gs-hz", "nan"],
                                      ["--span-hz", "nan"], ["--span-hz", "inf"],
                                      ["--span-hz", "0"], ["--span-hz=-1e6"],
                                      ["--rabi-hz", "inf"], ["--gamma-gs-hz", "inf"],
                                      ["--span-hz", "1e308"], ["--span-hz", "1e200"]])
    def test_eit_rejects_nan_and_bad_span(self, argv, capsys):
        assert cli.main(["eit", "--points", "5", *argv]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_simulate_at_large_od(self, tmp_path, capsys):
        cfg = small_config()
        cfg["eit"]["od"] = 1.0e4
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["analytic"]["eit_fwhm_hz"] == pytest.approx(72.56e3, rel=1e-3)

    @pytest.mark.parametrize("argv", [["eit", "--rabi-hz", "1e160"], ["simulate"]],
                             ids=["eit", "simulate"])
    def test_overflow_is_one_error_line(self, argv, tmp_path, capsys):
        # A finite rate of 1e160 Hz passes validation; its square does not fit a float.
        cfg = cli.default_config()
        cfg["eit"]["rabi_hz"] = 1.0e160
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        extra = ["--config", str(path)] if argv == ["simulate"] else []
        assert cli.main([*argv, *extra]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: numeric overflow: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_eit_points_must_be_positive(self, points, capsys):
        assert cli.main(["eit", "--points", points]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --points: must be a positive integer, got {points}\n"

    def test_eit_infinite_od_fails_outside_the_warning_filter(self):
        # A fresh interpreter with default warning filters: before the check,
        # this printed nan phases with a RuntimeWarning and exited 0.
        proc = subprocess.run([sys.executable, "-c", _MAIN, TestImports.SRC,
                               "eit", "--od", "inf", "--points", "3"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "error: eit.od: expected a finite number, got inf\n"

    @pytest.mark.parametrize("argv,message", [
        (["eit", "--span-hz", "1e200", "--points", "3"],
         "--span-hz: must be positive with a finite square, got 1e+200"),
        (["fit", "--kind", "vis", "--tau-s", "3e-8", "--data", DECAY_CSV],
         "the model or J^T J of its Jacobian is not finite at the start "
         "a=7.05564, b=2.76526e-230, tau=3e-08"),
        (["fit", "--kind", "vis", "--tau-s", "3e-8", "--float-tau", "--data", DECAY_CSV],
         "the model or J^T J of its Jacobian is not finite at the start "
         "a=7.05564, b=2.76526e-230, tau=3e-08"),
        (["eit", "--span-hz", "1e150", "--gamma-gs-hz", "1e200", "--points", "3"],
         "--span-hz: times eit.gamma_gs_hz 1e+200 must be finite, got 1e+150"),
        (["eit", "--gamma-gs-hz", "1e303", "--points", "3"],
         "eit: excited-state decay times ground-state decoherence must be finite, "
         f"got {BUNDLED.eit.gamma_e_hz} * 1e+303"),
    ], ids=["eit-span", "fit-vis", "fit-vis-float-tau", "eit-span-cross-term",
            "eit-rate-product"])
    def test_overflowing_input_fails_outside_the_warning_filter(self, argv, message):
        # Each exited 0 with a RuntimeWarning, or failed inside numpy's eigh:
        # a span whose square overflows, a fit start with a finite Jacobian
        # (largest entry 6.4e230) whose J^T J overflows, and line-shape cross
        # terms (delta gamma_gs, Gamma gamma_gs) that overflow though each
        # value and the span's square fit.
        proc = subprocess.run([sys.executable, "-c", _MAIN, TestImports.SRC, *argv],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
        assert proc.stderr == f"error: {message}\n"

    def test_eit_without_control_field_prints_the_absorption_line(self, capsys):
        # No transparency window, but the spectrum itself is well defined: at
        # line centre T = exp(-OD).
        assert cli.main(["eit", "--rabi-hz", "0", "--points", "3"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        rows = [[float(x) for x in row.split(",")] for row in out.splitlines()[1:]]
        assert err == "" and len(rows) == 3
        assert rows[1][1] == pytest.approx(math.exp(-BUNDLED.eit.od), rel=1e-9)
        assert rows[0][1] == rows[2][1] > rows[1][1]

    def test_eit_follows_the_bundled_scenario(self, monkeypatch, capsys):
        def run(*argv):
            assert cli.main(["eit", "--points", "5", *argv]) == cli.EXIT_OK
            return capsys.readouterr().out

        bundled = run()
        cfg = cli.default_config()
        cfg["eit"]["od"] = 20
        monkeypatch.setattr(cli, "default_config", lambda: copy.deepcopy(cfg))
        assert run() == run("--od", "20") != bundled

    def test_eit_csv(self, tmp_path):
        out = tmp_path / "eit.csv"
        assert cli.main(["eit", "--out", str(out)]) == cli.EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "delta_hz,transmission,phase_rad"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        # The transparency window peaks on resonance (locally: transmission
        # recovers again far outside the absorption lines) and sits well
        # above the two-level floor exp(-od).
        mid = data[np.abs(data[:, 0]).argmin()]
        near = data[np.abs(data[:, 0]) < 3e6]
        assert mid[1] >= near[:, 1].max() - 1e-9
        assert mid[1] > 100 * math.exp(-10.0)
        assert np.all((data[:, 1] >= 0) & (data[:, 1] <= 1))

    def test_crosstalk_csv(self, tmp_path):
        out = tmp_path / "xt.csv"
        assert cli.main(["crosstalk", "--out", str(out)]) == cli.EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "i,j,overlap_re,overlap_im,expected,stderr"
        assert len(rows) == 1 + 6  # 4 choose 2 pairs

    def test_crosstalk_rows_read_one_matrix(self, capsys):
        assert cli.main(["crosstalk", "--seed", "17"]) == cli.EXIT_OK
        g = cli.load_scenario(cli.default_config()).geometry
        modes = registers.spin_wave_vectors(g)
        c = registers.crosstalk_matrix(modes, g, seed=child_seed(17, "crosstalk", 0))
        rows = capsys.readouterr().out.splitlines()[1:]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert [tuple(int(x) for x in row.split(",")[:2]) for row in rows] == pairs
        for row, (i, j) in zip(rows, pairs):
            re_, im_ = row.split(",")[2:4]
            assert (re_, im_) == (f"{c[i, j].real:.6e}", f"{c[i, j].imag:.6e}")

    def test_fit_bundled_data(self, capsys):
        assert cli.main(["fit", "--kind", "exp"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["params"]["tau"] == pytest.approx(2.8e-6, rel=0.1)

    @pytest.mark.parametrize("tau", ["1e300", "1e200"])
    def test_fit_float_tau_huge_start_is_quiet(self, tau, capsys):
        # The start was evaluated outside the solver's errstate, so tau ** 2
        # overflowed with a RuntimeWarning (an error under the test filters).
        assert cli.main(["fit", "--kind", "vis", "--float-tau", "--tau-s", tau,
                         "--data", DECAY_CSV]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_fit_visibility_requires_tau(self, capsys):
        assert cli.main(["fit", "--kind", "vis"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("float_tau", [[], ["--float-tau"]], ids=["fixed", "float"])
    def test_fit_visibility_requires_data(self, float_tau, capsys):
        # The bundled CSV holds efficiencies: fitting V = 1/(a + b exp(2t/tau)) to
        # them printed a = 10.88, b = 0.668 and t_star_s "inf", and exited 0.
        assert cli.main(["fit", "--kind", "vis", "--tau-s", "2.8e-6", *float_tau]) \
            == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --data: ")

    @pytest.mark.parametrize("float_tau", [[], ["--float-tau"]], ids=["fixed", "float"])
    @pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan"])
    def test_fit_visibility_names_a_bad_tau(self, tau, float_tau, capsys):
        # fitkit's own message names no flag.
        assert cli.main(["fit", "--kind", "vis", f"--tau-s={tau}", *float_tau]) \
            == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: --tau-s: must be finite and positive, "
                                     f"got {float(tau)!r}\n")

    @pytest.mark.parametrize("argv,flag", [(["--tau-s", "1e-6"], "--tau-s"),
                                           (["--float-tau"], "--float-tau")])
    def test_fit_exp_rejects_visibility_flags(self, argv, flag, capsys):
        assert cli.main(["fit", "--kind", "exp", *argv]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag}: applies only to --kind vis\n"

    @pytest.mark.parametrize("argv", [[], ["--float-tau"]])
    def test_fit_visibility_names_a_non_finite_start(self, argv, capsys):
        # exp(2t/tau) overflows over the bundled data's 8 us at tau = 10 ns.
        assert cli.main(["fit", "--kind", "vis", "--tau-s", "1e-8", "--data", DECAY_CSV, *argv]) \
            == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: the model or J^T J of its Jacobian is not finite "
                                     "at the start a=7.05564, b=0, tau=1e-08\n")

    FIT_ROWS = "t_s,y,sigma\n0.0,0.15,0.01\n1e-6,0.10,0.01\n2e-6,0.07,0.01\n"

    @pytest.mark.parametrize("row,message", [("nan,0.05,0.01", "t must be finite, got nan"),
                                             ("3e-6,nan,0.01", "y must be finite, got nan"),
                                             ("3e-6,0.05,inf", "sigma must be finite, got inf")])
    def test_fit_rejects_non_finite_data(self, row, message, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text(self.FIT_ROWS + row + "\n")
        assert cli.main(["fit", "--data", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: row 4: {message}\n"

    @pytest.mark.parametrize("row", ["3e-6,0.05", "3e-6,0.05,0.01,7"])
    def test_fit_names_the_line_of_a_short_row(self, row, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text(self.FIT_ROWS + row + "\n")
        assert cli.main(["fit", "--data", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --data: line 5: expected 3 fields")

    def test_simulate_to_file_and_seed_override(self, tmp_path):
        cfg = small_config()
        cfg["n_mc_sets"] = 0
        cfg["storage_times_s"] = [0.0]
        cfg_path = tmp_path / "scenario.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        out_c = tmp_path / "c.json"
        for out, extra in ((out_a, []), (out_b, []), (out_c, ["--seed", "99"])):
            rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)] + extra)
            assert rc == cli.EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()
        assert json.loads(out_c.read_text())["config"]["master_seed"] == 99

    def test_tomo_subcommand(self, tmp_path, capsys):
        rho = channel.input_state(BUNDLED.source)
        ts = tomo.make_settings(36)
        counts = measure.sample_counts(rho, list(ts.settings), 50000, 0.04, seed=12)
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(counts))
        assert cli.main(["tomo", "--counts", str(path), "--mc-sets", "4"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["fidelity_vs_target"] == pytest.approx(
            qstate.fidelity(rho, qstate.bell_phi_plus()), abs=0.03)
        assert payload["mc"]["n_sets"] == 4
        for bad in ("1", "-2"):
            argv = ["tomo", "--counts", str(path), "--mc-sets", bad]
            assert cli.main(argv) == cli.EXIT_VALIDATION
        qstate.check_density_matrix(qstate.density_from_json(payload["rho_hat"]),
                                    atol=qstate.CHANNEL_ATOL)
        _, (stack,), (failed,) = tomo.reconstruct_with_mc(counts[None], np.ones((1, 36)), ts,
                                                          4, [0])
        mc = qstate.fidelity(qstate.PHI_PLUS, stack)
        assert payload["mc"] == {"mean": float(mc.mean()), "std": float(mc.std(ddof=1)),
                                 "n_sets": 4, "nonconverged": int(failed)}

    def test_tomo_sparse_counts_with_resamples(self, tmp_path, capsys):
        # 3 counts in the H/V group: some of the 100 resamples draw none there.
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(np.array(SPARSE_PAIR[0], dtype=float)))
        argv = ["tomo", "--counts", str(path), "--mc-sets", "100", "--seed", "0"]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] and payload["mc"]["n_sets"] == 100
        assert 0.0 <= payload["mc"]["mean"] <= 1.0

    def test_tomo_names_an_empty_resample(self, tmp_path, capsys):
        # One count in all: each resample is empty with probability e^-1.
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(np.eye(36)[0]))
        argv = ["tomo", "--counts", str(path), "--mc-sets", "10", "--seed", "0"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --counts: Monte Carlo resample 4 of count set 0 drew no counts\n"

    @pytest.mark.parametrize("mc_sets", ["0", "5"])
    def test_tomo_names_an_all_zero_csv(self, mc_sets, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(np.zeros(36)))
        assert cli.main(["tomo", "--counts", str(path), "--mc-sets", mc_sets]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: --counts: total counts must be positive\n")

    def test_tomo_names_counts_above_the_poisson_limit(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(np.r_[np.full(24, 1e30), np.zeros(12)]))
        assert cli.main(["tomo", "--counts", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["tomo", "--counts", str(path), "--mc-sets", "5"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: --counts: counts above 9.22337e+18 cannot be "
                                           "resampled\n")

    def test_tomo_target_from_json(self, tmp_path, capsys):
        target = qstate.werner(0.8)
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(counts))
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(qstate.density_to_json(target)))
        payloads = {}
        for name in (str(target_path), "bell"):
            argv = ["tomo", "--counts", str(path), "--target", name, "--mc-sets", "6",
                    "--seed", "4"]
            assert cli.main(argv) == cli.EXIT_OK
            payloads[name] = json.loads(capsys.readouterr().out)
        payload, bell = payloads[str(target_path)], payloads["bell"]
        points, stack, _ = tomo.reconstruct_with_mc(counts[None], np.ones((1, 36)), TS36,
                                                    6, [4])
        fid = qstate.fidelity(target, stack[0])
        assert payload["fidelity_vs_target"] == qstate.fidelity(target, points[0].rho_hat)
        assert (payload["mc"]["mean"], payload["mc"]["std"]) == (fid.mean(), fid.std(ddof=1))
        assert payload["rho_hat"] == bell["rho_hat"]
        for key in ("mean", "std"):
            assert payload["mc"][key] != bell["mc"][key]
        assert payload["fidelity_vs_target"] != bell["fidelity_vs_target"]

    @pytest.mark.parametrize("target", [{"dim": 4}, [1.0, 0.0], {"dim": None, "re": [], "im": []},
                                        {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]],
                                         "im": [[0.0, 0.0], [0.0, 0.0]]},
                                        {"dim": 0, "re": [], "im": []}],
                             ids=["no-re", "list", "null-dim", "dim-2", "dim-0"])
    def test_tomo_rejects_malformed_target(self, target, tmp_path, capsys):
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(counts))
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(target))
        argv = ["tomo", "--counts", str(path), "--target", str(target_path)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --target: malformed JSON density matrix: ")
        assert captured.out == ""

    @pytest.mark.parametrize("text,message", [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        (None, "[Errno 2] No such file or directory: {path!r}")], ids=["not-json", "missing"])
    def test_tomo_names_target_file_faults(self, text, message, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(counts_csv(np.full(36, 100)))
        target_path = tmp_path / "target.json"
        if text is not None:
            target_path.write_text(text)
        argv = ["tomo", "--counts", str(path), "--target", str(target_path)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        message = message.format(path=str(target_path))
        assert capsys.readouterr() == ("", f"error: --target: {message}\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: [rows[0], "HH,-1,1.0", *rows[2:]],
         "count CSV line 2: counts must be >= 0, got -1"),
        (lambda rows: [rows[0], rows[2], rows[1], *rows[3:]],
         "count CSV line 2: label 'HV' does not match setting 'HH'"),
        (lambda rows: rows[:-1], "count CSV line 36: 35 rows for 36 settings"),
        (lambda rows: [*rows, rows[-1]], "count CSV line 38: 37 rows for 36 settings"),
        (lambda rows: [rows[0], "HH," + "9" * 400 + ",1.0", *rows[2:]],
         "count CSV line 2: int too large to convert to float"),
    ], ids=["negative-count", "swapped-labels", "missing-row", "extra-row", "huge-count"])
    def test_tomo_names_the_line_of_a_bad_csv(self, edit, message, tmp_path, capsys):
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        path = tmp_path / "counts.csv"
        path.write_text("".join(row + "\n" for row in edit(counts_csv(counts).splitlines())))
        assert cli.main(["tomo", "--counts", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --counts: {message}\n")

    def test_tomo_rejects_infinite_duration(self, tmp_path, capsys):
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        text = counts_csv(counts).replace(",1.0\n", ",inf\n", 1)
        path = tmp_path / "counts.csv"
        path.write_text(text)
        assert cli.main(["tomo", "--counts", str(path)]) == cli.EXIT_VALIDATION
        assert "duration must be finite and positive, got inf" in capsys.readouterr().err

    # The shared flags each subcommand reads; it rejects the others.
    SHARED_FLAGS = {"simulate": ("--config", "--out", "--seed"), "capacity": ("--config", "--out"),
                    "eit": ("--out",), "chsh": ("--config", "--out"),
                    "crosstalk": ("--config", "--out", "--seed"), "fit": ("--out",),
                    "tomo": ("--out", "--seed")}

    @staticmethod
    def flag_values(tmp_path) -> dict:
        """A valid value for each shared flag, and each command's required arguments."""
        cfg = small_config()
        cfg["n_mc_sets"] = 0
        cfg["storage_times_s"] = [0.0]
        (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(cfg))
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        (tmp_path / "counts.csv").write_text(counts_csv(counts))
        return {"--config": str(tmp_path / "scenario.yaml"), "--out": str(tmp_path / "out"),
                "--seed": "4", "tomo": ["--counts", str(tmp_path / "counts.csv")]}

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, kept in SHARED_FLAGS.items()
        for flag in ("--config", "--out", "--seed") if flag not in kept])
    def test_unread_shared_flags_exit_validation(self, command, flag, tmp_path, capsys):
        values = self.flag_values(tmp_path)
        argv = [command, *values.get(command, []), flag, values[flag]]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
    def test_read_shared_flags_accepted(self, command, tmp_path, capsys):
        values = self.flag_values(tmp_path)
        argv = [command, *values.get(command, [])]
        for flag in self.SHARED_FLAGS[command]:
            argv += [flag, values[flag]]
        assert cli.main(argv) == cli.EXIT_OK
        assert (tmp_path / "out").read_text() and capsys.readouterr().out == ""

    def test_unknown_arguments_exit_validation(self, capsys):
        assert cli.main(["simulate", "--bogus"]) == cli.EXIT_VALIDATION
        assert cli.main(["simulate", "--workers", "2"]) == cli.EXIT_VALIDATION
        assert cli.main(["nosuchcommand"]) == cli.EXIT_VALIDATION

    def test_missing_config_file(self, capsys):
        assert cli.main(["capacity", "--config", "/nonexistent.yaml"]) == cli.EXIT_VALIDATION

    @staticmethod
    def no_such_file(flag: str, path) -> tuple[str, str]:
        return "", f"error: {flag}: [Errno 2] No such file or directory: {str(path)!r}\n"

    @pytest.mark.parametrize("command", [["simulate"], ["capacity"], ["crosstalk"],
                                         ["chsh", "--state", "input"]])
    def test_missing_config_names_the_flag(self, command, tmp_path, capsys):
        path = tmp_path / "absent.yaml"
        assert cli.main([*command, "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == self.no_such_file("--config", path)

    def test_missing_counts_names_the_flag(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert cli.main(["tomo", "--counts", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == self.no_such_file("--counts", path)

    def test_missing_data_names_the_flag(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert cli.main(["fit", "--data", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == self.no_such_file("--data", path)

    @pytest.mark.parametrize("command", [["capacity"], ["fit"], ["chsh", "--state", "bell"]])
    def test_unwritable_out_names_the_flag(self, command, tmp_path, capsys):
        path = tmp_path / "absent-dir" / "out.txt"
        assert cli.main([*command, "--out", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == self.no_such_file("--out", path)

    def test_unwritable_out_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the solve ran before --out was checked")
        monkeypatch.setattr(tomo, "reconstruct_with_mc", solve)
        path = tmp_path / "absent-dir" / "r.json"
        assert cli.main(["simulate", "--out", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == self.no_such_file("--out", path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_later_failure_leaves_out_as_it_was(self, existing, tmp_path, capsys):
        path, out = tmp_path / "scenario.yaml", tmp_path / "r.json"
        path.write_text(yaml.safe_dump({**cli.default_config(), "n_trials": 10**21}))
        if existing:
            out.write_bytes(b"kept\n")
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: n_trials: ")
        assert out.read_bytes() == b"kept\n" if existing else not out.exists()

    # Keys that no output read, with the values they held.
    RETIRED_KEYS = {"geometry.temperature_k": 140e-6, "source.pair_rate_hz": 33.0}

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_key_is_unknown(self, key, tmp_path, capsys):
        cfg, (section, name) = cli.default_config(), key.split(".")
        cfg[section][name] = self.RETIRED_KEYS[key]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {key}: unknown field\n"

    def test_config_not_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        argv = ["simulate", "--config", str(path), "--seed", "3"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "<root>: missing or not a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["capacity"], ["crosstalk"],
                                         ["chsh", "--state", "input"]])
    def test_malformed_yaml_exits_validation(self, command, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [1, 2\n")
        assert cli.main([*command, "--config", str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and captured.out == ""

    @pytest.mark.parametrize("command", [["simulate"], ["capacity"]])
    @pytest.mark.parametrize("nested", [False, True], ids=["top-level", "nested"])
    def test_duplicate_yaml_key_exits_validation(self, command, nested, tmp_path, capsys):
        # PyYAML alone keeps the last value of a repeated key.
        text = yaml.safe_dump(cli.default_config())
        text = text.replace("geometry:\n", "geometry:\n  atom_count: 5\n") if nested \
            else text + "n_trials: 7\n"
        key = "atom_count" if nested else "n_trials"
        line = [i for i, row in enumerate(text.splitlines(), start=1)
                if row.strip().startswith(f"{key}:")][1]
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert cli.main([*command, "--config", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: duplicate key '{key}'\n")
        assert f"line {line}, column" in err

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_loader_gives_the_pure_python_tree(self):
        assert issubclass(cli._YamlLoader, yaml.CSafeLoader)
        bundled = (Path(cli.__file__).parent / "data" / "default_scenario.yaml").read_text()
        scan = cli.default_config()
        scan["n_mc_sets"] = 0
        scan["storage_times_s"] = [float(f"{i * 0.2:.1f}e-6") for i in range(41)]
        for text in (bundled, yaml.safe_dump(scan, sort_keys=True)):
            # Compared as JSON text, so that 1 and 1.0 or True and 1 differ.
            fast, pure = (yaml.load(text, Loader=loader)
                          for loader in (cli._YamlLoader, yaml.SafeLoader))
            assert json.dumps(fast, sort_keys=True) == json.dumps(pure, sort_keys=True)
        assert cli.default_config() == yaml.safe_load(bundled)

    def test_one_parser_serves_successive_calls(self, capsys):
        calls = [["capacity"], ["chsh", "--state", "werner:0.7"], ["simulate", "--bogus"],
                 ["eit", "--points", "11", "--od", "4"], ["nosuchcommand"],
                 ["chsh", "--state", "bell", "--convention", "textbook"], ["capacity"]]

        def run(argv):
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            return rc, out, err

        assert cli.build_parser() is cli.build_parser()
        reused = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, 0, 1, 0, 1, 0, 0]

    def test_every_option_has_help_of_its_own(self):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        names = set(subparsers.choices)
        assert names == {"simulate", "capacity", "eit", "chsh", "crosstalk", "fit", "tomo"}
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if "-h" in action.option_strings:
                    continue
                flag = f"{name} {action.option_strings[0]}"
                assert action.help and action.help.strip(), f"{flag} has no help"
                words = set(re.findall(r"[a-z]+", action.help.lower()))
                assert not words & (names - {name}), f"{flag} help names another subcommand"


# Run in a fresh interpreter, so modules the test session already loaded do
# not count, with every scipy import raising ImportError.  argv[1] is the
# directory holding the holomem package; argv[2] maps output paths to command
# lines, in JSON.  Prints each command's exit code and the scipy imports tried.
_WITHOUT_SCIPY = """
import json
import sys

tried = []


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            tried.append(name)
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[1])
import holomem.cli as cli
codes = {out: cli.main([*argv, "--out", out]) for out, argv in json.loads(sys.argv[2]).items()}
print(json.dumps({"codes": codes, "tried": tried}))
"""

# Run `holomem` in a fresh interpreter with default warning filters.  argv[1]
# is the directory holding the holomem package; the rest is the command line.
_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
import holomem.cli as cli
sys.exit(cli.main(sys.argv[2:]))
"""


class TestImports:
    SRC = str(Path(cli.__file__).resolve().parents[1])

    def _run_without_scipy(self, blocked, commands):
        argv = {str(blocked / out): command for out, command in commands.items()}
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, self.SRC, json.dumps(argv)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": dict.fromkeys(argv, cli.EXIT_OK),
                                           "tried": []}, proc.stderr
        assert proc.stderr == ""

    def test_simulate_never_imports_scipy(self, tmp_path):
        self._run_without_scipy(tmp_path, {"report.json": ["simulate"]})
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["analytic"]["eit_fwhm_hz"] > 0.0

    def test_every_command_runs_without_scipy(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(counts_csv(measure.sample_counts(
            qstate.bell_phi_plus(), list(TS36.settings), 50000, 0.04, seed=12)))
        vis = tmp_path / "vis.csv"
        vis.write_text("t_s,y,sigma\n" + "".join(
            f"{t!r},{1.0 / (1.1 + 0.03 * math.exp(2.0 * t / 2.8e-6))!r},0.01\n"
            for t in np.linspace(0.0, 3e-6, 8).tolist()))
        commands = {"report.json": ["simulate"], "capacity.txt": ["capacity"],
                    "eit.csv": ["eit", "--points", "5"], "chsh.txt": ["chsh", "--state", "bell"],
                    "crosstalk.csv": ["crosstalk"], "exp.json": ["fit", "--kind", "exp"],
                    "vis.json": ["fit", "--kind", "vis", "--tau-s", "2.8e-6", "--data", str(vis)],
                    "tomo.json": ["tomo", "--counts", str(counts), "--mc-sets", "2"]}
        blocked, here = tmp_path / "blocked", tmp_path / "here"
        blocked.mkdir()
        here.mkdir()
        self._run_without_scipy(blocked, commands)
        # Byte for byte what this scipy-loading session writes.
        for out, command in commands.items():
            assert cli.main([*command, "--out", str(here / out)]) == cli.EXIT_OK
            assert (blocked / out).read_bytes() == (here / out).read_bytes(), out
        read = {out: (blocked / out).read_text() for out in commands}
        report = json.loads(read["report.json"])
        assert report["analytic"]["eit_fwhm_hz"] == pytest.approx(2.2e6, rel=0.01)
        assert read["capacity.txt"].strip() == "240.6"
        assert read["eit.csv"].splitlines()[0] == "delta_hz,transmission,phase_rad"
        assert float(read["chsh.txt"]) == pytest.approx(2 * math.sqrt(2), abs=1e-5)
        assert len(read["crosstalk.csv"].splitlines()) > 1
        exp, vis_fit = json.loads(read["exp.json"]), json.loads(read["vis.json"])
        assert exp["converged"] and vis_fit["converged"]
        assert exp["params"]["tau"] == pytest.approx(2.8e-6, rel=0.1)
        assert vis_fit["params"] == pytest.approx({"a": 1.1, "b": 0.03}, rel=1e-6)
        assert json.loads(read["tomo.json"])["fidelity_vs_target"] == pytest.approx(1.0, abs=0.03)
