import copy
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from holomem import channel, cli, measure, qstate, tomo

TS36 = tomo.make_settings(36)


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
        assert sc.tomo_scheme == "36"
        assert sc.channel.eta0 == 0.15
        assert sc.channel.tau_s == pytest.approx(2.8e-6)
        assert 0.0 < sc.channel.bg_coinc < 0.01

    def test_round_trip_is_fixed_point(self):
        sc = cli.load_scenario(cli.default_config())
        cfg2 = cli.scenario_to_config(sc)
        sc2 = cli.load_scenario(cfg2)
        assert sc == sc2
        assert cli.scenario_to_config(sc2) == cfg2

    @pytest.mark.parametrize("mutate,path", [
        (lambda c: c.pop("geometry"), "geometry"),
        (lambda c: c["geometry"].pop("wavelength_m"), "geometry.wavelength_m"),
        (lambda c: c["geometry"].__setitem__("cloud_sigma_m", [1.0]), "cloud_sigma_m"),
        (lambda c: c.__setitem__("storage_times_s", [-1.0]), "storage_times_s"),
        (lambda c: c.__setitem__("tomo_scheme", 9), "tomo_scheme"),
        (lambda c: c.__setitem__("n_trials", 0), "n_trials"),
        (lambda c: c["eit"].__setitem__("rabi_hz", "fast"), "eit.rabi_hz"),
        (lambda c: c["channel"].__setitem__("eta0", 2.0), "channel"),
        pytest.param(lambda c: c["channel"].__setitem__("eta0", 0.0), "channel",
                     id="eta0-zero-calibrated-background"),
        (lambda c: c.__setitem__("n_mc_sets", 1), "n_mc_sets"),
    ])
    def test_validation_names_the_field(self, mutate, path):
        cfg = copy.deepcopy(cli.default_config())
        mutate(cfg)
        with pytest.raises(cli.ConfigError) as err:
            cli.load_scenario(cfg)
        assert path in str(err.value)

    def test_units_converted(self):
        sc = cli.load_scenario(cli.default_config())
        assert sc.eit.rabi_rad_per_s == pytest.approx(2 * math.pi * 7e6)
        assert max(sc.geometry.signal_angles_rad) == pytest.approx(math.radians(1.0))


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
        if field.default is cli.REQUIRED:
            assert self.rejected_at(cfg) == ".".join(path)
        else:
            explicit = copy.deepcopy(cfg)
            mapping_of(explicit, path)[path[-1]] = field.default
            assert cli.load_scenario(cfg) == cli.load_scenario(explicit)

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
        n_trials=draw(st.integers(1, 10 ** 6) | st.integers(1, 10 ** 6).map(float)),
        n_mc_sets=draw(st.sampled_from([0, 2]) | st.integers(2, 500)),
        input_coinc_prob=draw(pos(1e-6, 1.0)),
        storage_times_s=draw(st.lists(pos(0.0, 1e-5), min_size=1, max_size=4)),
    )
    cfg["geometry"].update(
        wavelength_m=draw(pos(1e-7, 2e-6)),
        cloud_sigma_m=draw(st.lists(pos(1e-5, 1e-2), min_size=3, max_size=3)),
        atom_count=draw(st.integers(1, 10 ** 9)),
        # Three decimals, as written by hand; most do not survive a
        # radians -> degrees round trip.
        signal_angles_deg=draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=5,
                                        unique=True).map(lambda ms: [m / 1000 for m in ms])),
    )
    cfg["eit"].update(
        od=draw(pos(0.1, 50.0)),
        rabi_hz=draw(pos(0.0, 2e7)),
        gamma_gs_hz=draw(st.just("calibrated") | pos(0.0, 2e6)),
    )
    cfg["source"].update(ratio_hv=draw(pos(8.0, 20.0)), ratio_pm=draw(pos(20.0, 40.0)))
    cfg["channel"].update(
        eta0=draw(pos(0.01, 1.0)),
        tau_s=draw(pos(1e-7, 1e-5)),
        bg_coinc=draw(st.just("calibrated") | pos(0.0, 0.1)),
    )
    for path, field in SCHEMA_FIELDS:
        if field.default is not cli.REQUIRED and draw(st.booleans()):
            del mapping_of(cfg, path)[path[-1]]
    return cfg


@settings(max_examples=50, deadline=None, database=None)
@given(valid_configs())
def test_config_round_trip_is_fixed_point(cfg):
    sc = cli.load_scenario(cfg)
    tree = cli.scenario_to_config(sc)
    assert cli.load_scenario(tree) == sc
    assert cli.scenario_to_config(cli.load_scenario(tree)) == tree


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

    def test_report_regenerates_with_unrepresentable_angles(self):
        # 1.753 degrees comes back as 1.7530000000000001 from radians.
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
                                      ["--span-hz", "0"], ["--span-hz=-1e6"]])
    def test_eit_rejects_nan_and_bad_span(self, argv, capsys):
        assert cli.main(["eit", "--points", "5", *argv]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

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

    def test_fit_bundled_data(self, capsys):
        assert cli.main(["fit", "--kind", "exp"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["params"]["tau"] == pytest.approx(2.8e-6, rel=0.1)

    def test_fit_visibility_requires_tau(self, capsys):
        assert cli.main(["fit", "--kind", "vis"]) == cli.EXIT_VALIDATION

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
        rho = channel.input_state(channel.experiment_source_params())
        ts = tomo.make_settings(36)
        counts = measure.sample_counts(rho, list(ts.settings), 50000, 0.04, seed=12)
        path = tmp_path / "counts.csv"
        path.write_text(measure.counts_to_csv(counts))
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
        mc = tomo.monte_carlo_fidelity(counts, ts, qstate.bell_phi_plus(), 4, 0)
        assert payload["mc"] == cli._mc_payload(mc)

    def test_tomo_rejects_infinite_duration(self, tmp_path, capsys):
        counts = measure.sample_counts(qstate.werner(0.9), list(TS36.settings), 5000, 0.5, 3)
        text = measure.counts_to_csv(counts).replace(",1.0\n", ",inf\n", 1)
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
        (tmp_path / "counts.csv").write_text(measure.counts_to_csv(counts))
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

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_loader_gives_the_pure_python_tree(self):
        assert cli._YAML_LOADER is yaml.CSafeLoader
        bundled = (Path(cli.__file__).parent / "data" / "default_scenario.yaml").read_text()
        scan = cli.default_config()
        scan["n_mc_sets"] = 0
        scan["storage_times_s"] = [float(f"{i * 0.2:.1f}e-6") for i in range(41)]
        for text in (bundled, yaml.safe_dump(scan, sort_keys=True)):
            # Compared as JSON text, so that 1 and 1.0 or True and 1 differ.
            fast, pure = (yaml.load(text, Loader=loader)
                          for loader in (yaml.CSafeLoader, yaml.SafeLoader))
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


# Run in a fresh interpreter, so modules the test session already loaded do
# not count.  argv[1] is the directory holding the holomem package.
_SIMULATE_NO_SCIPY = """
import sys
sys.path.insert(0, sys.argv[1])
import holomem.cli as cli
import yaml
cfg = cli.default_config()
cfg["n_mc_sets"] = 0
with open(sys.argv[2], "w") as fh:
    yaml.safe_dump(cfg, fh)
rc = cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3]])
print(rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

_FIT = """
import sys
sys.path.insert(0, sys.argv[1])
import holomem.cli as cli
rc = cli.main(["fit", "--kind", "exp", "--out", sys.argv[2]])
print(rc, "scipy.optimize" in sys.modules)
"""


class TestImports:
    SRC = str(Path(cli.__file__).resolve().parents[1])

    def _run(self, code, *args):
        proc = subprocess.run([sys.executable, "-c", code, self.SRC, *map(str, args)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split(maxsplit=1)

    def test_simulate_never_imports_scipy(self, tmp_path):
        out = tmp_path / "report.json"
        rc, loaded = self._run(_SIMULATE_NO_SCIPY, tmp_path / "cfg.yaml", out)
        assert int(rc) == cli.EXIT_OK
        assert loaded.strip() == "[]"
        assert json.loads(out.read_text())["analytic"]["eit_fwhm_hz"] > 0.0

    def test_fit_still_loads_scipy_and_works(self, tmp_path):
        out = tmp_path / "fit.json"
        rc, loaded = self._run(_FIT, out)
        assert int(rc) == cli.EXIT_OK
        assert loaded.strip() == "True"
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["params"]["tau"] == pytest.approx(2.8e-6, rel=0.1)
