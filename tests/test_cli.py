import copy
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from holomem import channel, cli, measure, qstate, tomo


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
