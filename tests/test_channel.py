import math

import numpy as np
import pytest

from holomem import channel, cli, measure, qstate
from conftest import BUNDLED, random_density_matrix


def weights_oracle(r1: float, r2: float) -> tuple[float, float, float]:
    """Independent closed-form solution of the three constraints."""
    c = 2.0 / (r2 + 1.0)
    b = (1.0 - c - (r1 - 1.0) * c / 2.0) / (r1 + 1.0)
    a = 1.0 - b - c
    return a, b, c


class TestInputState:
    def test_experimental_ratios_reproduced(self):
        rho = channel.input_state(BUNDLED.source)
        p_hh = measure.coincidence_prob(rho, measure.setting_from_labels("H", "H"))
        p_hv = measure.coincidence_prob(rho, measure.setting_from_labels("H", "V"))
        p_pp = measure.coincidence_prob(rho, measure.setting_from_labels("+", "+"))
        p_pm = measure.coincidence_prob(rho, measure.setting_from_labels("+", "-"))
        assert p_hh / p_hv == pytest.approx(14.3, abs=1e-9)
        assert p_pp / p_pm == pytest.approx(23.1, abs=1e-9)

    def test_weights_match_closed_form(self):
        a, b, c = weights_oracle(14.3, 23.1)
        assert (a, b, c) == (pytest.approx(0.893, abs=5e-4),
                             pytest.approx(0.024, abs=5e-4),
                             pytest.approx(0.083, abs=5e-4))
        rho = channel.input_state(BUNDLED.source)
        expected = (a * qstate.bell_phi_plus() + b * qstate.bell_psi_plus()
                    + c * np.eye(4) / 4)
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_noiseless_limit(self):
        src = channel.SourceParams(ratio_hv=1e9, ratio_pm=1e9)
        np.testing.assert_allclose(channel.input_state(src), qstate.bell_phi_plus(), atol=1e-6)

    def test_output_passes_invariants(self):
        qstate.check_density_matrix(channel.input_state(BUNDLED.source))

    def test_infeasible_ratios_named_error(self):
        with pytest.raises(channel.ModelInfeasibleError, match="psi\\+ weight b"):
            channel.input_state(channel.SourceParams(ratio_hv=1e6, ratio_pm=1.01))

    def test_ratio_validation(self):
        with pytest.raises(channel.ChannelError):
            channel.SourceParams(ratio_hv=0.9, ratio_pm=23.1)

    def test_built_once_per_source_and_read_only(self):
        rho = channel.input_state(BUNDLED.source)
        assert channel.input_state(cli.load_scenario(cli.default_config()).source) is rho
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0] = 0.0

    def test_cache_leaves_default_report_unchanged(self):
        def report() -> str:
            return cli.report_to_json(cli.run_simulate(cli.load_scenario(cli.default_config())))
        channel.input_state.cache_clear()
        cold = report()
        assert report() == cold
        assert cli._model.cache_info().hits > 0  # the second run reused the model half


class TestStoreRetrieve:
    def test_identity_at_zero_time_no_background(self, rng):
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        rho = random_density_matrix(rng)
        rho_out, _, frac = channel.store_retrieve(rho, 0.0, p)
        np.testing.assert_allclose(rho_out, rho, atol=1e-12)
        assert frac == 1.0

    def test_efficiency_at_lifetime(self):
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        assert channel.efficiency(p, 2.8e-6) == pytest.approx(0.15 / math.e)
        assert channel.efficiency(p, 2.8e-6) == pytest.approx(0.0552, abs=1e-4)

    def test_calibrated_fidelity_at_one_microsecond(self):
        p = BUNDLED.channel
        rho_in = channel.input_state(BUNDLED.source)
        rho_out, _, _ = channel.store_retrieve(rho_in, 1e-6, p)
        f = qstate.fidelity(qstate.bell_phi_plus(), rho_out)
        assert 0.79 <= f <= 0.83

    def test_outputs_pass_invariants(self, rng):
        p = BUNDLED.channel
        for t in (0.0, 0.5e-6, 1e-6, 3e-6, 10e-6):
            rho_out, _, _ = channel.store_retrieve(random_density_matrix(rng), t, p)
            qstate.check_density_matrix(rho_out, atol=qstate.CHANNEL_ATOL)

    def test_signal_fraction_monotone_nonincreasing(self):
        p = BUNDLED.channel
        rho = channel.input_state(BUNDLED.source)
        fracs = [channel.store_retrieve(rho, t, p)[2] for t in np.linspace(0, 10e-6, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(fracs, fracs[1:]))

    def test_coincidence_ratio_grows_with_time(self):
        p = BUNDLED.channel
        rho = channel.input_state(BUNDLED.source)
        c0 = channel.store_retrieve(rho, 0.0, p)[1]
        ratios = [c0 / channel.store_retrieve(rho, t, p)[1]
                  for t in np.linspace(0, 10e-6, 40)]
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_rejects_negative_time(self):
        p = BUNDLED.channel
        with pytest.raises(channel.ChannelError):
            channel.store_retrieve(qstate.bell_phi_plus(), -1.0, p)

    def test_rejects_signal_underflow_without_background(self):
        # eta(t)^2 underflows to zero beyond about 370 lifetimes.
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        with pytest.raises(channel.ChannelError):
            channel.store_retrieve(qstate.bell_phi_plus(), 400 * p.tau_s, p)


class TestProcessFidelity:
    def test_identical_states(self, rng):
        rho = random_density_matrix(rng)
        assert qstate.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_background_free_channel_is_exact(self, rng):
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        rho = random_density_matrix(rng)
        rho_out, _, _ = channel.store_retrieve(rho, 2e-6, p)
        assert qstate.fidelity(rho, rho_out) == pytest.approx(1.0, abs=1e-10)

    def test_calibrated_pipeline_matches_report(self):
        p = BUNDLED.channel
        rho_in = channel.input_state(BUNDLED.source)
        rho_out, _, _ = channel.store_retrieve(rho_in, 1e-6, p)
        assert 0.96 <= qstate.fidelity(rho_in, rho_out) <= 1.0


class TestVisibilityDecay:
    def test_constant_without_background(self):
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        for t in (0.0, 1e-6, 5e-6):
            assert channel.visibility_decay(p, 0.9, t) == pytest.approx(0.9, abs=1e-15)

    def test_closed_form_identity_random_draws(self, rng):
        for _ in range(20):
            p = channel.ChannelParams(eta0=rng.uniform(0.05, 0.9),
                                      tau_s=rng.uniform(0.5e-6, 5e-6),
                                      bg_coinc=rng.uniform(1e-5, 1e-2))
            v0 = rng.uniform(0.3, 1.0)
            a, b = channel.visibility_decay_coeffs(p, v0)
            for t in np.linspace(0.0, 5 * p.tau_s, 100):
                v = channel.visibility_decay(p, v0, t)
                assert abs(v * (a + b * math.exp(2 * t / p.tau_s)) - 1.0) < 1e-12

    def test_threshold_crossing_time(self):
        p = BUNDLED.channel
        rho_in = channel.input_state(BUNDLED.source)
        v0 = measure.visibilities(rho_in).mean(axis=-1)
        t_star = channel.visibility_threshold_time(p, v0)
        assert 1.4e-6 <= t_star <= 1.8e-6
        # Consistency: V at the crossing equals the threshold.
        assert channel.visibility_decay(p, v0, t_star) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_model_is_the_mean_visibility_of_the_stored_states(self):
        # V_out = f V_in for this source family, so the report states the decayed
        # visibility once, as the stored states' mean_visibility.
        p, times = BUNDLED.channel, [i * 0.2e-6 for i in range(41)]
        rho_in = channel.input_state(BUNDLED.source)
        v0 = measure.visibilities(rho_in).mean(axis=-1)
        rho_out = channel.store_retrieve(rho_in, times, p)[0]
        for t, v in zip(times, measure.visibilities(rho_out).mean(axis=-1), strict=True):
            assert channel.visibility_decay(p, v0, t) == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_never_crossing_sentinel(self):
        p = channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=0.0)
        assert channel.visibility_threshold_time(p, 0.9) == math.inf

    def test_background_only_crosses_at_once(self):
        p = channel.ChannelParams(eta0=0.0, tau_s=2.8e-6, bg_coinc=0.001)
        assert channel.visibility_threshold_time(p, 0.9) == 0.0

    def test_v0_validation(self):
        p = BUNDLED.channel
        with pytest.raises(channel.ChannelError):
            channel.visibility_decay(p, 0.0, 1e-6)
        with pytest.raises(channel.ChannelError):
            channel.visibility_decay(p, 1.1, 1e-6)


class TestParams:
    def test_calibrated_values(self):
        p = BUNDLED.channel
        assert p.eta0 == 0.15
        assert p.tau_s == 2.8e-6
        assert 0.0 < p.bg_coinc < 0.01

    def test_validation(self):
        with pytest.raises(channel.ChannelError):
            channel.ChannelParams(eta0=1.5, tau_s=2.8e-6, bg_coinc=0.0)
        with pytest.raises(channel.ChannelError):
            channel.ChannelParams(eta0=0.15, tau_s=0.0, bg_coinc=0.0)
        with pytest.raises(channel.ChannelError):
            channel.ChannelParams(eta0=0.15, tau_s=2.8e-6, bg_coinc=-0.1)
        with pytest.raises(channel.ChannelError):
            channel.ChannelParams(eta0=0.0, tau_s=2.8e-6, bg_coinc=0.0)

    def test_bundled_background_meets_the_calibration_target(self):
        # The YAML number is the exact solution for the bundled source and channel.
        p = BUNDLED.channel
        cal = channel.calibrated_channel_params(BUNDLED.source, p.eta0, p.tau_s)
        assert p.bg_coinc == cal.bg_coinc

    def test_calibration_target_out_of_reach(self):
        # Input fidelity 0.5: no background can raise the 1 us fidelity to 0.81.
        source = channel.SourceParams(ratio_hv=2.0, ratio_pm=2.0)
        with pytest.raises(channel.ChannelError,
                           match="fidelity target 0.81 unreachable from input fidelity 0.5000"):
            channel.calibrated_channel_params(source, 0.15, 2.8e-6)
