import math

import numpy as np
import pytest

from holomem import channel, fitkit, measure


def decay_points(eta0, tau, times, rng=None, noise=0.0):
    """Synthetic decay samples with Gaussian noise at `noise` relative
    amplitude; the quoted sigma matches the noise actually applied."""
    pts = []
    sigma_frac = noise if noise > 0.0 else 0.05
    for t in times:
        y = eta0 * math.exp(-t / tau)
        sigma = sigma_frac * y
        if rng is not None and noise > 0.0:
            y += sigma * rng.standard_normal()
        pts.append((t, y, sigma))
    return pts


class TestExponentialFit:
    def test_noiseless_recovery(self):
        pts = decay_points(0.15, 2.8e-6, np.linspace(0, 8e-6, 10))
        res = fitkit.fit_exponential(pts)
        assert res.converged
        assert res.params["eta0"] == pytest.approx(0.15, rel=1e-6)
        assert res.params["tau"] == pytest.approx(2.8e-6, rel=1e-6)

    def test_noisy_recovery_across_seeds(self):
        # With 5% multiplicative noise the fitted lifetime should land
        # within 5% of truth in at least 90% of independent realizations.
        times = np.linspace(0, 8e-6, 12)
        hits = 0
        n_seeds = 50
        for s in range(n_seeds):
            rng = np.random.default_rng(1000 + s)
            res = fitkit.fit_exponential(decay_points(0.15, 2.8e-6, times, rng, 0.05))
            if abs(res.params["tau"] - 2.8e-6) / 2.8e-6 < 0.05:
                hits += 1
        assert hits >= int(0.9 * n_seeds)

    def test_uncertainty_scales_with_replication(self):
        # Quadrupling the data (same times, independent noise) should halve
        # the parameter uncertainties, as 1/sqrt(k).
        times = np.linspace(0, 8e-6, 12)
        rng = np.random.default_rng(7)
        base = decay_points(0.15, 2.8e-6, times, rng, 0.03)
        res1 = fitkit.fit_exponential(base)
        quad = base + [(t, y, s) for t, y, s in
                       decay_points(0.15, 2.8e-6, np.repeat(times, 3) + 1e-12,
                                    rng, 0.03)]
        res4 = fitkit.fit_exponential(quad)
        ratio = res1.uncertainties["tau"] / res4.uncertainties["tau"]
        assert ratio == pytest.approx(2.0, rel=0.35)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(5)
        pts = decay_points(0.15, 2.8e-6, np.linspace(0, 8e-6, 12), rng, 0.05)
        res_a = fitkit.fit_exponential(pts)
        res_b = fitkit.fit_exponential(list(reversed(pts)))
        assert res_a.params == res_b.params
        assert res_a.uncertainties == res_b.uncertainties

    def test_flat_data_edge_case(self):
        pts = [(t, 0.1, 0.01) for t in np.linspace(0, 5e-6, 8)]
        res = fitkit.fit_exponential(pts)
        # Amplitude identifiable, lifetime effectively unbounded.
        assert res.params["eta0"] == pytest.approx(0.1, rel=0.05)
        assert res.params["tau"] > 5e-6

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(fitkit.FitError):
            fitkit.fit_exponential([(0.0, 1.0, 0.1), (1.0, 0.5, 0.1)])
        with pytest.raises(fitkit.FitError):
            fitkit.fit_exponential([(1.0, 1.0, 0.1)] * 5)
        with pytest.raises(fitkit.FitError):
            fitkit.fit_exponential([(0.0, 1.0, 0.0), (1.0, 0.5, 0.1), (2.0, 0.2, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column,name", [(0, "t"), (1, "y"), (2, "sigma")])
    def test_non_finite_inputs_name_the_row(self, column, name, bad):
        pts = [list(p) for p in decay_points(0.15, 2.8e-6, np.linspace(0.0, 5e-6, 6))]
        pts[3][column] = bad
        for fit in (fitkit.fit_exponential, lambda d: fitkit.fit_visibility(d, tau_s=2.8e-6)):
            with pytest.raises(fitkit.FitError, match=f"^row 4: {name} must be finite, got {bad}$"):
                fit(pts)


class TestVisibilityFit:
    def test_round_trip_against_channel_model(self):
        # Generate V(t) from the channel closed form and recover (a, b).
        p = channel.calibrated_channel_params()
        rho_in = channel.input_state(channel.experiment_source_params())
        v0 = measure.mean_visibility(rho_in)
        a_true, b_true = channel.visibility_decay_coeffs(p, v0)
        times = np.linspace(0, 3e-6, 15)
        pts = [(t, channel.visibility_decay(p, v0, t), 0.01) for t in times]
        res = fitkit.fit_visibility(pts, tau_s=p.tau_s)
        assert res.converged
        assert res.params["a"] == pytest.approx(a_true, rel=1e-6)
        assert res.params["b"] == pytest.approx(b_true, rel=1e-6)
        assert 1.4e-6 <= res.t_star_s <= 1.8e-6
        assert res.t_star_s == pytest.approx(
            channel.visibility_threshold_time(p, v0), rel=1e-6)

    def test_float_tau_variant(self):
        p = channel.calibrated_channel_params()
        rho_in = channel.input_state(channel.experiment_source_params())
        v0 = measure.mean_visibility(rho_in)
        times = np.linspace(0, 3e-6, 15)
        pts = [(t, channel.visibility_decay(p, v0, t), 0.01) for t in times]
        res = fitkit.fit_visibility(pts, tau_s=2.0e-6, float_tau=True)
        assert res.params["tau"] == pytest.approx(p.tau_s, rel=1e-3)

    def test_never_crossing_gives_inf(self):
        pts = [(t, 0.95, 0.01) for t in np.linspace(0, 3e-6, 6)]
        res = fitkit.fit_visibility(pts, tau_s=2.8e-6)
        assert res.t_star_s == math.inf

    def test_threshold_crossing_closed_form(self):
        a, b, tau = 1.1, 0.05, 2.8e-6
        t_star = fitkit.threshold_crossing(a, b, tau)
        v = 1.0 / (a + b * math.exp(2 * t_star / tau))
        assert v == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert fitkit.threshold_crossing(1.1, 0.0, tau) == math.inf
        assert fitkit.threshold_crossing(math.sqrt(2) + 0.1, 0.05, tau) == math.inf

    def test_validation(self):
        pts = [(0.0, 0.9, 0.01), (1e-6, 0.8, 0.01)]
        with pytest.raises(fitkit.FitError):
            fitkit.fit_visibility(pts, tau_s=0.0)
        with pytest.raises(fitkit.FitError):
            fitkit.fit_visibility([(0.0, 0.9, 0.01), (1e-6, -0.1, 0.01)], tau_s=2.8e-6)
