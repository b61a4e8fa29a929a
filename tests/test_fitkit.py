import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from holomem import channel, cli, fitkit, measure
from conftest import BUNDLED


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


def steep_decay(tau, offset):
    """Ten points of y = 0.2 exp(-t/tau) + offset over 10 us, sigma 0.05 y + 1e-4."""
    t = np.linspace(0.0, 10e-6, 10)
    y = 0.2 * np.exp(-t / tau) + offset
    return list(zip(t.tolist(), y.tolist(), (0.05 * y + 1e-4).tolist()))


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

    def test_overflowing_trial_steps_are_rejected(self):
        # Steep decays whose trial steps overflow exp(): in the model values
        # (efficiency, tau 0.1 us) and, with a lower cost, in the Jacobian
        # (float tau).  The tau 0.3 us efficiency set overflows no step.
        vis = [(3.18e-07, 0.00844), (5.63e-07, 0.000814), (2.37e-06, 0.0001),
               (2.94e-06, 0.0001), (5.46e-06, 0.0001), (6.07e-06, 0.0001),
               (6.51e-06, 0.0001), (6.58e-06, 0.0001), (7.86e-06, 0.0001), (8.78e-06, 0.0001)]
        vis = [(ti, v, float(f"{0.05 * v + 1e-4:.3g}")) for ti, v in vis]
        for res in (fitkit.fit_exponential(steep_decay(3e-7, 1e-4)),
                    fitkit.fit_exponential(steep_decay(1e-7, 3e-5)),
                    fitkit.fit_visibility(vis, tau_s=2.8e-6, float_tau=True)):
            assert res.converged is True
            assert np.all(np.isfinite([*res.params.values(), res.residual_norm]))
            # inf where J^T J cannot identify a parameter, never 0 or nan.
            assert all(s > 0.0 for s in res.uncertainties.values())

    def test_trial_step_whose_jtj_overflows_is_refused(self):
        # Slope 1 above x = 0.5 and 1e200 below it, where J^T J overflows: the
        # first trial step lands at x = 0.001 with a lower cost.
        def model(x):
            return x.copy(), np.array([[1.0 if x[0] > 0.5 else 1e200]])

        res = fitkit._solve(model, np.array([1.0]), ("x",), np.zeros(1))
        assert res.converged is True
        assert res.params["x"] == pytest.approx(0.5)
        assert res.uncertainties == {"x": 1.0}

    @pytest.mark.parametrize("tau,offset", [(3e-7, 1e-4), (1e-7, 3e-5)])
    def test_steep_decay_reaches_the_scipy_optimum(self, tau, offset):
        # The flat tail must not pull the start into the tau -> 0 valley.
        # scipy stops within 1e-5 relative of this cost and 0.01 sigma_tau
        # of this tau.
        data = steep_decay(tau, offset)
        res = fitkit.fit_exponential(data)
        ref = scipy_fit(exp_residual(data), np.array([0.2, tau]))
        assert res.converged is True
        assert res.residual_norm <= np.linalg.norm(ref.fun) * (1.0 + 1e-9)
        assert res.residual_norm == pytest.approx(np.linalg.norm(ref.fun), rel=1e-5)
        assert abs(res.params["tau"] - ref.x[1]) <= 0.01 * res.uncertainties["tau"]

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
        p = BUNDLED.channel
        rho_in = channel.input_state(BUNDLED.source)
        v0 = measure.visibilities(rho_in).mean(axis=-1)
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
        p = BUNDLED.channel
        rho_in = channel.input_state(BUNDLED.source)
        v0 = measure.visibilities(rho_in).mean(axis=-1)
        times = np.linspace(0, 3e-6, 15)
        pts = [(t, channel.visibility_decay(p, v0, t), 0.01) for t in times]
        res = fitkit.fit_visibility(pts, tau_s=2.0e-6, float_tau=True)
        assert res.params["tau"] == pytest.approx(p.tau_s, rel=1e-3)

    def test_fixed_tau_beyond_float_square_returns(self):
        # tau ** 2 overflows a float here; a fixed tau needs no tau column.
        res = fitkit.fit_visibility([(0.0, 0.9, 0.01), (1e-6, 0.8, 0.01)], tau_s=1e300)
        assert res.converged is True
        # exp(2t/tau) = 1, so only a + b is identified: the flat level 0.85.
        assert 1.0 / (res.params["a"] + res.params["b"]) == pytest.approx(0.85, rel=1e-6)
        assert res.uncertainties == {"a": math.inf, "b": math.inf}

    @pytest.mark.parametrize("float_tau", [False, True], ids=["fixed-tau", "float-tau"])
    def test_start_whose_jtj_overflows_is_named(self, float_tau):
        # At tau 30 ns the bundled data start at b = 2.8e-230, where the Jacobian
        # is finite (largest entry 6.4e230) and J^T J is not.
        with pytest.raises(fitkit.FitError, match=r"^the model or J\^T J of its Jacobian is not "
                                                  r"finite at the start a=7\.05564, "
                                                  r"b=2\.76526e-230, tau=3e-08$"):
            fitkit.fit_visibility(cli._read_fit_csv(None), tau_s=3e-8, float_tau=float_tau)

    def test_never_crossing_gives_inf(self):
        pts = [(t, 0.95, 0.01) for t in np.linspace(0, 3e-6, 6)]
        res = fitkit.fit_visibility(pts, tau_s=2.8e-6)
        assert res.t_star_s == math.inf

    def test_flat_series_keeps_its_start(self):
        # The start 1/a = V fits to rounding, so no step may be taken: one
        # made of rounding noise once moved b from 0 to about 1e-19, which
        # puts t_star near 60 us.
        for level in np.linspace(0.72, 0.99, 28).round(2).tolist():
            pts = [(t, level, 0.01) for t in np.linspace(0, 3e-6, 6)]
            res = fitkit.fit_visibility(pts, tau_s=2.8e-6)
            assert res.converged is True
            assert res.params == {"a": 1.0 / level, "b": 0.0}
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
        for tau_s in (0.0, math.inf):
            with pytest.raises(fitkit.FitError, match="tau must be finite and positive"):
                fitkit.fit_visibility(pts, tau_s=tau_s)
        with pytest.raises(fitkit.FitError):
            fitkit.fit_visibility([(0.0, 0.9, 0.01), (1e-6, -0.1, 0.01)], tau_s=2.8e-6)


def exp_set(seed):
    """Twelve points of y = eta0 exp(-t/tau) over 8 us with 5% Gaussian noise."""
    rng = np.random.default_rng(seed)
    eta0, tau = rng.uniform(0.1, 0.2), rng.uniform(2e-6, 4e-6)
    return decay_points(eta0, tau, np.linspace(0.0, 8e-6, 12), rng, 0.05), (eta0, tau)


def vis_set(seed):
    """Fifteen points of V = 1/(a + b exp(2t/tau)) over 3 us, sigma 0.01."""
    rng = random.Random(seed)
    a, b, tau = rng.uniform(1.05, 1.3), rng.uniform(0.01, 0.05), rng.uniform(2e-6, 4e-6)
    return [(t, 1.0 / (a + b * math.exp(2.0 * t / tau)) + 0.01 * rng.gauss(0.0, 1.0), 0.01)
            for t in np.linspace(0.0, 3e-6, 15).tolist()], (a, b, tau)


def exp_residual(data):
    t, y, sigma = np.array(data).T
    return lambda x: (x[0] * np.exp(-t / x[1]) - y) / sigma


def vis_residual(data, tau_s=None):
    """Weighted residual in (a, b), or in (a, b, tau) when tau_s is None."""
    t, v, sigma = np.array(data).T
    return lambda x: (1.0 / (x[0] + x[1] * np.exp(2.0 * t / (x[2] if tau_s is None else tau_s)))
                      - v) / sigma


def central_jacobian(residual, x):
    """Central differences with relative steps 1e-6 |x_i|."""
    cols = []
    for i, h in enumerate(1e-6 * np.abs(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((residual(up) - residual(down)) / (2.0 * h))
    return np.column_stack(cols)


def scipy_fit(residual, x0):
    """The former solver: scipy's trust-region least squares, 2-point Jacobian."""
    return least_squares(residual, x0, method="trf", ftol=1e-12, xtol=1e-12, gtol=1e-12,
                         max_nfev=fitkit.MAX_ITERATIONS * (len(x0) + 1))


def bundled_fits():
    data = cli._read_fit_csv(None)
    return [(fitkit.fit_exponential(data), exp_residual(data)),
            (fitkit.fit_visibility(data, tau_s=2.8e-6), vis_residual(data, 2.8e-6)),
            (fitkit.fit_visibility(data, tau_s=2.8e-6, float_tau=True), vis_residual(data))]


def seeded_fits(seeds=range(20)):
    fits = []
    for seed in seeds:
        data, _ = exp_set(seed)
        fits.append((fitkit.fit_exponential(data), exp_residual(data)))
        data, (_, _, tau) = vis_set(seed)
        fits.append((fitkit.fit_visibility(data, tau_s=tau), vis_residual(data, tau)))
    return fits


class TestOptimum:
    @pytest.mark.parametrize("fits", [bundled_fits, seeded_fits], ids=["bundled", "seeded"])
    def test_uncertainties_are_the_curvature_at_the_optimum(self, fits):
        for res, residual in fits():
            x = np.array(list(res.params.values()))
            jac = central_jacobian(residual, x)
            expected = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
            assert res.converged is True
            assert list(res.uncertainties.values()) == pytest.approx(expected, rel=1e-6)
            assert res.residual_norm == pytest.approx(np.linalg.norm(residual(x)), rel=1e-12)

    @pytest.mark.parametrize("fits", [bundled_fits, seeded_fits], ids=["bundled", "seeded"])
    def test_scaled_gradient_vanishes(self, fits):
        # A cosine c between r and a column J_i leaves about c^2 of the cost
        # to gain: c <= 1e-6 keeps that within the 1e-12 relative cost change
        # at which the fit stops.
        for res, residual in fits():
            x = np.array(list(res.params.values()))
            jac, r = central_jacobian(residual, x), residual(x)
            cosine = np.abs(jac.T @ r) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))
            assert cosine.max() <= 1e-6

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_at_least_as_good_as_scipy(self, seed):
        exp_data, exp_truth = exp_set(seed)
        vis_data, (a, b, tau) = vis_set(seed)
        for res, residual, truth in (
                (fitkit.fit_exponential(exp_data), exp_residual(exp_data), exp_truth),
                (fitkit.fit_visibility(vis_data, tau_s=tau), vis_residual(vis_data, tau), (a, b))):
            ref = scipy_fit(residual, np.array(truth))
            assert res.residual_norm ** 2 <= (ref.fun @ ref.fun) * (1.0 + 1e-9)
            for (name, value), other in zip(res.params.items(), ref.x):
                assert abs(value - other) <= 0.05 * res.uncertainties[name]

    def test_bundled_float_tau_cost_not_above_scipy(self):
        data = cli._read_fit_csv(None)
        res = fitkit.fit_visibility(data, tau_s=2.8e-6, float_tau=True)
        t, v, _ = np.array(sorted(data)).T
        a0 = 1.0 / v[0]
        x0 = np.array([a0, max((1.0 / v[-1] - a0) * math.exp(-2.0 * t[-1] / 2.8e-6), 0.0), 2.8e-6])
        ref = scipy_fit(vis_residual(data), x0)
        assert res.residual_norm ** 2 <= ref.fun @ ref.fun

    def test_unidentified_parameters_report_infinite_uncertainty(self):
        # Float-tau fits that run down the flat tau -> infinity valley end
        # where J^T J is numerically singular: 37 of these 1,000 sets
        # (measured).  Their sigmas once read 0 (14 sets) or rounding noise.
        unidentified = []
        for seed in range(1000):
            data, (_, _, tau) = vis_set(seed)
            res = fitkit.fit_visibility(data, tau_s=tau, float_tau=True)
            sigmas = np.array(list(res.uncertainties.values()))
            assert np.all(sigmas > 0.0)
            if np.isinf(sigmas).any():
                unidentified.append(res)
        assert len(unidentified) >= 14
        assert json.loads(cli._fit_result_json(unidentified[0]))["uncertainties"]["a"] == "inf"

    def test_float_tau_sweep_against_scipy(self):
        # Both solvers from the same start.  Over seeds 0-999 the fit ends
        # above scipy on 3 sets (0.3 %): two stop elsewhere in the flat
        # tau -> infinity valley of the model (+1.4e-6, +9.6e-6), and in one
        # the first steps carry tau across the pole at 0 (+1.8 %).  Here: 146
        # lower, 1 higher, 53 equal within 1e-9.
        lower = higher = 0
        for seed in range(200):
            data, (_, _, tau) = vis_set(seed)
            res = fitkit.fit_visibility(data, tau_s=tau, float_tau=True)
            v0, v1 = data[0][1], data[-1][1]
            x0 = np.array([1.0 / v0, max((1.0 / v1 - 1.0 / v0) * math.exp(-6e-6 / tau), 0.0), tau])
            ref = scipy_fit(vis_residual(data), x0)
            rel = res.residual_norm ** 2 / (ref.fun @ ref.fun) - 1.0
            assert res.converged is True and rel <= 0.05
            lower += rel < -1e-9
            higher += rel > 1e-9
        assert higher <= 2 and lower >= 100
