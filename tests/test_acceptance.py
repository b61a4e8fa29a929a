"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line with the
measured values once its assertions hold, so a `-s`/`-rA` run reads as a
checklist.  Tolerances are stated inline next to each assertion.
"""

import math

import numpy as np
import pytest

from holomem import channel, cli, eitline, fitkit, measure, qstate, registers, tomo
from conftest import BUNDLED, exact_counts, random_density_matrix

from test_fitkit import decay_points
from test_registers import geometry


def report(line: str) -> None:
    print(f"PASS  {line}")


def test_criterion_1_chsh_conventions():
    bell = qstate.bell_phi_plus()
    s_mirrored = measure.chsh_s(bell, convention="mirrored")
    s_textbook = measure.chsh_s(bell, convention="textbook")
    assert abs(s_mirrored - 2.0 * math.sqrt(2.0)) < 1e-9
    assert abs(s_textbook) < 1e-9
    report(f"criterion 1: CHSH conventions — mirrored {s_mirrored:.9f} = 2*sqrt(2), "
           f"textbook {s_textbook:.1e} = 0 (tol 1e-9)")


def test_criterion_2_werner_thresholds():
    p = 1.0 / math.sqrt(2.0)
    f = qstate.fidelity(qstate.bell_phi_plus(), qstate.werner(p))
    v = measure.visibilities(qstate.werner(p)).mean(axis=-1)
    assert abs(f - (1.0 + 3.0 * p) / 4.0) < 1e-9
    assert abs(f - 0.780330086) < 1e-9
    assert abs(v - p) < 1e-9
    report(f"criterion 2: Werner thresholds — fidelity {f:.6f} (0.7803), "
           f"visibility {v:.6f} (0.7071), tol 1e-9")


def test_criterion_3_mode_capacity():
    n_m = registers.mode_capacity(geometry())
    assert abs(n_m - 240.6) < 0.5
    report(f"criterion 3: mode capacity {n_m:.1f} = 240.6 +/- 0.5")


def test_criterion_4_eit_calibration():
    p = BUNDLED.eit
    fwhm = eitline.transparency_fwhm(p)
    delay = eitline.group_delay(p)
    assert abs(fwhm - 2.2e6) / 2.2e6 < 0.25
    assert abs(delay - 160e-9) / 160e-9 < 0.25
    report(f"criterion 4: EIT window {fwhm / 1e6:.3f} MHz (2.2 +/- 25%), "
           f"group delay {delay * 1e9:.0f} ns (160 +/- 25%)")


def test_criterion_5_source_model():
    rho = channel.input_state(BUNDLED.source)
    p_hh = measure.coincidence_prob(rho, measure.setting_from_labels("H", "H"))
    p_hv = measure.coincidence_prob(rho, measure.setting_from_labels("H", "V"))
    p_pp = measure.coincidence_prob(rho, measure.setting_from_labels("+", "+"))
    p_pm = measure.coincidence_prob(rho, measure.setting_from_labels("+", "-"))
    assert abs(p_hh / p_hv - 14.3) < 1e-9
    assert abs(p_pp / p_pm - 23.1) < 1e-9
    s = measure.chsh_s(rho)
    f = qstate.fidelity(qstate.bell_phi_plus(), rho)
    assert abs(s - 2.54) < 0.10
    assert abs(f - 0.879) < 0.05
    report(f"criterion 5: source model — ratios 14.3/23.1 within 1e-9, "
           f"S {s:.4f} (2.54 +/- 0.10), fidelity {f:.4f} (0.879 +/- 0.05)")


def test_criterion_6_storage_behavior():
    p = BUNDLED.channel
    rho_in = channel.input_state(BUNDLED.source)
    rho_out, _, _ = channel.store_retrieve(rho_in, 1e-6, p)
    f = qstate.fidelity(qstate.bell_phi_plus(), rho_out)
    f_proc = qstate.fidelity(rho_in, rho_out)
    s = measure.chsh_s(rho_out)
    t_star = channel.visibility_threshold_time(p, measure.visibilities(rho_in).mean(axis=-1))
    assert 0.79 <= f <= 0.83
    assert 0.96 <= f_proc <= 1.0
    assert abs(s - 2.25) < 0.15
    assert 1.4e-6 <= t_star <= 1.8e-6
    report(f"criterion 6: storage at 1 us — fidelity {f:.4f} in [0.79, 0.83], "
           f"process fidelity {f_proc:.4f} in [0.96, 1.0], S {s:.4f} (2.25 +/- 0.15), "
           f"t* {t_star * 1e6:.3f} us in [1.4, 1.8]")


def test_criterion_7_tomography_consistency():
    ts = tomo.make_settings(36)
    rng = np.random.default_rng(20120501)
    worst = 1.0
    for _ in range(50):
        rho = random_density_matrix(rng)
        counts = exact_counts(rho, ts, 10 ** 6)
        result = tomo.mle_reconstruct(counts, np.ones(36), ts)
        worst = min(worst, qstate.fidelity(result.rho_hat, rho))
    assert worst > 0.999

    # Monte Carlo spread at experiment-scale statistics (of order a
    # thousand coincidences in each complete basis group).
    p = BUNDLED.channel
    rho_in = channel.input_state(BUNDLED.source)
    rho_out, _, _ = channel.store_retrieve(rho_in, 1e-6, p)
    counts = measure.sample_counts(rho_out, list(ts.settings), 1000, 1.0, seed=5)
    mc = tomo.monte_carlo_fidelity(counts, np.ones(36), ts, qstate.bell_phi_plus(),
                                   n_sets=100, seed=7)
    std = mc.std(ddof=1)
    assert 0.005 <= std <= 0.02
    report(f"criterion 7: tomography — worst noiseless-recovery fidelity "
           f"{worst:.6f} > 0.999 over 50 states; MC std {std:.4f} "
           f"in [0.005, 0.02] over {len(mc)} sets")


def test_criterion_8_fit_recovery():
    times = np.linspace(0.0, 8e-6, 12)
    hits = 0
    n_seeds = 50
    for s in range(n_seeds):
        rng = np.random.default_rng(1000 + s)
        res = fitkit.fit_exponential(decay_points(0.15, 2.8e-6, times, rng, 0.05))
        if abs(res.params["tau"] - 2.8e-6) / 2.8e-6 < 0.05:
            hits += 1
    assert hits >= int(0.9 * n_seeds)

    p = BUNDLED.channel
    rho_in = channel.input_state(BUNDLED.source)
    v0 = measure.visibilities(rho_in).mean(axis=-1)
    a_true, b_true = channel.visibility_decay_coeffs(p, v0)
    pts = [(t, channel.visibility_decay(p, v0, t), 0.01)
           for t in np.linspace(0, 3e-6, 15)]
    res = fitkit.fit_visibility(pts, tau_s=p.tau_s)
    assert abs(res.params["a"] - a_true) / a_true < 1e-6
    assert abs(res.params["b"] - b_true) / b_true < 1e-6
    report(f"criterion 8: fits — lifetime within 5% in {hits}/{n_seeds} seeds "
           f"(>= 45); visibility (a, b) round-trip rel err "
           f"{abs(res.params['a'] - a_true) / a_true:.1e}, "
           f"{abs(res.params['b'] - b_true) / b_true:.1e} < 1e-6")


def test_criterion_9_property_suites():
    # Tsirelson bound fuzz.
    rng = np.random.default_rng(99)
    s_max = 0.0
    for _ in range(1000):
        s_max = max(s_max, measure.chsh_s(random_density_matrix(rng)))
    assert s_max <= 2.0 * math.sqrt(2.0) + 1e-9

    # Crosstalk sampling matches the Gaussian characteristic function.
    sigma = 0.5e-3
    g = geometry(cloud_sigma_m=(sigma, sigma, sigma))
    m1, m2 = np.zeros(3), np.array([1.0 / sigma, 0.0, 0.0])
    samples = np.array([registers.crosstalk(m1, m2, g, seed=s) for s in range(30)])
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    dev = abs(samples.mean() - registers.expected_crosstalk(m1, m2, g))
    assert dev < 3.0 * stderr

    # Channel outputs stay physical over random inputs and times.
    p = BUNDLED.channel
    for _ in range(25):
        rho = random_density_matrix(rng)
        t = rng.uniform(0.0, 10e-6)
        rho_out, _, _ = channel.store_retrieve(rho, t, p)
        qstate.check_density_matrix(rho_out, atol=qstate.CHANNEL_ATOL)

    # A storage-time track's estimate does not depend on which other
    # tracks share the batched MLE solve.
    cfg = cli.default_config()
    cfg["n_trials"] = 20000
    cfg["n_mc_sets"] = 4
    cfg["storage_times_s"] = [0.0, 1.0e-6]
    both = cli.run_simulate(cli.load_scenario(cfg))["statistical"]["storage"][1]
    cfg["storage_times_s"] = [1.0e-6]
    alone = cli.run_simulate(cli.load_scenario(cfg))["statistical"]["storage"][0]
    batch_dev = max(abs(both[key] - alone[key])
                    for key in ("mle_fidelity_vs_bell", "mle_fidelity_vs_true"))
    assert batch_dev < 1e-6
    # The resamples of every track share one batched solve, so the MC
    # summary matches only up to rounding in the batched products.
    for key in ("mean", "std"):
        assert abs(both["mc"][key] - alone["mc"][key]) < 1e-12
    for key in ("n_sets", "nonconverged"):
        assert both["mc"][key] == alone["mc"][key]
    report(f"criterion 9: properties — max fuzzed S {s_max:.4f} <= 2*sqrt(2); "
           f"crosstalk deviation {dev:.2e} < 3 sigma ({3 * stderr:.2e}); "
           f"25 random channel outputs physical; 1 us track independent of "
           f"its batch ({batch_dev:.1e} < 1e-6)")
