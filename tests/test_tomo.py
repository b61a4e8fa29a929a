import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from holomem import channel, cli, measure, qstate, tomo
from holomem.seeding import child_seed
from conftest import random_density_matrix


TS36 = tomo.make_settings(36)
TS16 = tomo.make_settings(16)


class TestSchemes:
    def test_setting_counts(self):
        assert len(TS36.settings) == 36
        assert len(TS16.settings) == 16

    def test_both_schemes_informationally_complete(self):
        assert tomo.design_rank(TS36) == 16
        assert tomo.design_rank(TS16) == 16

    def test_labels_are_distinct(self):
        for ts in (TS36, TS16):
            labels = [s.label for s in ts.settings]
            assert len(set(labels)) == len(labels)

    def test_unknown_scheme(self):
        with pytest.raises(tomo.TomographyError):
            tomo.make_settings(9)

    def test_forward_probabilities_match_born_rule(self, rng):
        rho = random_density_matrix(rng)
        probs = tomo.forward_probabilities(rho, TS36)
        for p, s in zip(probs, TS36.settings):
            assert p == pytest.approx(measure.coincidence_prob(rho, s), abs=1e-12)


class TestLinearInversion:
    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_exact_recovery_from_noiseless_counts(self, ts, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            probs = tomo.forward_probabilities(rho, ts)
            # Bypass integer rounding: feed exact expected counts scaled up.
            counts = [measure.CountRecord(s.label, int(round(p * 10 ** 12)))
                      for s, p in zip(ts.settings, probs)]
            rho_li = tomo.linear_inversion(counts, ts)
            np.testing.assert_allclose(rho_li, rho, atol=1e-9)

    def test_unit_trace_on_noisy_counts(self, rng):
        rho = qstate.werner(0.8)
        counts = measure.sample_counts(rho, list(TS36.settings), 20000, 0.5, seed=3)
        rho_li = tomo.linear_inversion(counts, TS36)
        assert np.real(np.trace(rho_li)) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(rho_li, rho_li.conj().T, atol=1e-10)

    def test_handles_unequal_durations(self):
        rho = qstate.bell_phi_plus()
        probs = tomo.forward_probabilities(rho, TS16)
        # Varied durations outside the H/V group; the group itself keeps a
        # common duration so the exposure estimate stays exact.
        durations = [1.0 + 0.5 * (i % 3) for i in range(len(TS16.settings))]
        counts = []
        for s, p, d in zip(TS16.settings, probs, durations):
            d = 1.0 if s.label in ("HH", "HV", "VH", "VV") else d
            counts.append(measure.CountRecord(s.label, int(round(p * d * 10 ** 9)), d))
        np.testing.assert_allclose(tomo.linear_inversion(counts, TS16), rho, atol=1e-6)

    def test_misaligned_records_rejected(self):
        counts = [measure.CountRecord(s.label, 10) for s in TS16.settings]
        counts[0] = measure.CountRecord("VV", 10)
        with pytest.raises(tomo.TomographyError):
            tomo.linear_inversion(counts, TS16)

    def test_zero_total_counts_rejected(self):
        counts = [measure.CountRecord(s.label, 0) for s in TS16.settings]
        with pytest.raises(tomo.TomographyError):
            tomo.linear_inversion(counts, TS16)


class TestMle:
    def test_noiseless_bell_recovery(self):
        counts = tomo.exact_counts(qstate.bell_phi_plus(), TS36, 10 ** 6)
        result = tomo.mle_reconstruct(counts, TS36)
        assert result.converged
        assert qstate.fidelity(result.rho_hat, qstate.bell_phi_plus()) > 0.999

    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_noiseless_random_states(self, ts, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            counts = tomo.exact_counts(rho, ts, 10 ** 7)
            result = tomo.mle_reconstruct(counts, ts)
            assert qstate.fidelity(result.rho_hat, rho) > 0.999

    def test_finite_count_accuracy(self):
        rho = qstate.werner(0.85)
        counts = measure.sample_counts(rho, list(TS36.settings), 50000, 0.5, seed=11)
        result = tomo.mle_reconstruct(counts, TS36)
        assert qstate.fidelity(result.rho_hat, rho) > 0.97

    def test_estimate_is_physical(self, rng):
        rho = random_density_matrix(rng)
        counts = measure.sample_counts(rho, list(TS36.settings), 3000, 0.5, seed=5)
        result = tomo.mle_reconstruct(counts, TS36)
        qstate.check_density_matrix(result.rho_hat, atol=qstate.CHANNEL_ATOL)

    def test_objective_history_monotone(self, rng):
        rho = random_density_matrix(rng)
        counts = measure.sample_counts(rho, list(TS36.settings), 5000, 0.5, seed=7)
        result = tomo.mle_reconstruct(counts, TS36)
        h = result.objective_history
        assert len(h) >= 2
        assert all(a >= b - 1e-8 for a, b in zip(h, h[1:]))

    def test_accuracy_improves_with_counts(self):
        # Estimation error should shrink roughly as 1/sqrt(N); check the
        # trend over two decades of exposure, averaged over seeds.
        rho = qstate.werner(0.9)
        errs = []
        for exposure in (10 ** 3, 10 ** 5):
            vals = []
            for s in range(20):
                counts = measure.sample_counts(rho, list(TS36.settings),
                                               exposure, 1.0, seed=100 + s)
                result = tomo.mle_reconstruct(counts, TS36)
                vals.append(1.0 - qstate.fidelity(result.rho_hat, rho))
            errs.append(np.mean(vals))
        assert errs[1] < errs[0] / 3.0

    def test_likelihood_is_finite(self):
        counts = tomo.exact_counts(qstate.werner(0.5), TS36, 10 ** 4)
        result = tomo.mle_reconstruct(counts, TS36)
        assert np.isfinite(result.log_likelihood)

    def test_log_likelihood_matches_per_set_formula(self, rng):
        count_sets = [measure.sample_counts(random_density_matrix(rng), list(TS36.settings),
                                            3000, 0.5, seed=s) for s in range(4)]
        for counts, result in zip(count_sets, tomo.mle_reconstruct_many(count_sets, TS36)):
            n = np.array([float(r.counts) for r in counts])
            c = np.clip(tomo.forward_probabilities(result.rho_hat, TS36), 1e-300, None)
            mu = n.sum() * c / c.sum()
            expected = float(np.dot(n, np.log(mu)) - mu.sum())
            assert result.log_likelihood == pytest.approx(expected, rel=1e-12)

    def test_zero_counts_rejected(self):
        counts = [measure.CountRecord(s.label, 0) for s in TS36.settings]
        with pytest.raises(tomo.TomographyError):
            tomo.mle_reconstruct(counts, TS36)

    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_low_count_pure_states_converge(self, ts, rng):
        # Optima on the boundary of the state space, where the change of f
        # per step falls below the rounding of the projection.
        count_sets = []
        while len(count_sets) < 40:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            probs = tomo.forward_probabilities(np.outer(v, v.conj()) / np.vdot(v, v).real, ts)
            counts = [measure.CountRecord(s.label, int(k))
                      for s, k in zip(ts.settings, rng.poisson(30 * np.clip(probs, 0.0, None)))]
            if sum(r.counts for r in counts if r.setting_label in ("HH", "HV", "VH", "VV")):
                count_sets.append(counts)
        for result in tomo.mle_reconstruct_many(count_sets, ts):
            assert result.converged and result.iterations <= 2000
            qstate.check_density_matrix(result.rho_hat, atol=qstate.CHANNEL_ATOL)

    def test_only_the_iteration_cap_flags_nonconvergence(self, monkeypatch):
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        with monkeypatch.context() as patch:
            patch.setattr(tomo, "_MAX_ITER", 2)
            capped = tomo.mle_reconstruct(counts, TS36)
        assert not capped.converged and capped.iterations == 2
        qstate.check_density_matrix(capped.rho_hat, atol=qstate.CHANNEL_ATOL)
        full = tomo.mle_reconstruct(counts, TS36)
        assert full.converged and full.iterations > 2


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        a = tomo.monte_carlo_fidelity(counts, TS36, qstate.bell_phi_plus(),
                                      n_sets=12, seed=21)
        b = tomo.monte_carlo_fidelity(counts, TS36, qstate.bell_phi_plus(),
                                      n_sets=12, seed=21)
        assert a.samples == b.samples
        assert a.fidelity_mean == b.fidelity_mean

    def test_batch_composition_does_not_change_results(self):
        # A set's estimate depends on its own counts only, not on which
        # other sets share the batched solve (rows are not bit-exact).
        bell = qstate.bell_phi_plus()
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        mc = tomo.monte_carlo_fidelity(counts, TS36, bell, n_sets=12, seed=21)
        sets = resampled_sets(counts, seed=21, n_sets=12)
        alone = [qstate.fidelity(tomo.mle_reconstruct(s, TS36).rho_hat, bell) for s in sets]
        odd = [qstate.fidelity(r.rho_hat, bell)
               for r in tomo.mle_reconstruct_many(sets[1::2][::-1], TS36)][::-1]
        np.testing.assert_allclose(alone, mc.samples, rtol=0, atol=1e-6)
        np.testing.assert_allclose(odd, mc.samples[1::2], rtol=0, atol=1e-6)

    def test_spread_shrinks_with_exposure(self):
        rho = qstate.werner(0.85)
        stds = []
        for exposure in (2000, 200000):
            counts = measure.sample_counts(rho, list(TS36.settings),
                                           exposure, 1.0, seed=13)
            mc = tomo.monte_carlo_fidelity(counts, TS36, qstate.bell_phi_plus(),
                                           n_sets=30, seed=17)
            stds.append(mc.fidelity_std)
        assert stds[1] < stds[0] / 3.0

    def test_summary_consistency(self):
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        mc = tomo.monte_carlo_fidelity(counts, TS36, qstate.bell_phi_plus(),
                                       n_sets=10, seed=3)
        assert mc.n_sets == 10 and len(mc.samples) == 10
        assert mc.fidelity_mean == pytest.approx(np.mean(mc.samples))
        assert mc.fidelity_std == pytest.approx(np.std(mc.samples, ddof=1))
        assert all(0.0 <= f <= 1.0 for f in mc.samples)

    def test_requires_at_least_two_sets(self):
        counts = tomo.exact_counts(qstate.werner(0.5), TS36, 1000)
        with pytest.raises(tomo.TomographyError):
            tomo.monte_carlo_fidelity(counts, TS36, qstate.bell_phi_plus(),
                                      n_sets=1, seed=0)


def resampled_sets(counts, seed, n_sets):
    """The Poisson resamples monte_carlo_fidelity draws, as count records."""
    base = np.array([r.counts for r in counts], dtype=float)
    sets = []
    for i in range(n_sets):
        rng = np.random.default_rng(child_seed(seed, "mc-tomo", i))
        sets.append([measure.CountRecord(r.setting_label, int(k), r.duration_s)
                     for r, k in zip(counts, rng.poisson(base))])
    return sets


def profiled_objective(rho, counts, ts):
    """Negative profiled log-likelihood f = -sum n ln c + n_tot ln sum c."""
    n = np.array([float(r.counts) for r in counts])
    d = np.array([r.duration_s for r in counts])
    c = np.clip(tomo.forward_probabilities(rho, ts) * d / d.mean(), 1e-300, None)
    return float(-np.dot(n, np.log(c)) + n.sum() * np.log(c.sum()))


_OFFDIAG_IDX = [(i, j) for i in range(4) for j in range(4) if i < j]


def reference_mle(counts, ts):
    """Per-set reference solver: L-BFGS-B on the 16 real parameters of an
    upper-triangular T (rho = T^dag T / Tr), analytic gradient, from the
    linear-inversion start with eigenvalues clamped at 1e-6."""
    pis = ts.projectors
    n = np.array([float(r.counts) for r in counts])
    d = np.array([r.duration_s for r in counts])
    d = d / d.mean()
    n_tot = n.sum()

    def to_t(theta):
        t = np.zeros((4, 4), dtype=complex)
        t[np.diag_indices(4)] = theta[:4]
        for m, (i, j) in enumerate(_OFFDIAG_IDX):
            t[i, j] = theta[4 + 2 * m] + 1j * theta[5 + 2 * m]
        return t

    def objective(theta):
        t = to_t(theta)
        c = np.clip(np.real(np.einsum("kij,ji->k", pis, t.conj().T @ t)) * d, 1e-300, None)
        f = -np.dot(n, np.log(c)) + n_tot * np.log(c.sum())
        tm = t @ np.einsum("k,kij->ij", (n_tot / c.sum() - n / c) * d, pis)
        grad = np.zeros(16)
        grad[:4] = 2.0 * np.real(np.diag(tm))
        for m, (i, j) in enumerate(_OFFDIAG_IDX):
            grad[4 + 2 * m] = 2.0 * tm[i, j].real
            grad[5 + 2 * m] = 2.0 * tm[i, j].imag
        return f, grad

    rho0 = tomo.linear_inversion(counts, ts)
    vals, vecs = np.linalg.eigh((rho0 + rho0.conj().T) / 2.0)
    rho0 = (vecs * np.clip(vals, 1e-6, None)) @ vecs.conj().T
    rho0 /= np.real(np.trace(rho0))
    t0 = np.linalg.cholesky(rho0 + 1e-12 * np.eye(4)).conj().T
    theta0 = np.concatenate([np.real(np.diag(t0))]
                            + [[t0[i, j].real, t0[i, j].imag] for i, j in _OFFDIAG_IDX])
    res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-12, "maxcor": 30})
    a = to_t(res.x).conj().T @ to_t(res.x)
    return a / np.real(np.trace(a))


class TestReferenceAgreement:
    """The batched solver against the per-set L-BFGS-B reference."""

    def check_sets(self, count_sets, ts, target):
        fidelities = []
        for counts, result in zip(count_sets, tomo.mle_reconstruct_many(count_sets, ts)):
            assert result.converged
            ref = reference_mle(counts, ts)
            f_ref = profiled_objective(ref, counts, ts)
            assert profiled_objective(result.rho_hat, counts, ts) <= f_ref + 1e-9 * abs(f_ref)
            fid_ref = qstate.fidelity(ref, target)
            assert qstate.fidelity(result.rho_hat, target) == pytest.approx(fid_ref, abs=1e-5)
            fidelities.append(fid_ref)
        return np.array(fidelities)

    def test_bundled_one_microsecond_track(self):
        sc = cli.load_scenario(cli.default_config())
        rho_in = channel.input_state(sc.source)
        rho_out, coinc_prob, _ = channel.store_retrieve(rho_in, 1e-6, sc.channel)
        counts = measure.sample_counts(
            rho_out, list(TS36.settings), sc.n_trials, min(coinc_prob, 1.0),
            child_seed(sc.master_seed, "counts/t=1e-06", 0))
        seed_mc = child_seed(sc.master_seed, "mc/t=1e-06", 0)
        bell = qstate.bell_phi_plus()
        ref = self.check_sets(resampled_sets(counts, seed_mc, 20), TS36, bell)
        mc = tomo.monte_carlo_fidelity(counts, TS36, bell, 20, seed_mc)
        assert mc.fidelity_mean == pytest.approx(ref.mean(), abs=1e-5)
        assert mc.fidelity_std == pytest.approx(ref.std(ddof=1), abs=1e-5)

    def test_sixteen_settings_unequal_durations(self):
        rho = channel.input_state(channel.experiment_source_params())
        probs = tomo.forward_probabilities(rho, TS16)
        durations = [1.0 + 0.5 * (i % 3) for i in range(len(TS16.settings))]
        count_sets = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            count_sets.append([measure.CountRecord(s.label, int(rng.poisson(4000 * p * d)), d)
                               for s, p, d in zip(TS16.settings, probs, durations)])
        self.check_sets(count_sets, TS16, rho)


def random_unitaries(rng, count):
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    return np.linalg.qr(g)[0]


def hermitian_stack(rng, vals):
    """U diag(vals) U^H for Haar-random U, one matrix per row of vals."""
    u = random_unitaries(rng, len(vals))
    return (u * vals[:, None, :]) @ u.conj().swapaxes(1, 2)


def eigen_projection(h):
    """Reference projection: per matrix, eigh and the sort-based simplex
    projection of the eigenvalues (Duchi et al., ICML 2008)."""
    out = []
    for m in h:
        vals, vecs = np.linalg.eigh(m)
        u = np.sort(vals)[::-1]
        cum = np.cumsum(u)
        keep = max(j for j in range(1, 5) if u[j - 1] - (cum[j - 1] - 1.0) / j > 0)
        theta = (cum[keep - 1] - 1.0) / keep
        out.append((vecs * np.maximum(vals - theta, 0.0)) @ vecs.conj().T)
    return np.array(out)


def bundled_mle_inputs(monkeypatch, cfg):
    """The (n, dur) arrays of the one batched solve inside run_simulate."""
    seen = []
    solve = tomo._mle_many

    def spy(n, dur, ts):
        seen.append((n, dur))
        return solve(n, dur, ts)

    with monkeypatch.context() as patch:
        patch.setattr(tomo, "_mle_many", spy)
        cli.run_simulate(cli.load_scenario(cfg))
    assert len(seen) == 1
    return seen[0]


def low_count_sets(ts, rank, durations, rng, count=20, exposure=30):
    """Count sets of random rank-`rank` states: optima on the boundary."""
    sets = []
    while len(sets) < count:
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        probs = np.clip(tomo.forward_probabilities(rho / np.trace(rho).real, ts), 0.0, None)
        counts = [measure.CountRecord(s.label, int(k), d) for s, k, d in
                  zip(ts.settings, rng.poisson(exposure * probs * durations), durations)]
        if sum(r.counts for r in counts if r.setting_label in ("HH", "HV", "VH", "VV")):
            sets.append(counts)
    return sets


def unequal_durations(ts):
    """1, 1.5 and 2 in turn, with the H/V group at 1."""
    return [1.0 if s.label in ("HH", "HV", "VH", "VV") else 1.0 + 0.5 * (i % 3)
            for i, s in enumerate(ts.settings)]


DECAY_SCAN_1000 = {"master_seed": 1000, "n_mc_sets": 0,
                   "storage_times_s": [float(f"{i * 0.2:.1f}e-6") for i in range(41)]}


class TestKernels:
    """The LDL^H positive-definiteness test, the projection and the certificate prefilter."""

    def test_positive_definite_matches_eigvalsh(self):
        rng = np.random.default_rng(4)
        k = 500
        scale = 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        mixed = rng.standard_normal((k, 4)) * scale
        rank_deficient = rng.uniform(0.0, 1.0, size=(k, 4)) * scale
        rank_deficient[:, :2] *= rng.integers(0, 2, size=(k, 2))
        edge = rng.uniform(0.1, 1.0, size=(k, 4)) * scale
        edge[:, 0] = rng.choice([-1e-14, 1e-14], size=k) * edge.max(axis=1)
        positive = rng.uniform(1e-9, 1.0, size=(k, 4)) * scale
        h = hermitian_stack(rng, np.concatenate([mixed, rank_deficient, edge, positive]))
        lam = np.linalg.eigvalsh(h)
        pd = tomo._positive_definite(h)
        near = np.abs(lam[:, 0]) <= 1e-12 * np.abs(lam).max(axis=1)
        assert len(h) >= 2000
        assert np.all((pd == (lam[:, 0] > 0)) | near)
        assert pd[~near].sum() > 400 and (~pd[~near]).sum() > 400

    def test_projection_matches_eigen_reference(self):
        rng = np.random.default_rng(5)
        states = np.array([0.5 * random_density_matrix(rng) + np.eye(4) / 8 for _ in range(300)])
        noise = hermitian_stack(rng, 0.02 * rng.uniform(-1, 1, size=(300, 4)))
        interior = states + noise + rng.uniform(-1, 1, size=(300, 1, 1)) * np.eye(4)
        # One eigenvalue far below the others: the simplex drops it.
        boundary = hermitian_stack(rng, np.column_stack([np.full(300, -3.0),
                                                         rng.uniform(-1, 1, size=(300, 3))]))
        for h in (interior, boundary):
            rho = tomo._project_eig(h)
            assert np.abs(rho - eigen_projection(h)).max() <= 1e-14
            assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() <= 1e-14
            assert np.linalg.eigvalsh(rho).min() >= -1e-14

    @pytest.mark.parametrize("overrides", [{}, DECAY_SCAN_1000],
                             ids=["bundled", "decay-scan-1000"])
    def test_same_iterations_as_eigen_only_solver(self, monkeypatch, overrides):
        n, dur = bundled_mle_inputs(monkeypatch, {**cli.default_config(), **overrides})
        assert len(n) == (303 if not overrides else 42)
        self.check_against_eigen_only_solver(monkeypatch, n, dur)

    def test_boundary_sets_same_iterations_as_eigen_only_solver(self, monkeypatch):
        # The bundled sets finish in the Newton phase; these reach APG.
        sets = low_count_sets(TS36, 1, [1.0] * len(TS36.settings), np.random.default_rng(5))
        self.check_against_eigen_only_solver(monkeypatch, *tomo._as_arrays(sets, TS36))

    @staticmethod
    def check_against_eigen_only_solver(monkeypatch, n, dur):
        fast = tomo._mle_many(n, dur, TS36)
        with monkeypatch.context() as patch:
            patch.setattr(tomo, "_certified",
                          lambda g: np.linalg.eigvalsh(g)[:, 0] >= -tomo._GTOL)
            slow = tomo._mle_many(n, dur, TS36)
        assert [r.iterations for r in fast] == [r.iterations for r in slow]
        assert all(r.converged for r in fast) and all(r.converged for r in slow)
        assert max(np.abs(a.rho_hat - b.rho_hat).max() for a, b in zip(fast, slow)) <= 1e-12


class TestNewton:
    """The damped Newton phase and its hand-over to APG."""

    @pytest.mark.parametrize("overrides", [{}, DECAY_SCAN_1000],
                             ids=["bundled", "decay-scan-1000"])
    def test_interior_optima_finish_in_newton(self, monkeypatch, overrides):
        n, dur = bundled_mle_inputs(monkeypatch, {**cli.default_config(), **overrides})
        results = tomo._mle_many(n, dur, TS36)
        assert len(results) == (303 if not overrides else 42)
        assert all(r.converged and r.iterations <= 10 for r in results)
        assert all(r.newton_steps == r.iterations for r in results)

    @pytest.mark.parametrize("ts,unequal", [(TS36, False), (TS16, False), (TS16, True)],
                             ids=["36", "16", "16-unequal"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_boundary_optima_reach_apg(self, ts, unequal, rank):
        durations = unequal_durations(ts) if unequal else [1.0] * len(ts.settings)
        count_sets = low_count_sets(ts, rank, durations, np.random.default_rng(rank))
        results = tomo.mle_reconstruct_many(count_sets, ts)
        # Noise can put the optimum of a rank-deficient state inside.
        on_boundary = [np.linalg.eigvalsh(r.rho_hat)[0] < 1e-6 for r in results]
        assert sum(on_boundary) >= 0.75 * len(results)
        for result, boundary in zip(results, on_boundary):
            assert result.converged
            assert result.newton_steps < result.iterations or not boundary
            qstate.check_density_matrix(result.rho_hat, atol=qstate.CHANNEL_ATOL)
            h = result.objective_history
            assert all(a >= b for a, b in zip(h[:result.newton_steps + 1], h[1:]))

    def test_indefinite_hessian_leaves_only_its_set(self):
        # Four observed settings and unequal durations: at the start the
        # Hessian has a negative eigenvalue, so cholesky fails the stack.
        few = {"HH": 6, "VV": 4, "++": 5, "RL": 3}
        odd = [measure.CountRecord(s.label, few.get(s.label, 0), d)
               for s, d in zip(TS36.settings, unequal_durations(TS36))]
        sets = [measure.sample_counts(qstate.werner(p), list(TS36.settings), 5000, 0.5, seed)
                for seed, p in enumerate((0.6, 0.75, 0.85, 0.9))]
        batch = sets[:2] + [odd] + sets[2:]
        n, dur = tomo._as_arrays(batch, TS36)
        prob = tomo._Problem(n, dur, TS36)
        hessian = prob.hessian(prob.rates(tomo._start_states(n, dur, TS36), slice(None)),
                               slice(None))
        lowest = np.linalg.eigvalsh(hessian)[:, 0]
        assert lowest[2] < -1e-2 and np.all(np.delete(lowest, 2) > 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hessian)
        within = tomo.mle_reconstruct_many(batch, TS36)
        assert within[2].converged and within[2].newton_steps == 0 < within[2].iterations
        for counts, result in zip(sets, within[:2] + within[3:]):
            alone = tomo.mle_reconstruct(counts, TS36)
            assert result.converged and result.newton_steps == result.iterations > 0
            assert (result.iterations, result.newton_steps) == (alone.iterations,
                                                                alone.newton_steps)
            assert np.abs(result.rho_hat - alone.rho_hat).max() <= 1e-12


class TestReconstructWithMc:
    def test_tracks_batched_match_one_track_calls(self):
        sc = cli.load_scenario(cli.default_config())
        rho_in = channel.input_state(sc.source)
        tracks = [("input", rho_in, sc.input_coinc_prob)]
        for t in sc.storage_times_s:
            rho_out, coinc_prob, _ = channel.store_retrieve(rho_in, t, sc.channel)
            tracks.append((f"t={t!r}", rho_out, coinc_prob))
        count_sets = [measure.sample_counts(rho, list(TS36.settings), sc.n_trials, min(p, 1.0),
                                            child_seed(sc.master_seed, f"counts/{label}", 0))
                      for label, rho, p in tracks]
        seeds = [child_seed(sc.master_seed, f"mc/{label}", 0) for label, _, _ in tracks]
        bell = qstate.bell_phi_plus()
        points, mcs = tomo.reconstruct_with_mc(count_sets, TS36, bell, sc.n_mc_sets, seeds)
        assert len(points) == len(mcs) == 3
        for counts, seed, mc in zip(count_sets, seeds, mcs):
            alone = tomo.monte_carlo_fidelity(counts, TS36, bell, sc.n_mc_sets, seed)
            assert (mc.n_sets, mc.n_nonconverged) == (alone.n_sets, alone.n_nonconverged)
            assert abs(mc.fidelity_mean - alone.fidelity_mean) < 1e-12
            assert abs(mc.fidelity_std - alone.fidelity_std) < 1e-12
            np.testing.assert_allclose(mc.samples, alone.samples, rtol=0, atol=1e-12)

    def test_without_resamples_is_the_plain_batch(self):
        count_sets = [measure.sample_counts(qstate.werner(p), list(TS16.settings), 4000, 0.5, s)
                      for s, p in enumerate((0.6, 0.9))]
        points, mcs = tomo.reconstruct_with_mc(count_sets, TS16, qstate.bell_phi_plus(), 0, [1, 2])
        assert mcs == []
        for a, b in zip(points, tomo.mle_reconstruct_many(count_sets, TS16)):
            assert a.iterations == b.iterations
            np.testing.assert_array_equal(a.rho_hat, b.rho_hat)

    @pytest.mark.parametrize("n_sets,seeds", [(1, [0]), (-2, [0]), (3, [0, 1])])
    def test_rejects_bad_arguments(self, n_sets, seeds):
        counts = tomo.exact_counts(qstate.werner(0.5), TS36, 1000)
        with pytest.raises(ValueError):
            tomo.reconstruct_with_mc([counts], TS36, qstate.bell_phi_plus(), n_sets, seeds)


def random_count_set(rng, ts, exposure, pure):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real if pure else random_density_matrix(rng)
    probs = np.clip(tomo.forward_probabilities(rho, ts), 0.0, None)
    counts = [measure.CountRecord(s.label, int(k))
              for s, k in zip(ts.settings, rng.poisson(exposure * probs))]
    assume(sum(r.counts for r in counts if r.setting_label in ("HH", "HV", "VH", "VV")) > 0)
    return rho, counts


PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), exposure=st.integers(20, 200_000),
       pure=st.booleans(), ts=st.sampled_from([TS36, TS16]))
def test_mle_is_physical_and_no_worse_than_its_start(seed, exposure, pure, ts):
    _, counts = random_count_set(np.random.default_rng(seed), ts, exposure, pure)
    result = tomo.mle_reconstruct(counts, ts)
    assert result.converged
    qstate.check_density_matrix(result.rho_hat, atol=qstate.CHANNEL_ATOL)
    assert result.objective_history[-1] <= result.objective_history[0]


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), exposure=st.integers(200, 200_000),
       others=st.integers(1, 6), data=st.data())
def test_count_set_alone_or_in_a_batch(seed, exposure, others, data):
    rng = np.random.default_rng(seed)
    rho, counts = random_count_set(rng, TS36, exposure, pure=False)
    batch = [random_count_set(rng, TS36, exposure, pure=bool(i % 2))[1] for i in range(others)]
    at = data.draw(st.integers(0, others))
    batch.insert(at, counts)
    alone = tomo.mle_reconstruct(counts, TS36)
    within = tomo.mle_reconstruct_many(batch, TS36)[at]
    assert abs(qstate.fidelity(alone.rho_hat, rho) - qstate.fidelity(within.rho_hat, rho)) < 1e-6
