import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from holomem import channel, cli, measure, qstate, tomo
from holomem.measure import child_seed
from conftest import BUNDLED, SPARSE_PAIR, exact_counts, random_density_matrix


TS36 = tomo.make_settings(36)
TS16 = tomo.make_settings(16)


HV_GROUP = ("HH", "HV", "VH", "VV")


def stacked(count_sets):
    """(B, K) count and duration arrays of (n, dur) count sets."""
    n, dur = zip(*count_sets)
    return np.array(n, dtype=float), np.array(dur, dtype=float)


def mle_reconstruct_many(count_sets, ts):
    """One batched solve of several (n, dur) count sets."""
    return tomo._mle_many(*stacked(count_sets), ts)


# Rates recomputed at an accepted iterate round, so a step that lowered f can
# read as a rise of f / n_tot of up to about 1.2e-17 (the largest seen over the
# sweep, low-count and bundled sets).  ROUNDING allows for that and for no
# more than about an ulp of f / n_tot.
ROUNDING = 1e-16


class ObjectiveRecord:
    """solve(*args) and, for each count set of the one batched solve it runs,
    the rates c of the start and of each accepted iterate.  _mle_many hands
    them to _Problem.gradient: for all sets at the start, then for the sets
    of each accepted step."""

    def __init__(self, solve, *args):
        self.prob, self.rates = None, []
        gradient = tomo._Problem.gradient

        def spy(prob, c, rows):
            c = c.copy()
            if self.prob is None:
                np.testing.assert_array_equal(rows, np.arange(len(c)))
                self.prob, self.rates = prob, [[row] for row in c]
            else:
                assert prob is self.prob
                for r, row in zip(rows.tolist(), c):
                    self.rates[r].append(row)
            return gradient(prob, c, rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tomo._Problem, "gradient", spy)
            self.result = solve(*args)

    def changes(self, i):
        """f / n_tot after minus before each accepted step of set i, by the
        solver's cancellation-free change."""
        c = np.array(self.rates[i])
        return self.prob.change(c[:-1], np.diff(c, axis=0), np.full(len(c) - 1, i))

    def net_change(self, i):
        """f / n_tot at the last recorded iterate of set i minus at its start."""
        c = np.array(self.rates[i])[[0, -1]]
        return self.prob.change(c[:1], np.diff(c, axis=0), [i])[0]

    def nonincreasing(self, i):
        return bool(np.all(self.changes(i) <= ROUNDING))


class TestSchemes:
    def test_setting_counts(self):
        assert len(TS36.settings) == 36
        assert len(TS16.settings) == 16

    def test_both_schemes_informationally_complete(self):
        for ts in (TS36, TS16):
            k = len(ts.settings)
            assert np.linalg.matrix_rank(ts.projectors.reshape(k, 16), tol=1e-10) == 16

    def test_labels_are_distinct(self):
        for ts in (TS36, TS16):
            labels = [s.label for s in ts.settings]
            assert len(set(labels)) == len(labels)

    def test_unknown_scheme(self):
        with pytest.raises(tomo.TomographyError):
            tomo.make_settings(9)

    def test_forward_probabilities_match_born_rule(self, rng):
        rho = random_density_matrix(rng)
        probs = measure.born_probabilities(rho, TS36.projectors)
        for p, s in zip(probs, TS36.settings):
            assert p == pytest.approx(measure.coincidence_prob(rho, s), abs=1e-12)


class TestLinearInversion:
    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_exact_recovery_from_noiseless_counts(self, ts, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            probs = measure.born_probabilities(rho, ts.projectors)
            # Bypass integer rounding: feed exact expected counts scaled up.
            counts = np.round(probs * 10 ** 12)
            rho_li = tomo.linear_inversion(counts, np.ones(len(counts)), ts)
            np.testing.assert_allclose(rho_li, rho, atol=1e-9)

    def test_unit_trace_on_noisy_counts(self, rng):
        rho = qstate.werner(0.8)
        counts = measure.sample_counts(rho, list(TS36.settings), 20000, 0.5, seed=3)
        rho_li = tomo.linear_inversion(counts, np.ones(36), TS36)
        assert np.real(np.trace(rho_li)) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(rho_li, rho_li.conj().T, atol=1e-10)

    def test_handles_unequal_durations(self):
        rho = qstate.bell_phi_plus()
        probs = measure.born_probabilities(rho, TS16.projectors)
        # Varied durations outside the H/V group; the group itself keeps a
        # common duration so the exposure estimate stays exact.
        durations = [1.0 + 0.5 * (i % 3) for i in range(len(TS16.settings))]
        dur = np.array([1.0 if s.label in HV_GROUP else d
                        for s, d in zip(TS16.settings, durations)])
        counts = np.round(probs * dur * 10 ** 9)
        np.testing.assert_allclose(tomo.linear_inversion(counts, dur, TS16), rho, atol=1e-6)

    def test_misaligned_records_rejected(self):
        # Counts of the 36-setting scheme do not fit the 16 settings.
        with pytest.raises(tomo.TomographyError, match="mismatch"):
            tomo.linear_inversion(np.full(36, 10.0), np.ones(36), TS16)

    def test_zero_total_counts_rejected(self):
        with pytest.raises(tomo.TomographyError):
            tomo.linear_inversion(np.zeros(16), np.ones(16), TS16)


class TestMle:
    def test_noiseless_bell_recovery(self):
        counts = exact_counts(qstate.bell_phi_plus(), TS36, 10 ** 6)
        result = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        assert result.converged
        assert qstate.fidelity(result.rho_hat, qstate.bell_phi_plus()) > 0.999

    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_noiseless_random_states(self, ts, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            counts = exact_counts(rho, ts, 10 ** 7)
            result = tomo.mle_reconstruct(counts, np.ones(len(counts)), ts)
            assert qstate.fidelity(result.rho_hat, rho) > 0.999

    def test_finite_count_accuracy(self):
        rho = qstate.werner(0.85)
        counts = measure.sample_counts(rho, list(TS36.settings), 50000, 0.5, seed=11)
        result = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        assert qstate.fidelity(result.rho_hat, rho) > 0.97

    def test_estimate_is_physical(self, rng):
        rho = random_density_matrix(rng)
        counts = measure.sample_counts(rho, list(TS36.settings), 3000, 0.5, seed=5)
        result = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        qstate.check_density_matrix(result.rho_hat, atol=qstate.CHANNEL_ATOL)

    def test_objective_history_monotone(self, rng):
        rho = random_density_matrix(rng)
        counts = measure.sample_counts(rho, list(TS36.settings), 5000, 0.5, seed=7)
        record = ObjectiveRecord(tomo.mle_reconstruct, counts, np.ones(36), TS36)
        assert len(record.rates[0]) >= 2
        assert record.nonincreasing(0)

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
                result = tomo.mle_reconstruct(counts, np.ones(36), TS36)
                vals.append(1.0 - qstate.fidelity(result.rho_hat, rho))
            errs.append(np.mean(vals))
        assert errs[1] < errs[0] / 3.0

    def test_likelihood_is_finite(self):
        counts = exact_counts(qstate.werner(0.5), TS36, 10 ** 4)
        result = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        assert np.isfinite(result.log_likelihood)

    def test_log_likelihood_matches_per_set_formula(self, rng):
        count_sets = [(measure.sample_counts(random_density_matrix(rng), list(TS36.settings),
                                             3000, 0.5, seed=s), np.ones(36)) for s in range(4)]
        results = mle_reconstruct_many(count_sets, TS36)
        for i, (counts, _) in enumerate(count_sets):
            n, result = counts.astype(float), results[i]
            c = np.clip(measure.born_probabilities(result.rho_hat, TS36.projectors), 1e-300, None)
            mu = n.sum() * c / c.sum()
            expected = float(np.dot(n, np.log(mu)) - mu.sum())
            assert result.log_likelihood == pytest.approx(expected, rel=1e-12)

    def test_zero_counts_rejected(self):
        with pytest.raises(tomo.TomographyError):
            tomo.mle_reconstruct(np.zeros(36), np.ones(36), TS36)

    @pytest.mark.parametrize("ts", [TS36, TS16], ids=["36", "16"])
    def test_low_count_pure_states_converge(self, ts, rng):
        # Optima on the boundary of the state space.
        count_sets = []
        while len(count_sets) < 40:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = np.outer(v, v.conj()) / np.vdot(v, v).real
            probs = measure.born_probabilities(rho, ts.projectors)
            counts = rng.poisson(30 * np.clip(probs, 0.0, None))
            if sum(k for s, k in zip(ts.settings, counts) if s.label in HV_GROUP):
                count_sets.append((counts, np.ones(len(counts))))
        results = mle_reconstruct_many(count_sets, ts)
        assert results.converged.all() and results.iterations.max() <= 2000
        qstate.check_density_matrix(results.rho_hat, atol=qstate.CHANNEL_ATOL)

    def test_only_the_iteration_cap_flags_nonconvergence(self, monkeypatch):
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        with monkeypatch.context() as patch:
            patch.setattr(tomo, "_MAX_ITER", 2)
            capped = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        assert not capped.converged and capped.iterations == 2
        qstate.check_density_matrix(capped.rho_hat, atol=qstate.CHANNEL_ATOL)
        full = tomo.mle_reconstruct(counts, np.ones(36), TS36)
        assert full.converged and full.iterations > 2


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        a = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, qstate.bell_phi_plus(),
                                      n_sets=12, seed=21)
        b = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, qstate.bell_phi_plus(),
                                      n_sets=12, seed=21)
        assert a.tobytes() == b.tobytes()
        assert a.mean() == b.mean()

    def test_batch_composition_does_not_change_results(self):
        # A set's estimate depends on its own counts only, not on which
        # other sets share the batched solve (rows are not bit-exact).
        bell = qstate.bell_phi_plus()
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        mc = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, bell, n_sets=12, seed=21)
        sets = resampled_sets(counts, np.ones(36), seed=21, n_sets=12)
        alone = [qstate.fidelity(tomo.mle_reconstruct(*s, TS36).rho_hat, bell) for s in sets]
        odd = qstate.fidelity(mle_reconstruct_many(sets[1::2][::-1], TS36).rho_hat, bell)[::-1]
        np.testing.assert_allclose(alone, mc, rtol=0, atol=1e-6)
        np.testing.assert_allclose(odd, mc[1::2], rtol=0, atol=1e-6)

    def test_spread_shrinks_with_exposure(self):
        rho = qstate.werner(0.85)
        stds = []
        for exposure in (2000, 200000):
            counts = measure.sample_counts(rho, list(TS36.settings),
                                           exposure, 1.0, seed=13)
            mc = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, qstate.bell_phi_plus(),
                                           n_sets=30, seed=17)
            stds.append(mc.std(ddof=1))
        assert stds[1] < stds[0] / 3.0

    def test_summary_consistency(self):
        # The report's "mc" block summarizes the fidelities of the resample stack.
        bell = qstate.bell_phi_plus()
        counts = measure.sample_counts(qstate.werner(0.85), list(TS36.settings),
                                       5000, 0.5, seed=9)
        mc = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, bell, n_sets=10, seed=3)
        _, stack, failed = tomo.reconstruct_with_mc(counts[None], np.ones((1, 36)), TS36, 10, [3])
        (block,) = cli._mc_blocks(bell, stack, failed)
        assert block["n_sets"] == 10 and mc.shape == (10,)
        assert block["mean"] == pytest.approx(np.mean(mc))
        assert block["std"] == pytest.approx(np.std(mc, ddof=1))
        assert all(0.0 <= f <= 1.0 for f in mc)

    def test_requires_at_least_two_sets(self):
        counts = exact_counts(qstate.werner(0.5), TS36, 1000)
        with pytest.raises(tomo.TomographyError):
            tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, qstate.bell_phi_plus(),
                                      n_sets=1, seed=0)


def resampled_sets(n, dur, seed, n_sets):
    """The Poisson resamples monte_carlo_fidelity draws, as (n, dur) count sets."""
    base = np.asarray(n, dtype=float)
    draws = np.random.default_rng(child_seed(seed, "mc-tomo", 0)).poisson(base, (n_sets, len(base)))
    return [(row, dur) for row in draws]


def profiled_objective(rho, n, d, ts):
    """Negative profiled log-likelihood f = -sum n ln c + n_tot ln sum c."""
    n = np.asarray(n, dtype=float)
    c = np.clip(measure.born_probabilities(rho, ts.projectors) * d / d.mean(), 1e-300, None)
    return float(-np.dot(n, np.log(c)) + n.sum() * np.log(c.sum()))


_OFFDIAG_IDX = [(i, j) for i in range(4) for j in range(4) if i < j]


def reference_mle(n, dur, ts):
    """Per-set reference solver: L-BFGS-B on the 16 real parameters of an
    upper-triangular T (rho = T^dag T / Tr), analytic gradient, from the
    linear-inversion start with eigenvalues clamped at 1e-6."""
    pis = ts.projectors
    n = np.asarray(n, dtype=float)
    d = dur / np.mean(dur)
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

    rho0 = tomo.linear_inversion(n, dur, ts)
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
        results = mle_reconstruct_many(count_sets, ts)
        for i, (n, dur) in enumerate(count_sets):
            result = results[i]
            assert result.converged
            ref = reference_mle(n, dur, ts)
            f_ref = profiled_objective(ref, n, dur, ts)
            assert profiled_objective(result.rho_hat, n, dur, ts) <= f_ref + 1e-9 * abs(f_ref)
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
        ref = self.check_sets(resampled_sets(counts, np.ones(36), seed_mc, 20), TS36, bell)
        mc = tomo.monte_carlo_fidelity(counts, np.ones(36), TS36, bell, 20, seed_mc)
        assert mc.mean() == pytest.approx(ref.mean(), abs=1e-5)
        assert mc.std(ddof=1) == pytest.approx(ref.std(ddof=1), abs=1e-5)

    def test_sixteen_settings_unequal_durations(self):
        rho = channel.input_state(BUNDLED.source)
        probs = measure.born_probabilities(rho, TS16.projectors)
        durations = [1.0 + 0.5 * (i % 3) for i in range(len(TS16.settings))]
        count_sets = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            count_sets.append((np.array([rng.poisson(4000 * p * d)
                                         for p, d in zip(probs, durations)]), np.array(durations)))
        self.check_sets(count_sets, TS16, rho)


def random_unitaries(rng, count):
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    return np.linalg.qr(g)[0]


def hermitian_stack(rng, vals):
    """U diag(vals) U^H for Haar-random U, one matrix per row of vals."""
    u = random_unitaries(rng, len(vals))
    return (u * vals[:, None, :]) @ u.conj().swapaxes(1, 2)


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
        probs = np.clip(measure.born_probabilities(rho / np.trace(rho).real, ts.projectors),
                        0.0, None)
        counts = rng.poisson(exposure * probs * durations)
        if sum(k for s, k in zip(ts.settings, counts) if s.label in HV_GROUP):
            sets.append((counts, np.asarray(durations, dtype=float)))
    return sets


def unequal_durations(ts):
    """1, 1.5 and 2 in turn, with the H/V group at 1."""
    return [1.0 if s.label in HV_GROUP else 1.0 + 0.5 * (i % 3)
            for i, s in enumerate(ts.settings)]


DECAY_SCAN_1000 = {"master_seed": 1000, "n_mc_sets": 0,
                   "storage_times_s": [float(f"{i * 0.2:.1f}e-6") for i in range(41)]}


class TestKernels:
    """The LDL^H positive-definiteness test and the certificate prefilter."""

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
        pd = qstate.positive_definite(h)
        near = np.abs(lam[:, 0]) <= 1e-12 * np.abs(lam).max(axis=1)
        assert len(h) >= 2000
        assert np.all((pd == (lam[:, 0] > 0)) | near)
        assert pd[~near].sum() > 400 and (~pd[~near]).sum() > 400

    @pytest.mark.parametrize("overrides", [{}, DECAY_SCAN_1000],
                             ids=["bundled", "decay-scan-1000"])
    def test_same_iterations_as_eigen_only_solver(self, monkeypatch, overrides):
        n, dur = bundled_mle_inputs(monkeypatch, {**cli.default_config(), **overrides})
        assert len(n) == (303 if not overrides else 42)
        self.check_against_eigen_only_solver(monkeypatch, n, dur)

    def test_boundary_sets_same_iterations_as_eigen_only_solver(self, monkeypatch):
        # The bundled sets finish in the Newton phase; these reach the factored phase.
        sets = low_count_sets(TS36, 1, [1.0] * len(TS36.settings), np.random.default_rng(5))
        self.check_against_eigen_only_solver(monkeypatch, *stacked(sets))

    @staticmethod
    def check_against_eigen_only_solver(monkeypatch, n, dur):
        fast = tomo._mle_many(n, dur, TS36)
        with monkeypatch.context() as patch:
            patch.setattr(tomo, "_certified",
                          lambda g: np.linalg.eigvalsh(g)[:, 0] >= -tomo._GTOL)
            slow = tomo._mle_many(n, dur, TS36)
        np.testing.assert_array_equal(fast.iterations, slow.iterations)
        assert fast.converged.all() and slow.converged.all()
        assert np.abs(fast.rho_hat - slow.rho_hat).max() <= 1e-12


def eigh_clamped_starts(n, dur, ts):
    """The start by eigh of every linear inversion: eigenvalues clamped at 1e-6, unit trace."""
    vals, vecs = np.linalg.eigh(tomo._hermitian_part(tomo._linear_inversion_many(n, dur, ts)))
    rho = (vecs * np.clip(vals, 1e-6, None)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]


class TestStartStates:
    """_start_states eigendecomposes only the inversions that fail the LDL^H
    test of rho - 1e-6 I; the others are already clamped."""

    def test_bundled_starts_match_eigh_clamp(self, monkeypatch):
        n, dur = bundled_mle_inputs(monkeypatch, cli.default_config())
        starts = tomo._start_states(n, dur, TS36)
        assert np.abs(starts - eigh_clamped_starts(n, dur, TS36)).max() <= 1e-14

    def test_clamped_rows_equal_eigh_clamp(self):
        rng = np.random.default_rng(11)
        # Two states with lambda_min = 1e-6 (1 +- 1e-3) at 1e12 trials per
        # setting, so their inversions sit 1e-9 either side of the clamp.
        near = [exact_counts(hermitian_stack(rng, np.array([[low, 0.2, 0.3, 0.5 - low]]))[0],
                             TS36, 1e12) for low in (1e-6 * (1 + 1e-3), 1e-6 * (1 - 1e-3))]
        sets = ([(np.array(row), np.ones(36)) for row in SPARSE_PAIR]
                + low_count_sets(TS36, 2, [1.0] * 36, rng, count=6)
                + [(measure.sample_counts(qstate.werner(0.8), list(TS36.settings), 10 ** 6, 0.5,
                                          seed), np.ones(36)) for seed in range(4)]
                + [(counts, np.ones(36)) for counts in near])
        n, dur = stacked(sets)
        inversions = tomo._hermitian_part(tomo._linear_inversion_many(n, dur, TS36))
        lowest = np.linalg.eigvalsh(inversions)[:, 0]
        clamp = lowest <= 1e-6
        assert clamp[:2].all() and clamp[2:8].sum() >= 4 and not clamp[8:12].any()
        assert clamp[12:].tolist() == [False, True]
        assert np.abs(lowest[12:] / 1e-6 - 1.0).max() < 2e-3
        np.testing.assert_array_equal(qstate.positive_definite(inversions - 1e-6 * np.eye(4)),
                                      ~clamp)
        starts, reference = tomo._start_states(n, dur, TS36), eigh_clamped_starts(n, dur, TS36)
        np.testing.assert_array_equal(starts[clamp], reference[clamp])
        assert np.abs(starts - reference).max() <= 1e-14


class TestNewton:
    """The damped Newton phase and its hand-over to the factored phase."""

    @pytest.mark.parametrize("overrides", [{}, DECAY_SCAN_1000],
                             ids=["bundled", "decay-scan-1000"])
    def test_interior_optima_finish_in_newton(self, monkeypatch, overrides):
        n, dur = bundled_mle_inputs(monkeypatch, {**cli.default_config(), **overrides})
        results = tomo._mle_many(n, dur, TS36)
        assert results.converged.shape == (303 if not overrides else 42,)
        assert results.converged.all() and results.iterations.max() <= 10
        np.testing.assert_array_equal(results.newton_steps, results.iterations)

    @pytest.mark.parametrize("ts,unequal", [(TS36, False), (TS16, False), (TS16, True)],
                             ids=["36", "16", "16-unequal"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_boundary_optima_reach_factored_phase(self, ts, unequal, rank):
        durations = unequal_durations(ts) if unequal else [1.0] * len(ts.settings)
        count_sets = low_count_sets(ts, rank, durations, np.random.default_rng(rank))
        record = ObjectiveRecord(mle_reconstruct_many, count_sets, ts)
        results = record.result
        # Noise can put the optimum of a rank-deficient state inside.
        on_boundary = np.linalg.eigvalsh(results.rho_hat)[:, 0] < 1e-6
        assert on_boundary.sum() >= 0.75 * len(count_sets)
        assert results.converged.all()
        assert np.all((results.newton_steps < results.iterations) | ~on_boundary)
        qstate.check_density_matrix(results.rho_hat, atol=qstate.CHANNEL_ATOL)
        assert all(record.nonincreasing(i) for i in range(len(count_sets)))

    def test_indefinite_hessian_leaves_only_its_set(self):
        # Four observed settings and unequal durations: at the start the
        # Hessian has a negative eigenvalue, so cholesky fails the stack.
        few = {"HH": 6, "VV": 4, "++": 5, "RL": 3}
        odd = (np.array([few.get(s.label, 0) for s in TS36.settings]),
               np.array(unequal_durations(TS36)))
        sets = [(measure.sample_counts(qstate.werner(p), list(TS36.settings), 5000, 0.5, seed),
                 np.ones(36)) for seed, p in enumerate((0.6, 0.75, 0.85, 0.9))]
        batch = sets[:2] + [odd] + sets[2:]
        n, dur = stacked(batch)
        prob = tomo._Problem(n, dur, TS36)
        hessian = prob.hessian(prob.rates(tomo._start_states(n, dur, TS36), slice(None)),
                               slice(None))
        lowest = np.linalg.eigvalsh(hessian)[:, 0]
        assert lowest[2] < -1e-2 and np.all(np.delete(lowest, 2) > 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hessian)
        within = mle_reconstruct_many(batch, TS36)
        assert within[2].converged and within[2].newton_steps == 0 < within[2].iterations
        for counts, i in zip(sets, (0, 1, 3, 4)):
            result, alone = within[i], tomo.mle_reconstruct(*counts, TS36)
            assert result.converged and result.newton_steps == result.iterations > 0
            assert (result.iterations, result.newton_steps) == (alone.iterations,
                                                                alone.newton_steps)
            assert np.abs(result.rho_hat - alone.rho_hat).max() <= 1e-12


class TestSparseCounts:
    def test_pair_solves_as_each_set_alone(self):
        # Whether a singular-up-to-rounding Hessian passed the positive-definite
        # test once depended on the batch: this pair raised a singular-matrix error.
        n = np.array(SPARSE_PAIR, dtype=float)
        points, _, _ = tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, 0, [0, 0])
        for i, iterations in enumerate((4, 5)):
            alone = tomo.mle_reconstruct(n[i], np.ones(36), TS36)
            assert points[i].converged and alone.converged
            assert points[i].iterations == alone.iterations == iterations
            assert np.abs(points[i].rho_hat - alone.rho_hat).max() <= 1e-12


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
        n = np.array(count_sets)
        points, stack, failed = tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, sc.n_mc_sets,
                                                         seeds)
        assert points.rho_hat.shape == (3, 4, 4) and failed.shape == (3,)
        assert stack.shape == (3, sc.n_mc_sets, 4, 4)
        for counts, seed, states, k in zip(count_sets, seeds, stack, failed):
            _, (alone,), (k_alone,) = tomo.reconstruct_with_mc(
                counts[None], np.ones((1, 36)), TS36, sc.n_mc_sets, [seed])
            mc, alone = qstate.fidelity(bell, states), qstate.fidelity(bell, alone)
            assert k == k_alone
            assert abs(mc.mean() - alone.mean()) < 1e-12
            assert abs(mc.std(ddof=1) - alone.std(ddof=1)) < 1e-12
            np.testing.assert_allclose(mc, alone, rtol=0, atol=1e-12)

    def test_without_resamples_is_the_plain_batch(self):
        count_sets = [measure.sample_counts(qstate.werner(p), list(TS16.settings), 4000, 0.5, s)
                      for s, p in enumerate((0.6, 0.9))]
        n = np.array(count_sets)
        points, stack, failed = tomo.reconstruct_with_mc(n, np.ones(n.shape), TS16, 0, [1, 2])
        assert stack.shape == (2, 0, 4, 4) and failed.tolist() == [0, 0]
        plain = mle_reconstruct_many([(c, np.ones(16)) for c in n], TS16)
        np.testing.assert_array_equal(points.iterations, plain.iterations)
        np.testing.assert_array_equal(points.rho_hat, plain.rho_hat)

    def test_each_track_is_one_draw_from_its_seed(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = rng.poisson(rng.uniform(0.0, 400.0, size=(3, 36))).astype(float)
        seeds = [11, 12, 13]
        together = drawn_resamples(monkeypatch, n, seeds, 50).reshape(3, 50, 36)
        for j, (row, seed) in enumerate(zip(n, seeds)):
            expected = np.random.default_rng(child_seed(seed, "mc-tomo", 0)).poisson(row, (50, 36))
            assert together[j].astype(expected.dtype).tobytes() == expected.tobytes()
            alone = drawn_resamples(monkeypatch, n[j:j + 1], [seed], 50)
            assert alone.tobytes() == together[j].tobytes()

    def test_resamples_are_poisson_about_the_counts(self, monkeypatch):
        n = np.array([0, 1, 2, 5, 13, 40, 150, 700, 3000] * 4, dtype=float)
        draws = drawn_resamples(monkeypatch, n[None], [5], 2500)
        assert draws.shape == (2500, 36)
        assert np.all(draws[:, n == 0] == 0)
        seen, lam = draws[:, n > 0], n[n > 0]
        # Standard errors of the sample mean and variance of Poisson(lam).
        mean_se = np.sqrt(lam / len(draws))
        var_se = np.sqrt((lam + 2.0 * lam ** 2) / len(draws))
        assert np.all(np.abs(seen.mean(axis=0) - lam) <= 4.0 * mean_se)
        assert np.all(np.abs(seen.var(axis=0, ddof=1) - lam) <= 4.0 * var_se)

    def test_empty_resample_is_named_before_the_solve(self, monkeypatch):
        # Set 1 holds one count, so each of its resamples is empty with
        # probability e^-1; set 0 holds 1,800 and has no empty resample.
        n = np.stack([np.full(36, 50.0), np.eye(36)[3]])
        draws = np.random.default_rng(child_seed(8, "mc-tomo", 0)).poisson(n[1], (20, 36))
        first_empty = int(np.flatnonzero(draws.sum(axis=1) == 0)[0])

        def solve(*args):
            raise AssertionError("solved despite an empty resample")

        monkeypatch.setattr(tomo, "_mle_many", solve)
        with pytest.raises(tomo.EmptyResampleError) as err:
            tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, 20, [7, 8])
        assert (err.value.set_index, err.value.resample) == (1, first_empty)
        assert str(err.value) == (f"Monte Carlo resample {first_empty} of count set 1 "
                                  "drew no counts")

    def test_count_above_the_poisson_limit_names_its_set(self):
        n = np.stack([np.full(36, 50.0), np.r_[np.full(24, 1e30), np.zeros(12)]])
        with pytest.raises(measure.PoissonLimitError) as err:
            tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, 5, [7, 8])
        assert err.value.row == 1
        # Without resamples there is no draw, and the counts solve.
        points, _, _ = tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, 0, [7, 8])
        assert points.converged.all()

    def test_set_without_counts_keeps_its_own_message(self):
        n = np.stack([np.full(36, 50.0), np.zeros(36)])
        with pytest.raises(tomo.TomographyError, match="^total counts must be positive$"):
            tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, 5, [7, 8])

    @pytest.mark.parametrize("n_sets,seeds", [(1, [0]), (-2, [0]), (3, [0, 1])])
    def test_rejects_bad_arguments(self, n_sets, seeds):
        counts = exact_counts(qstate.werner(0.5), TS36, 1000)
        with pytest.raises(ValueError):
            tomo.reconstruct_with_mc(counts[None], np.ones((1, 36)), TS36, n_sets, seeds)


    @pytest.mark.parametrize("n,dur", [(np.ones((2, 16)), np.ones((2, 16))),
                                       (np.ones((2, 36)), np.ones((1, 36))),
                                       (np.ones(36), np.ones(36))], ids=["K", "B", "1-D"])
    def test_rejects_arrays_not_matching_the_scheme(self, n, dur):
        with pytest.raises(tomo.TomographyError, match="mismatch"):
            tomo.reconstruct_with_mc(n, dur, TS36, 0, [0, 1])

    @pytest.mark.parametrize("count,duration,message", [
        (-50.0, 1.0, "counts must be >= 0, got -50"),
        (math.nan, 1.0, "counts must be finite and whole, got nan"),
        (100.0, -1.0, "duration must be finite and positive, got -1.0"),
        (100.0, math.inf, "duration must be finite and positive, got inf"),
    ], ids=["negative-count", "nan-count", "negative-duration", "infinite-duration"])
    @pytest.mark.parametrize("entry", ["mle_reconstruct", "reconstruct_with_mc"])
    def test_rejects_values_breaking_the_count_rule(self, entry, count, duration, message):
        n, dur = exact_counts(qstate.werner(0.9), TS36, 1e4), np.ones(36)
        n[5], dur[5] = count, duration
        with pytest.raises(tomo.TomographyError, match=f"^{re.escape(message)}$"):
            if entry == "mle_reconstruct":
                tomo.mle_reconstruct(n, dur, TS36)
            else:
                tomo.reconstruct_with_mc(n[None], dur[None], TS36, 2, [0])


def drawn_resamples(monkeypatch, n, seeds, n_sets):
    """The resampled counts reconstruct_with_mc hands its solve, which is not run."""

    class Drawn(Exception):
        pass

    def capture(counts, durations, ts):
        raise Drawn(counts[len(n):])

    with monkeypatch.context() as patch:
        patch.setattr(tomo, "_mle_many", capture)
        with pytest.raises(Drawn) as drawn:
            tomo.reconstruct_with_mc(n, np.ones(n.shape), TS36, n_sets, seeds)
    return drawn.value.args[0]


@pytest.fixture(scope="module")
def bundled_solves():
    """run_simulate's batched solve at master seeds 7000-7019 of the bundled
    scenario: each solve's (n, dur, results)."""
    solves = []
    solve = tomo._mle_many

    def spy_solve(n, dur, ts):
        results = solve(n, dur, ts)
        solves.append((n, dur, results))
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomo, "_mle_many", spy_solve)
        for seed in range(7000, 7020):
            cli.run_simulate(cli.load_scenario({**cli.default_config(), "master_seed": seed}))
    return solves


@pytest.fixture(scope="module")
def left_interior(bundled_solves):
    """(n, dur) of the bundled count sets the interior Newton phase left uncertified."""
    n, dur, left = (np.concatenate(parts) for parts in zip(
        *((n, dur, r.newton_steps < r.iterations) for n, dur, r in bundled_solves)))
    return n[left], dur[left]


def test_bundled_runs_finish_in_few_factored_steps(bundled_solves):
    # Timing-free guard on the factored Newton phase.  Measured: 13 of the
    # 6,060 sets leave the interior phase and take 3-8 factored steps; the
    # bound admits twice that.
    assert len(bundled_solves) == 20 and all(len(n) == 303 for n, _, _ in bundled_solves)
    converged = np.concatenate([r.converged for _, _, r in bundled_solves])
    factored = np.concatenate([r.iterations - r.newton_steps for _, _, r in bundled_solves])
    assert converged.all() and factored.max() <= 16


# Cells (scheme, rank, counts scale, unequal durations) of sweep_sets in
# which a factored phase without damping, capped at 20 steps, leaves a set
# uncertified (with the former gradient fallback it took 21-64 steps).
SWEEP_CELLS = [(36, 1, 30, False), (36, 1, 30000, True), (36, 2, 30000, True),
               (36, 3, 30, True), (16, 1, 30000, True), (16, 2, 30, False),
               (16, 2, 30000, False)]


def sweep_sets(scheme, rank, level, unequal, count=250):
    """(ts, n, dur) of `count` seeded count sets of random rank-`rank` states
    at `level` times each probability, with unit or uniform(0.5, 2) durations."""
    ts = tomo.make_settings(scheme)
    k = len(ts.settings)
    hv = np.array([s.label in ("HH", "HV", "VH", "VV") for s in ts.settings])
    rng = np.random.default_rng([scheme, rank, level, unequal])
    n, dur = [], []
    while len(n) < count:
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        probs = np.clip(measure.born_probabilities(rho / np.trace(rho).real, ts.projectors),
                        0.0, None)
        d = rng.uniform(0.5, 2.0, k) if unequal else np.ones(k)
        counts = rng.poisson(level * probs * d)
        if counts[hv].sum():
            n.append(counts)
            dur.append(d)
    return ts, np.array(n, dtype=float), np.array(dur)


def normalized_gradient(rho, n, dur, ts):
    """G = grad f / n_tot = sum_k d_k (1 / C - nu_k / c_k) Pi_k with c_k = d_k Tr(rho Pi_k),
    over the observed settings for the nu_k / c_k term."""
    d = dur / dur.mean()
    c = d * measure.born_probabilities(rho, ts.projectors)
    ratio = np.divide(n / n.sum(), c, out=np.zeros_like(c), where=n > 0)
    return np.einsum("k,kij->ij", d * (1.0 / c.sum() - ratio), ts.projectors)


class TestFactoredNewton:
    """The damped factored Newton phase on the sets the interior phase leaves."""

    def test_boundary_sets_certified_without_apg(self, left_interior):
        n, dur = left_interior
        assert len(n) >= 10
        record = ObjectiveRecord(tomo._mle_many, n, dur, TS36)
        results = record.result
        assert results.converged.all() and np.all(results.newton_steps < results.iterations)
        assert all(record.nonincreasing(i) for i in range(len(n)))

    def test_agrees_with_reference_mle(self, left_interior):
        n, dur = left_interior
        TestReferenceAgreement().check_sets(list(zip(n, dur)), TS36, qstate.bell_phi_plus())

    def test_step_cap_flags_nonconvergence(self, monkeypatch, tmp_path, left_interior):
        n, dur = left_interior
        monkeypatch.setattr(tomo, "_MAX_FACTORED_STEPS", 1)
        record = ObjectiveRecord(tomo._mle_many, n, dur, TS36)
        results = record.result
        assert not results.converged.any() and np.all(results.newton_steps < results.iterations)
        assert all(record.nonincreasing(i) for i in range(len(n)))
        seeds = list(range(len(n)))
        points, _, failed = tomo.reconstruct_with_mc(n, dur, TS36, 20, seeds)
        assert not points.converged.any()
        for row, drow, seed, k in zip(n, dur, seeds, failed):
            draws = np.random.default_rng(child_seed(seed, "mc-tomo", 0)).poisson(row, (20, 36))
            alone = tomo._mle_many(draws.astype(float), np.repeat(drow[None], 20, axis=0), TS36)
            assert k == (~alone.converged).sum()
        assert failed.sum() > 0
        path = tmp_path / "counts.csv"
        path.write_text(measure.counts_to_csv(TS36.settings, n[0], dur[0]))
        out = tmp_path / "out.json"
        assert cli.main(["tomo", "--counts", str(path), "--out", str(out)]) == cli.EXIT_NONCONVERGENCE
        assert json.loads(out.read_text())["converged"] is False

    @pytest.mark.parametrize("cell", SWEEP_CELLS, ids=lambda c: "-".join(map(str, c)))
    def test_regression_sweep_certified(self, cell):
        ts, n, dur = sweep_sets(*cell)
        record = ObjectiveRecord(tomo._mle_many, n, dur, ts)
        for i, (row, drow) in enumerate(zip(n, dur)):
            result = record.result[i]
            assert result.converged and record.nonincreasing(i)
            g = normalized_gradient(result.rho_hat, row, drow, ts)
            assert np.linalg.eigvalsh(g)[0] >= -tomo._GTOL
            assert result.iterations - result.newton_steps <= 25

    @pytest.mark.parametrize("ts,unequal", [(TS36, False), (TS16, True)], ids=["36", "16-unequal"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_count_sets_certified_without_apg(self, ts, unequal, rank):
        durations = unequal_durations(ts) if unequal else [1.0] * len(ts.settings)
        sets = low_count_sets(ts, rank, durations, np.random.default_rng(rank))
        record = ObjectiveRecord(mle_reconstruct_many, sets, ts)
        assert record.result.converged.all()
        assert all(record.nonincreasing(i) for i in range(len(sets)))


def random_count_set(rng, ts, exposure, pure):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real if pure else random_density_matrix(rng)
    probs = np.clip(measure.born_probabilities(rho, ts.projectors), 0.0, None)
    counts = rng.poisson(exposure * probs)
    assume(sum(k for s, k in zip(ts.settings, counts) if s.label in HV_GROUP) > 0)
    return rho, (counts, np.ones(len(counts)))


PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), exposure=st.integers(20, 200_000),
       pure=st.booleans(), ts=st.sampled_from([TS36, TS16]))
def test_mle_is_physical_and_no_worse_than_its_start(seed, exposure, pure, ts):
    _, counts = random_count_set(np.random.default_rng(seed), ts, exposure, pure)
    record = ObjectiveRecord(tomo.mle_reconstruct, *counts, ts)
    assert record.net_change(0) <= ROUNDING
    assert record.result.converged
    qstate.check_density_matrix(record.result.rho_hat, atol=qstate.CHANNEL_ATOL)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), exposure=st.integers(200, 200_000),
       others=st.integers(1, 6), data=st.data())
def test_count_set_alone_or_in_a_batch(seed, exposure, others, data):
    rng = np.random.default_rng(seed)
    rho, counts = random_count_set(rng, TS36, exposure, pure=False)
    batch = [random_count_set(rng, TS36, exposure, pure=bool(i % 2))[1] for i in range(others)]
    at = data.draw(st.integers(0, others))
    batch.insert(at, counts)
    alone = tomo.mle_reconstruct(*counts, TS36)
    within = mle_reconstruct_many(batch, TS36)[at]
    assert abs(qstate.fidelity(alone.rho_hat, rho) - qstate.fidelity(within.rho_hat, rho)) < 1e-6
