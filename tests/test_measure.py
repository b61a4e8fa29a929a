import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomem import channel, measure, qstate, tomo
from conftest import BUNDLED, random_density_matrix


# ---------------------------------------------------------------------------
# Test-only references: the scalar Born rule with one np.kron per setting, and
# the correlation as four linear-analyzer settings.  The library evaluates all
# probabilities of a call at once and correlations as Tr(rho sigma x sigma).
# ---------------------------------------------------------------------------

def kron_prob(rho, s):
    k = np.kron(np.asarray(s.ket1, dtype=complex), np.asarray(s.ket2, dtype=complex))
    p = float(np.real(k.conj() @ np.asarray(rho, dtype=complex) @ k))
    return min(max(p, 0.0), 1.0)


def kron_counts(rho, settings, n_trials, scale, seed):
    rng = np.random.default_rng(seed)
    return [int(rng.poisson(n_trials * scale * kron_prob(rho, s))) for s in settings]


def linear_ket(phi):
    return (complex(math.cos(phi)), complex(math.sin(phi)))


def four_setting_correlation(rho, phi1, phi2, convention="mirrored"):
    if convention == "mirrored":
        phi2 = -phi2
    e = 0.0
    for d1, sign1 in ((0.0, 1.0), (math.pi / 2.0, -1.0)):
        for d2, sign2 in ((0.0, 1.0), (math.pi / 2.0, -1.0)):
            s = measure.AnalyzerSetting("corr", linear_ket(phi1 + d1), linear_ket(phi2 + d2))
            e += sign1 * sign2 * kron_prob(rho, s)
    return e


def reference_chsh(rho, angles, convention):
    p1, p1p, p2, p2p = angles
    e = lambda a, b: four_setting_correlation(rho, a, b, convention)  # noqa: E731
    return abs(-e(p1, p2) + e(p1, p2p) + e(p1p, p2) + e(p1p, p2p))


def basis_settings(basis):
    """The four joint settings of a basis pair, e.g. HH, HV, VH, VV."""
    b1, b2 = measure.BASIS_PAIRS[basis]
    return [measure.setting_from_labels(x, y) for x in (b1, b2) for y in (b1, b2)]


def reference_visibility(rho, basis):
    probs = [kron_prob(rho, s) for s in basis_settings(basis)]
    return (max(probs) - min(probs)) / (max(probs) + min(probs))


def random_state(rng, rank=None):
    """Random two-qubit state of the given rank (full rank if None)."""
    g = rng.standard_normal((4, rank or 4)) + 1j * rng.standard_normal((4, rank or 4))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def reference_states(rng):
    """Named states that include zero-probability settings and the model's own."""
    rho_in = channel.input_state(BUNDLED.source)
    stored = channel.store_retrieve(rho_in, 1e-6, BUNDLED.channel)[0]
    return [qstate.bell_phi_plus(), qstate.bell_psi_plus(), qstate.werner(0.5),
            np.eye(4, dtype=complex) / 4, rho_in, stored, random_state(rng, 1),
            random_state(rng, 2), random_state(rng)]


class TestCoincidenceProb:
    def test_bell_in_hv_basis(self):
        rho = qstate.bell_phi_plus()
        assert measure.coincidence_prob(rho, measure.setting_from_labels("H", "H")) == pytest.approx(0.5, abs=1e-12)
        assert measure.coincidence_prob(rho, measure.setting_from_labels("H", "V")) == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_complete_in_basis(self, rng):
        for basis in ("HV", "PM", "RL"):
            rho = random_density_matrix(rng)
            total = sum(measure.coincidence_prob(rho, s)
                        for s in basis_settings(basis))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_unknown_label_rejected(self):
        with pytest.raises(measure.MeasureError):
            measure.setting_from_labels("H", "X")


class TestCorrelation:
    @pytest.mark.parametrize("phi1,phi2", [
        (0.0, 0.0), (0.0, math.pi / 8), (math.pi / 4, math.pi / 8),
        (math.pi / 8, math.pi / 8), (0.3, 0.7), (1.1, -0.4),
        (math.pi / 4, 3 * math.pi / 8), (0.25, 1.3),
    ])
    def test_mirrored_oracle_for_bell(self, phi1, phi2):
        # Independent closed form: E = cos 2(phi1 + phi2) for |phi+> in
        # the mirrored convention.
        rho = qstate.bell_phi_plus()
        e = measure.correlation(rho, phi1, phi2, convention="mirrored")
        assert e == pytest.approx(math.cos(2 * (phi1 + phi2)), abs=1e-12)

    @pytest.mark.parametrize("phi1,phi2", [(0.0, 0.0), (0.3, 0.7), (1.1, -0.4)])
    def test_textbook_oracle_for_bell(self, phi1, phi2):
        rho = qstate.bell_phi_plus()
        e = measure.correlation(rho, phi1, phi2, convention="textbook")
        assert e == pytest.approx(math.cos(2 * (phi1 - phi2)), abs=1e-12)

    def test_werner_scales_correlation(self):
        p = 0.6
        e = measure.correlation(qstate.werner(p), 0.2, 0.5)
        assert e == pytest.approx(p * math.cos(2 * 0.7), abs=1e-12)

    def test_bad_convention(self):
        with pytest.raises(measure.MeasureError):
            measure.correlation(qstate.bell_phi_plus(), 0.0, 0.0, convention="other")


class TestChsh:
    def test_bell_saturates_tsirelson(self):
        s = measure.chsh_s(qstate.bell_phi_plus())
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_textbook_convention_nulls_at_these_angles(self):
        # Sanity check that the angle set demands the mirrored analyzers.
        s = measure.chsh_s(qstate.bell_phi_plus(), convention="textbook")
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_werner_linear_scaling(self):
        for p in (0.0, 0.4, 1 / math.sqrt(2), 1.0):
            s = measure.chsh_s(qstate.werner(p))
            assert s == pytest.approx(p * 2 * math.sqrt(2), abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        assert measure.chsh_s(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_input_state_value(self):
        rho = channel.input_state(BUNDLED.source)
        assert measure.chsh_s(rho) == pytest.approx(2.54, abs=0.10)

    def test_operators_are_the_pauli_forms(self):
        x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        xx, zz = np.kron(x, x), np.kron(z, z)
        expected = {"mirrored": -math.sqrt(2) * (xx + zz), "textbook": math.sqrt(2) * (xx - zz)}
        assert set(measure.CHSH_OPERATORS) == set(expected)
        for name, w in measure.CHSH_OPERATORS.items():
            assert w.shape == (4, 4) and np.abs(w - expected[name]).max() <= 1e-15
            assert np.array_equal(w, w.conj().T)

    def test_bad_convention(self):
        with pytest.raises(measure.MeasureError, match="unknown convention 'other'"):
            measure.chsh_s(qstate.bell_phi_plus(), convention="other")


class TestVisibility:
    def test_werner_visibility_equals_weight(self):
        for p in (0.2, 1 / math.sqrt(2), 0.95):
            for basis in ("HV", "PM", "RL"):
                assert measure.visibility(qstate.werner(p), basis) == pytest.approx(p, abs=1e-12)
            mean = measure.visibilities(qstate.werner(p)).mean(axis=-1)
            assert mean == pytest.approx(p, abs=1e-12)

    def test_input_state_basis_visibilities(self):
        # Oracle: V = (r - 1)/(r + 1) from the source count ratios.
        rho = channel.input_state(BUNDLED.source)
        assert measure.visibility(rho, "HV") == pytest.approx(13.3 / 15.3, abs=1e-9)
        assert measure.visibility(rho, "PM") == pytest.approx(22.1 / 24.1, abs=1e-9)

    def test_basis_table_rows_are_scheme_projectors(self):
        ts = tomo.make_settings(36)
        labels = [s.label for s in ts.settings]
        assert measure.BASIS_PROJECTORS.shape == (3, 4, 4, 4)
        for (b1, b2), rows in zip(measure.BASIS_PAIRS.values(), measure.BASIS_PROJECTORS):
            keys = [x + y for x in (b1, b2) for y in (b1, b2)]
            assert np.array_equal(rows, ts.projectors[[labels.index(k) for k in keys]])

    def test_bad_basis(self):
        with pytest.raises(measure.MeasureError):
            measure.visibility(qstate.bell_phi_plus(), "XY")


class TestSampleCounts:
    def test_deterministic_for_fixed_seed(self):
        rho = qstate.werner(0.8)
        settings = basis_settings("HV")
        a = measure.sample_counts(rho, settings, 10000, 0.5, seed=42)
        b = measure.sample_counts(rho, settings, 10000, 0.5, seed=42)
        assert a.dtype == np.int64 and a.shape == (4,)
        assert a.tolist() == b.tolist()

    def test_seed_changes_counts(self):
        rho = qstate.werner(0.8)
        settings = basis_settings("HV")
        a = measure.sample_counts(rho, settings, 10000, 0.5, seed=1)
        b = measure.sample_counts(rho, settings, 10000, 0.5, seed=2)
        assert a.tolist() != b.tolist()

    def test_poisson_mean_matches_born_rule(self):
        rho = qstate.werner(0.7)
        settings = basis_settings("HV")
        n, scale = 5000, 0.8
        sums = np.zeros(len(settings))
        n_rep = 200
        for s in range(n_rep):
            sums += measure.sample_counts(rho, settings, n, scale, seed=s)
        means = sums / n_rep
        for m, setting in zip(means, settings):
            mu = n * scale * measure.coincidence_prob(rho, setting)
            # 3 sigma on the mean of n_rep Poisson draws.
            assert abs(m - mu) < 3.0 * math.sqrt(mu / n_rep) + 1e-9

    def test_validation(self):
        settings = basis_settings("HV")
        with pytest.raises(measure.MeasureError):
            measure.sample_counts(qstate.werner(0.5), settings, 0, 0.5, seed=0)
        with pytest.raises(measure.MeasureError):
            measure.sample_counts(qstate.werner(0.5), settings, 100, 0.0, seed=0)

    def test_poisson_limit_is_numpys(self):
        limit = measure.PoissonLimitError.LIMIT
        big = np.iinfo(np.int64).max
        assert limit == big - 10 * math.sqrt(big)
        rng = np.random.default_rng(0)
        rng.poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(limit, math.inf))

    def test_mean_above_the_poisson_limit_names_its_row(self):
        ts = tomo.make_settings(36)
        rho = np.stack([qstate.werner(0.5), qstate.bell_phi_plus()])
        # The largest Bell probability is 1/2 and the largest Werner one 3/8.
        n_trials = 2.1 * measure.PoissonLimitError.LIMIT
        with pytest.raises(measure.PoissonLimitError) as err:
            measure.sample_count_arrays(rho, ts.projectors, n_trials, [1.0, 1.0], [0, 1])
        assert err.value.row == 1
        assert str(err.value) == "row 1 has a Poisson mean above numpy's limit 9.22337e+18"


class TestAgainstKronReference:
    """The vectorised Born rule against the per-setting kron path it replaced."""

    SETTING_SETS = {"HV": basis_settings("HV"),
                    "scheme16": list(tomo.make_settings(16).settings),
                    "scheme36": list(tomo.make_settings(36).settings)}

    @pytest.mark.parametrize("name", sorted(SETTING_SETS))
    def test_sample_counts_identical(self, name):
        settings = self.SETTING_SETS[name]
        rng = np.random.default_rng(8080)
        mismatches = []
        for case in range(80):
            states = reference_states(rng)
            rho = states[case % len(states)]
            scale = (1.0, 0.5, 0.04, 1e-3, float(rng.uniform(1e-4, 1.0)))[case % 5]
            n_trials = (1, 1000, 120_000, 10 ** 7)[case % 4]
            seed = int(rng.integers(2 ** 32))
            got = measure.sample_counts(rho, settings, n_trials, scale, seed).tolist()
            if got != kron_counts(rho, settings, n_trials, scale, seed):
                mismatches.append((case, scale, n_trials, seed))
        assert mismatches == []

    def test_zero_probability_settings_are_sampled(self):
        # Bell |phi+> never gives HV or VH: mu = 0 draws 0 and keeps the stream.
        settings = self.SETTING_SETS["HV"]
        got = measure.sample_counts(qstate.bell_phi_plus(), settings, 10 ** 6, 1.0, seed=5).tolist()
        assert got[1:3] == [0, 0]
        assert got == kron_counts(qstate.bell_phi_plus(), settings,
                                                      10 ** 6, 1.0, 5)

    def test_coincidence_prob(self, rng):
        for rho in reference_states(rng):
            for s in self.SETTING_SETS["scheme36"]:
                assert abs(measure.coincidence_prob(rho, s) - kron_prob(rho, s)) <= 1e-15

    @pytest.mark.parametrize("convention", ["mirrored", "textbook"])
    def test_correlation(self, rng, convention):
        for _ in range(200):
            rho = random_state(rng, int(rng.integers(1, 5)))
            phi1, phi2 = rng.uniform(-math.pi, math.pi, 2)
            got = measure.correlation(rho, phi1, phi2, convention)
            assert abs(got - four_setting_correlation(rho, phi1, phi2, convention)) <= 1e-14

    @pytest.mark.parametrize("convention", ["mirrored", "textbook"])
    def test_chsh_s(self, rng, convention):
        for rho in reference_states(rng):
            assert abs(measure.chsh_s(rho, convention=convention)
                       - reference_chsh(rho, measure.CHSH_ANGLES_RAD, convention)) <= 1e-14
        for _ in range(100):
            rho = random_state(rng, int(rng.integers(1, 5)))
            assert abs(measure.chsh_s(rho, convention)
                       - reference_chsh(rho, measure.CHSH_ANGLES_RAD, convention)) <= 1e-14

    def test_visibility(self, rng):
        states = reference_states(rng) + [random_state(rng, int(rng.integers(1, 5)))
                                          for _ in range(100)]
        for rho in states:
            refs = [reference_visibility(rho, b) for b in ("HV", "PM", "RL")]
            for basis, ref in zip(("HV", "PM", "RL"), refs):
                assert abs(measure.visibility(rho, basis) - ref) <= 1e-14
            assert abs(measure.visibilities(rho).mean(axis=-1) - sum(refs) / 3.0) <= 1e-14

    def test_vanishing_basis_named(self):
        rho = np.zeros((4, 4), dtype=complex)
        with pytest.raises(measure.MeasureError, match="vanish in basis PM"):
            measure.visibility(rho, "PM")
        with pytest.raises(measure.MeasureError, match="vanish in basis HV"):
            measure.visibilities(rho).mean(axis=-1)


# The settings HH, HV and VV, the rows of the CSV cases below.
CSV_SETTINGS = [measure.setting_from_labels(*labels) for labels in ("HH", "HV", "VV")]
CSV_HEADER = "setting_label,counts,duration_s\n"


class TestCsv:
    def test_round_trip(self):
        settings = CSV_SETTINGS[:2]
        text = measure.counts_to_csv(settings, np.array([120, 7]), np.array([1.0, 2.5]))
        assert text == CSV_HEADER + "HH,120,1.0\nHV,7,2.5\n"
        n, dur = measure.counts_from_csv(text, settings)
        assert n.tolist() == [120.0, 7.0] and dur.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("n,dur,message", [
        ([-3, 4], [1.0, math.inf], "counts must be >= 0, got -3"),
        ([3, 4], [1.0, math.inf], "duration must be finite and positive, got inf"),
        ([3, 4.5], [1.0, 1.0], "counts must be finite and whole, got 4.5"),
    ], ids=["negative-count", "infinite-duration", "fractional-count"])
    def test_writer_applies_the_count_rule(self, n, dur, message):
        with pytest.raises(measure.MeasureError, match=f"^{re.escape(message)}$"):
            measure.counts_to_csv(CSV_SETTINGS[:2], n, dur)

    def test_rejects_missing_header(self):
        with pytest.raises(measure.MeasureError):
            measure.counts_from_csv("HH,120,1.0\n", CSV_SETTINGS[:1])

    @pytest.mark.parametrize("row,message", [
        ("HV,7", "expected 3 fields setting_label,counts,duration_s, got 2"),
        ("HV,7,1.0,2", "expected 3 fields setting_label,counts,duration_s, got 4"),
        ("", "expected 3 fields setting_label,counts,duration_s, got 0"),
        ("HV,7.5,1.0", "invalid literal for int"),
        ("HV,-7,1.0", "counts must be >= 0"),
        ("HV,7,soon", "could not convert string to float"),
        ("HV,-1,1.0", "counts must be >= 0, got -1"),
        ("HV,1,0.0", "duration must be finite and positive, got 0.0"),
        ("HV,1,inf", "duration must be finite and positive, got inf"),
        # csv writes a lone carriage return unquoted; quoted, it reads back.
        ('"H\rV",1,1.0', "label 'H\\rV' does not match setting 'HV'"),
        ("VV,3,1.0", "label 'VV' does not match setting 'HV'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        text = CSV_HEADER + "HH,120,1.0\n" + row + "\nVV,3,1.0\n"
        with pytest.raises(measure.MeasureError, match=f"^count CSV line 3: {re.escape(message)}"):
            measure.counts_from_csv(text, CSV_SETTINGS)

    @pytest.mark.parametrize("rows,message", [
        (["HH,120,1.0", "HV,7,1.0"], "count CSV line 3: 2 rows for 3 settings"),
        (["HH,120,1.0", "HV,7,1.0", "VV,3,1.0", "VV,3,1.0"],
         "count CSV line 5: 4 rows for 3 settings"),
        ([], "count CSV line 1: 0 rows for 3 settings"),
    ], ids=["too-few", "too-many", "header-only"])
    def test_row_count_must_match_settings(self, rows, message):
        text = CSV_HEADER + "".join(row + "\n" for row in rows)
        with pytest.raises(measure.MeasureError, match=f"^{message}$"):
            measure.counts_from_csv(text, CSV_SETTINGS)


def _count_rows(ts):
    """Counts from 0 to 2**64, as floats, and positive finite durations over ts's settings."""
    k = len(ts.settings)
    return st.tuples(st.just(ts.settings),
                     st.lists(st.integers(0, 2 ** 64), min_size=k, max_size=k),
                     st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                              min_size=k, max_size=k))


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([tomo.make_settings(16), tomo.make_settings(36)]).flatmap(_count_rows))
def test_counts_csv_round_trip(case):
    # int(float) is exact, so each count is written and read back unchanged.
    settings, counts, durations = case
    n, dur = np.array(counts, dtype=float), np.array(durations)
    back = measure.counts_from_csv(measure.counts_to_csv(settings, n, dur), settings)
    assert back[0].tobytes() == n.tobytes() and back[1].tobytes() == dur.tobytes()
